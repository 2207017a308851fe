"""Tests for saturating arithmetic and the pre-deployment overflow audit."""

import numpy as np
import pytest

from repro.core.weights import HostWeights
from repro.fixedpoint.qformat import PAPER_QFORMAT, QFormat
from repro.fixedpoint.saturation import (
    AuditResult,
    OverflowAudit,
    headroom_bits,
    qsaturate,
)
from repro.nn.model import SequenceClassifier


class TestSaturate:
    def test_values_inside_range_unchanged(self):
        values = np.array([100, -100, 0], dtype=np.int64)
        np.testing.assert_array_equal(qsaturate(values, bits=16), values)

    def test_clamps_high(self):
        assert qsaturate(40_000, bits=16) == 32_767

    def test_clamps_low(self):
        assert qsaturate(-40_000, bits=16) == -32_768

    def test_scalar_returns_int(self):
        assert isinstance(qsaturate(5, bits=8), int)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            qsaturate(1, bits=1)
        with pytest.raises(ValueError):
            qsaturate(1, bits=64)


class TestHeadroom:
    def test_zero_has_full_headroom(self):
        assert headroom_bits(np.zeros(3, dtype=np.int64), bits=16) == 15

    def test_exact_fit(self):
        # 32767 needs 15 magnitude bits + sign = 16.
        assert headroom_bits(32_767, bits=16) == 0

    def test_overflow_is_negative(self):
        assert headroom_bits(70_000, bits=16) < 0

    def test_paper_scale_weights_fit_32_bits(self):
        model = SequenceClassifier(seed=0)
        quantized = HostWeights.from_model(model).quantized(PAPER_QFORMAT)
        # Unit-range weights at scale 1e6 need ~21 bits: lots of headroom.
        assert headroom_bits(quantized.gates["i"].matrix, bits=32) > 5


class TestOverflowAudit:
    @pytest.fixture(scope="class")
    def quantized(self):
        model = SequenceClassifier(seed=0)
        return HostWeights.from_model(model)

    def test_paper_configuration_fits_dsp48(self, quantized):
        audit = OverflowAudit(PAPER_QFORMAT, accumulator_bits=48, sequence_length=100)
        result = audit.audit(quantized.quantized(PAPER_QFORMAT))
        assert isinstance(result, AuditResult)
        assert result.fits
        assert result.worst_case_accumulator_magnitude < (1 << 47)

    def test_huge_scale_flags_overflow(self, quantized):
        huge = QFormat(10**12)
        audit = OverflowAudit(huge, accumulator_bits=48, sequence_length=100)
        result = audit.audit(quantized.quantized(huge))
        assert not result.fits

    def test_detail_covers_all_gates(self, quantized):
        audit = OverflowAudit(PAPER_QFORMAT)
        result = audit.audit(quantized.quantized(PAPER_QFORMAT))
        assert set(result.detail) == {"i", "f", "c", "o"}

    def test_cell_bound_scales_with_sequence_length(self, quantized):
        q = quantized.quantized(PAPER_QFORMAT)
        short = OverflowAudit(PAPER_QFORMAT, sequence_length=10).audit(q)
        long = OverflowAudit(PAPER_QFORMAT, sequence_length=1000).audit(q)
        assert long.worst_case_cell_magnitude == 100 * short.worst_case_cell_magnitude

    def test_validation(self):
        with pytest.raises(ValueError):
            OverflowAudit(PAPER_QFORMAT, accumulator_bits=4)
        with pytest.raises(ValueError):
            OverflowAudit(PAPER_QFORMAT, sequence_length=0)

    def test_runtime_cell_state_respects_audit_bound(self, quantized):
        """Empirical check: the cell magnitudes the oracle kernels reach
        while stepping real sequences stay under the bound (and are not
        vacuously zero)."""
        from repro.core.config import EngineConfig, OptimizationLevel, ModelDimensions
        from repro.core.engine import CSDInferenceEngine

        dims = ModelDimensions(sequence_length=50)
        engine = CSDInferenceEngine(
            EngineConfig(dimensions=dims, optimization=OptimizationLevel.FIXED_POINT),
            quantized,
        )
        rng = np.random.default_rng(0)
        embedded = engine.preprocess.run_batch(rng.integers(0, 278, size=(8, 50)))
        hidden = np.zeros((8, dims.hidden_size), dtype=np.int64)
        cell = hidden
        observed = 0
        for step in range(50):
            gates = engine.gates.run_batch(hidden, embedded[:, step, :])
            hidden, cell = engine.hidden_state.step_batch(gates, cell)
            observed = max(observed, int(np.max(np.abs(cell))))
        bound = OverflowAudit(PAPER_QFORMAT, sequence_length=50).audit(
            quantized.quantized(PAPER_QFORMAT)
        ).worst_case_cell_magnitude
        assert 0 < observed <= bound
