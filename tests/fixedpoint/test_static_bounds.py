"""The overflow screen must not rescan static weights per timestep.

``_wide_accumulate_rescale`` screens its operands with ``max(|x|)`` before
deciding whether the wide accumulation can wrap int64.  Weights never
change after load, so the engine precomputes their bound once
(:func:`repro.fixedpoint.ops.operand_bound`) and passes it down — the
per-timestep full-matrix scan of the ``(4H, H+E)`` stacked gate matrix is
pure overhead.  These tests count actual bound evaluations to pin that
the scan is really gone, and that skipping it changes no value (the same
float64 bound feeds the same branch decisions).
"""

import numpy as np
import pytest

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.fixedpoint import ops
from repro.fixedpoint.qformat import QFormat
from repro.nn.model import SequenceClassifier

SEQ_LEN = 12
VOCAB = 278


@pytest.fixture
def fmt():
    return QFormat()


@pytest.fixture
def trace(monkeypatch):
    """Capture the element count of every bound scan."""
    captured = []
    monkeypatch.setattr(ops, "bound_scan_trace", captured)
    return captured


def test_operand_bound_matches_full_scan(fmt):
    rng = np.random.default_rng(0)
    array = rng.integers(-10**7, 10**7, size=(16, 9))
    assert ops.operand_bound(array) == float(np.max(np.abs(array)))
    assert ops.operand_bound(np.zeros((0, 3))) == 0.0


def test_qmatmul_precomputed_bound_skips_one_scan(fmt):
    rng = np.random.default_rng(1)
    a = rng.integers(-10**6, 10**6, size=(8, 5))
    b = rng.integers(-10**6, 10**6, size=(5, 6))
    bound = ops.operand_bound(b)

    before = ops.bound_scan_count()
    plain = ops.qmatmul(a, b, fmt)
    mid = ops.bound_scan_count()
    bounded = ops.qmatmul(a, b, fmt, b_bound=bound)
    after = ops.bound_scan_count()

    assert np.array_equal(plain, bounded)
    assert mid - before == 2   # both operands scanned without hints
    assert after - mid == 1    # only the dynamic operand scanned


def test_qmatvec_precomputed_bound_skips_one_scan(fmt):
    rng = np.random.default_rng(2)
    matrix = rng.integers(-10**6, 10**6, size=(8, 5))
    vector = rng.integers(-10**6, 10**6, size=5)
    bound = ops.operand_bound(matrix)

    before = ops.bound_scan_count()
    plain = ops.qmatvec(matrix, vector, fmt)
    mid = ops.bound_scan_count()
    bounded = ops.qmatvec(matrix, vector, fmt, matrix_bound=bound)
    after = ops.bound_scan_count()

    assert np.array_equal(plain, bounded)
    assert mid - before == 2
    assert after - mid == 1


def test_screen_decisions_identical_with_precomputed_bound(fmt):
    # Values near the overflow screen's trigger point: the precomputed
    # bound must route through the exact same suspect-recompute branch.
    huge = np.full((2, 2), 3 * 10**9, dtype=np.int64)
    bound = ops.operand_bound(huge)
    assert np.array_equal(
        ops.qmatmul(huge, huge, fmt),
        ops.qmatmul(huge, huge, fmt, a_bound=bound, b_bound=bound),
    )


class TestEngineNeverRescansWeights:
    """End-to-end: load scans the weights once, inference never again."""

    def _sizes(self, engine):
        dims = engine.config.dimensions
        stacked = 4 * dims.hidden_size * dims.gate_input_size
        per_gate = dims.hidden_size * dims.gate_input_size
        return stacked, per_gate

    def test_load_scans_each_weight_operand_once(self, trace):
        model = SequenceClassifier(seed=11)
        engine = engine_at_level(
            model, OptimizationLevel.FIXED_POINT, sequence_length=SEQ_LEN
        )
        stacked, per_gate = self._sizes(engine)
        assert trace.count(stacked) == 1      # stacked (4H, H+E) matrix
        assert trace.count(per_gate) == 0     # no kernel reads a lone gate
        assert trace.count(engine.config.dimensions.hidden_size) >= 1  # FC

    def test_inference_never_scans_weight_sized_operands(self, trace):
        model = SequenceClassifier(seed=11)
        engine = engine_at_level(
            model, OptimizationLevel.FIXED_POINT, sequence_length=SEQ_LEN
        )
        stacked, per_gate = self._sizes(engine)
        trace.clear()  # drop the load-time scans

        rng = np.random.default_rng(7)
        batch = rng.integers(0, VOCAB, size=(4, SEQ_LEN))
        engine.infer_batch(batch)
        assert trace, "inference should still screen dynamic activations"
        assert stacked not in trace
        assert per_gate not in trace

    def test_sequential_path_never_scans_weight_sized_operands(self, trace):
        model = SequenceClassifier(seed=11)
        engine = engine_at_level(
            model, OptimizationLevel.FIXED_POINT, sequence_length=SEQ_LEN
        )
        stacked, per_gate = self._sizes(engine)
        trace.clear()

        rng = np.random.default_rng(8)
        engine.infer_sequence(rng.integers(0, VOCAB, size=SEQ_LEN))
        assert stacked not in trace
        assert per_gate not in trace
