"""Tests for the three reference kernels: function and timing."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import EngineConfig, ModelDimensions, OptimizationLevel
from repro.core.kernels.gates import GATE_ACTIVATIONS, GatesKernel
from repro.core.kernels.hidden_state import HiddenStateKernel
from repro.core.kernels.preprocess import PreprocessKernel
from repro.core.weights import HostWeights
from repro.fixedpoint.qformat import PAPER_QFORMAT
from repro.nn.activations import sigmoid, softsign
from repro.nn.model import SequenceClassifier

DIMS = ModelDimensions(vocab_size=9, embedding_dim=3, hidden_size=5, sequence_length=4)


def make_config(level=OptimizationLevel.VANILLA, **overrides):
    return EngineConfig(dimensions=DIMS, optimization=level, **overrides)


@pytest.fixture
def host_weights():
    model = SequenceClassifier(vocab_size=9, embedding_dim=3, hidden_size=5, seed=2)
    return HostWeights.from_model(model)


def loaded_kernels(level, host_weights, **overrides):
    config = make_config(level, **overrides)
    quantized = (
        host_weights.quantized(PAPER_QFORMAT) if level.uses_fixed_point else None
    )
    preprocess = PreprocessKernel(config)
    preprocess.load_embeddings(host_weights, quantized)
    gates = GatesKernel(config)
    gates.load_weights(host_weights, quantized)
    hidden = HiddenStateKernel(config)
    hidden.load_weights(host_weights, quantized)
    return preprocess, gates, hidden


class TestPreprocess:
    def test_copies_are_independent(self, host_weights):
        preprocess, _, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        embedded = preprocess.run_batch(np.array([0, 0]))
        np.testing.assert_array_equal(embedded[1], host_weights.embedding[0])
        embedded[0, 0] = 999.0
        assert embedded[1, 0] != 999.0
        assert host_weights.embedding[0, 0] != 999.0

    def test_fixed_point_returns_quantised(self, host_weights):
        preprocess, _, _ = loaded_kernels(OptimizationLevel.FIXED_POINT, host_weights)
        assert preprocess.run_batch(np.array([1])).dtype == np.int64

    def test_rejects_out_of_range_token(self, host_weights):
        preprocess, _, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        with pytest.raises(ValueError):
            preprocess.run_batch(np.array([9]))

    def test_run_before_load_raises(self):
        with pytest.raises(RuntimeError):
            PreprocessKernel(make_config()).run_batch(np.array([0]))

    def test_timing_nearly_flat_across_levels(self, host_weights):
        # Fig. 3: "the execution time of kernel_preprocess remained fairly
        # fixed".
        times = {}
        for level in OptimizationLevel:
            preprocess, _, _ = loaded_kernels(level, host_weights)
            times[level] = preprocess.timing().reported_cycles
        spread = max(times.values()) - min(times.values())
        assert spread <= 0.2 * max(times.values())


class TestGates:
    def test_outputs_all_four_gates(self, host_weights):
        _, gates, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        outputs = gates.run_batch(np.zeros((1, 5)), host_weights.embedding[[2]])
        assert set(outputs) == {"i", "f", "o", "c"}

    def test_float_matches_reference_math(self, host_weights, rng):
        _, gates, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        h = rng.standard_normal(5)
        x = host_weights.embedding[4]
        outputs = gates.run_batch(h[np.newaxis, :], x[np.newaxis, :])
        concatenated = np.concatenate([h, x])
        for name, gate in host_weights.gates.items():
            pre = gate.matrix @ concatenated + gate.bias
            expected = sigmoid(pre) if GATE_ACTIVATIONS[name] == "sigmoid" else softsign(pre)
            np.testing.assert_allclose(outputs[name][0], expected, atol=1e-12)

    def test_fixed_point_close_to_float(self, host_weights, rng):
        _, float_gates, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        _, fixed_gates, _ = loaded_kernels(OptimizationLevel.FIXED_POINT, host_weights)
        h_float = rng.uniform(-0.5, 0.5, size=(1, 5))
        x_float = host_weights.embedding[[1]]
        float_out = float_gates.run_batch(h_float, x_float)
        fixed_out = fixed_gates.run_batch(
            PAPER_QFORMAT.quantize(h_float), PAPER_QFORMAT.quantize(x_float)
        )
        for name in ("i", "f", "o"):
            np.testing.assert_allclose(
                PAPER_QFORMAT.dequantize(fixed_out[name]), float_out[name], atol=0.02
            )
        np.testing.assert_allclose(
            PAPER_QFORMAT.dequantize(fixed_out["c"]), float_out["c"], atol=1e-4
        )

    def test_fixed_point_reports_ii(self, host_weights):
        _, gates, _ = loaded_kernels(OptimizationLevel.FIXED_POINT, host_weights)
        timing = gates.timing()
        assert timing.reports_ii
        assert timing.reported_cycles == 1
        assert timing.fill_latency_cycles > 1

    def test_float_reports_latency(self, host_weights):
        _, gates, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        timing = gates.timing()
        assert not timing.reports_ii
        assert timing.reported_cycles == timing.fill_latency_cycles

    def test_fewer_cus_serialise_gates(self, host_weights):
        times = {}
        for cus in (1, 2, 4):
            _, gates, _ = loaded_kernels(
                OptimizationLevel.VANILLA, host_weights, num_gate_cus=cus
            )
            times[cus] = gates.timing().reported_cycles
        assert times[1] == 4 * times[4]
        assert times[2] == 2 * times[4]

    def test_single_cu_functionally_identical(self, host_weights, rng):
        _, four, _ = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        _, one, _ = loaded_kernels(
            OptimizationLevel.VANILLA, host_weights, num_gate_cus=1
        )
        h = rng.standard_normal((3, 5))
        x = host_weights.embedding[[0, 4, 7]]
        out_four = four.run_batch(h, x)
        out_one = one.run_batch(h, x)
        for name in out_four:
            np.testing.assert_array_equal(out_four[name], out_one[name])


class TestHiddenState:
    def _gate_values(self, rng, fixed=False):
        i = rng.uniform(0.1, 0.9, size=(1, 5))
        f = rng.uniform(0.1, 0.9, size=(1, 5))
        o = rng.uniform(0.1, 0.9, size=(1, 5))
        c = rng.uniform(-0.8, 0.8, size=(1, 5))
        if fixed:
            return {k: PAPER_QFORMAT.quantize(v) for k, v in zip("ifoc", (i, f, o, c))}
        return {"i": i, "f": f, "o": o, "c": c}

    def test_cell_update_math(self, host_weights, rng):
        _, _, hidden = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        gates = self._gate_values(rng)
        cell = rng.uniform(-0.5, 0.5, size=(1, 5))
        new_hidden, new_cell = hidden.step_batch(gates, cell)
        expected_cell = gates["f"] * cell + gates["i"] * gates["c"]
        expected_hidden = gates["o"] * softsign(expected_cell)
        np.testing.assert_allclose(new_cell, expected_cell, atol=1e-12)
        np.testing.assert_allclose(new_hidden, expected_hidden, atol=1e-12)

    def test_run_before_load_raises(self, rng):
        kernel = HiddenStateKernel(make_config())
        with pytest.raises(RuntimeError):
            kernel.step_batch(self._gate_values(rng), np.zeros((1, 5)))

    def test_fixed_point_state_is_integer(self, host_weights, rng):
        _, _, hidden = loaded_kernels(OptimizationLevel.FIXED_POINT, host_weights)
        new_hidden, new_cell = hidden.step_batch(
            self._gate_values(rng, fixed=True), np.zeros((1, 5), dtype=np.int64)
        )
        assert new_hidden.dtype == new_cell.dtype == np.int64

    def test_ii_gives_wide_margin_reduction(self, host_weights):
        # Fig. 3: "II minimization reduced the execution time of
        # kernel_hidden_state by a relatively wide margin".
        _, _, vanilla = loaded_kernels(OptimizationLevel.VANILLA, host_weights)
        _, _, optimised = loaded_kernels(OptimizationLevel.II_OPTIMIZED, host_weights)
        assert optimised.timing().reported_cycles < 0.75 * vanilla.timing().reported_cycles

    def test_classification_cycles_positive(self, host_weights):
        for level in OptimizationLevel:
            _, _, hidden = loaded_kernels(level, host_weights)
            assert hidden.classification_cycles() > 0
