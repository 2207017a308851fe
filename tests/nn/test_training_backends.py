"""Bit-exactness and degradation contract of the training kernel registry.

The fused backend's whole value proposition is "faster and *identical*":
every loss, every gradient array, and every full training trajectory must
match the reference path bit for bit, on every shape hypothesis can dream
up.  Every degradation (no compiler, a rejected compiled tier, an
unsupported cell) runs the reference path; it must be observable through ``repro_train_backend_fallback_total`` and never
change a single number.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import kernels
from repro.nn.kernels import (
    DEFAULT_TRAIN_BACKEND,
    FALLBACK_SELF_CHECK,
    FALLBACK_UNSUPPORTED,
    FusedTrainingKernel,
    METRIC_TRAIN_BATCHES,
    METRIC_TRAIN_FALLBACK,
    ReferenceTrainingKernel,
    available_training_backends,
    register_training_backend,
    resolve_training_backend,
)
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.telemetry import Telemetry

VOCAB = 41


def _model(seed=0, hidden_size=16, cell_activation="softsign"):
    return SequenceClassifier(
        vocab_size=VOCAB, embedding_dim=5, hidden_size=hidden_size,
        seed=seed, cell_activation=cell_activation,
    )


def _batch(rng, batch_size, timesteps):
    token_ids = rng.integers(0, VOCAB, size=(batch_size, timesteps))
    labels = rng.integers(0, 2, size=batch_size)
    return token_ids, labels


def _assert_same_result(result_a, result_b):
    loss_a, grads_a = result_a
    loss_b, grads_b = result_b
    assert loss_a == loss_b
    assert grads_a.keys() == grads_b.keys()
    for key in grads_a:
        assert np.array_equal(grads_a[key], grads_b[key]), key


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "reference" in available_training_backends()
        assert "fused" in available_training_backends()
        assert DEFAULT_TRAIN_BACKEND == "fused"

    def test_resolve_returns_bound_kernels(self):
        model = _model()
        assert isinstance(
            resolve_training_backend("reference", model), ReferenceTrainingKernel
        )
        assert isinstance(
            resolve_training_backend("fused", model), FusedTrainingKernel
        )

    def test_unknown_backend_raises_with_available_list(self):
        with pytest.raises(ValueError, match="unknown training backend"):
            resolve_training_backend("turbo", _model())

    def test_register_custom_backend(self):
        register_training_backend("custom-test", ReferenceTrainingKernel)
        try:
            kernel = resolve_training_backend("custom-test", _model())
            assert isinstance(kernel, ReferenceTrainingKernel)
        finally:
            del kernels._REGISTRY["custom-test"]

    def test_trainer_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown training backend"):
            Trainer(_model(), TrainingConfig(backend="turbo"))


class TestFusedParity:
    """The core contract: fused == reference, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch_size=st.integers(1, 7),
        timesteps=st.integers(1, 9),
        hidden_size=st.sampled_from([4, 16]),
    )
    def test_train_batch_bitwise(self, seed, batch_size, timesteps, hidden_size):
        reference_model = _model(seed=seed, hidden_size=hidden_size)
        fused_model = _model(seed=seed, hidden_size=hidden_size)
        fused = resolve_training_backend("fused", fused_model)
        rng = np.random.default_rng(seed)
        for _ in range(2):  # second batch reuses the persistent buffers
            token_ids, labels = _batch(rng, batch_size, timesteps)
            _assert_same_result(
                fused.train_batch(token_ids, labels),
                reference_model.train_batch(token_ids, labels),
            )

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), batch_size=st.integers(8, 32))
    def test_full_fit_trajectory_bitwise(self, seed, batch_size):
        """Whole fit() runs — weights and history — match across backends.

        ``batch_size`` ranges over values that leave a ragged final
        mini-batch, exercising the buffer reshape path mid-epoch.
        """
        rng = np.random.default_rng(seed)
        train_x, train_y = _batch(rng, 50, 12)
        test_x, test_y = _batch(rng, 10, 12)
        weights = {}
        for backend in ("reference", "fused"):
            model = _model(seed=seed)
            Trainer(
                model,
                TrainingConfig(epochs=3, batch_size=batch_size,
                               eval_every=1, seed=seed, backend=backend),
            ).fit(train_x, train_y, test_x, test_y)
            weights[backend] = model.get_weights()
        for a, b in zip(weights["reference"], weights["fused"]):
            assert np.array_equal(a, b)

    def test_histories_match_across_backends(self):
        rng = np.random.default_rng(3)
        train_x, train_y = _batch(rng, 40, 10)
        test_x, test_y = _batch(rng, 8, 10)
        histories = {}
        for backend in ("reference", "fused"):
            trainer = Trainer(
                _model(seed=3),
                TrainingConfig(epochs=4, batch_size=16, eval_every=1,
                               backend=backend),
            )
            histories[backend] = trainer.fit(
                train_x, train_y, test_x, test_y
            ).records
        assert histories["reference"] == histories["fused"]


class TestDegradation:
    def test_tanh_model_delegates_to_reference(self):
        telemetry = Telemetry()
        model = _model(seed=5, cell_activation="tanh")
        fused = resolve_training_backend("fused", model, telemetry=telemetry)
        assert fused.accel_tier is None
        assert fused.fallback_reasons.get(FALLBACK_UNSUPPORTED) == 1
        rng = np.random.default_rng(5)
        token_ids, labels = _batch(rng, 4, 6)
        _assert_same_result(
            fused.train_batch(token_ids, labels),
            _model(seed=5, cell_activation="tanh").train_batch(token_ids, labels),
        )
        reasons = {
            record["labels"]["reason"]
            for record in telemetry.metrics.snapshot()
            if record["name"] == METRIC_TRAIN_FALLBACK
        }
        assert FALLBACK_UNSUPPORTED in reasons

    def test_broken_compiled_tier_is_caught_at_build_time(self, monkeypatch):
        """A compiled tier producing wrong bits (here a forward step that
        drops the input-gate term of the cell update) is rejected by the
        build-time self-check, counted once as ``self_check_failed``, and
        training runs the reference path — its output never changes."""
        from repro import cbuild

        render = kernels._render_cc_train_steps
        correct = "double c_new = s_f * cprev[k] + s_i * c_b;"

        def broken(hidden_size):
            source = render(hidden_size)
            assert correct in source
            return source.replace(correct, "double c_new = s_f * cprev[k];")

        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(kernels, "_render_cc_train_steps", broken)
        if kernels._build_cc_train_steps(16) is None:
            pytest.skip("no system C compiler")
        fused = resolve_training_backend("fused", _model(seed=7))
        assert fused.accel_tier is None
        assert fused.fallback_reasons == {FALLBACK_SELF_CHECK: 1}
        rng = np.random.default_rng(7)
        token_ids, labels = _batch(rng, 3, 5)
        _assert_same_result(
            fused.train_batch(token_ids, labels),
            _model(seed=7).train_batch(token_ids, labels),
        )

    def test_missing_compiler_runs_reference(self, monkeypatch):
        """Without a compiler, training counts ``jit_error`` once and
        runs the reference path: whole fits match bit for bit."""
        from repro import cbuild

        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        fused = resolve_training_backend("fused", _model(seed=9))
        assert fused.accel_tier is None
        assert fused.fallback_reasons == {kernels.FALLBACK_JIT_ERROR: 1}
        rng = np.random.default_rng(9)
        token_ids, labels = _batch(rng, 4, 5)
        _assert_same_result(
            fused.train_batch(token_ids, labels),
            _model(seed=9).train_batch(token_ids, labels),
        )
        train_x, train_y = _batch(rng, 30, 6)
        test_x, test_y = _batch(rng, 6, 6)
        weights = {}
        for backend in ("reference", "fused"):
            model = _model(seed=9)
            trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=8,
                                                    seed=9, backend=backend))
            trainer.fit(train_x, train_y, test_x, test_y)
            weights[backend] = model.get_weights()
        assert trainer.kernel.fallback_reasons == {kernels.FALLBACK_JIT_ERROR: 1}
        for a, b in zip(weights["reference"], weights["fused"]):
            assert np.array_equal(a, b)

    def test_batch_counter_by_backend(self):
        telemetry = Telemetry()
        model = _model(seed=2)
        rng = np.random.default_rng(2)
        token_ids, labels = _batch(rng, 4, 6)
        fused = resolve_training_backend("fused", model, telemetry=telemetry)
        fused.train_batch(token_ids, labels)
        fused.train_batch(token_ids, labels)
        counts = {
            record["labels"]["backend"]: record["value"]
            for record in telemetry.metrics.snapshot()
            if record["name"] == METRIC_TRAIN_BATCHES
        }
        assert counts.get("fused") == 2
