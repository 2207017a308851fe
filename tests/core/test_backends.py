"""Kernel-backend registry tests (see ``docs/performance.md``).

The registry's contract: every backend is **bit-exact** with the
``reference`` per-kernel NumPy pipeline at every optimisation level, on
both the whole-window inference path and the incremental session path;
degradations (missing accelerator, unsafe bounds, mid-run overflow
guard) fall back gracefully and are *counted*, never silent.
"""

import dataclasses
import shutil
import subprocess
import tempfile

import numpy as np
import pytest

from repro import cbuild
from repro.core import sessions as sessions_mod
from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import (
    DEFAULT_BACKEND,
    FALLBACK_JIT_ERROR,
    FALLBACK_OVERFLOW_GUARD,
    METRIC_FALLBACK,
    METRIC_TICKS,
    FusedOverflow,
    available_backends,
    resolve_backend,
)
from repro.core.sessions import SessionConfig, SessionManager
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier

WINDOW = 12
VOCAB = 278

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=7))
_ENGINES: dict = {}


def build_engine(level, backend=DEFAULT_BACKEND) -> CSDInferenceEngine:
    config = EngineConfig(
        dimensions=dataclasses.replace(_WEIGHTS.dimensions, sequence_length=WINDOW),
        optimization=level,
        backend=backend,
    )
    return CSDInferenceEngine(config, _WEIGHTS)


def engine_for(level, backend="reference") -> CSDInferenceEngine:
    """A shared engine per (level, backend); the oracle unless named."""
    engine = _ENGINES.get((level, backend))
    if engine is None:
        engine = _ENGINES[(level, backend)] = build_engine(level, backend)
    return engine


def manager_verdicts(manager, keys, tokens) -> list:
    """Step ``tokens`` (streams x ticks) through ``manager``; flat verdicts."""
    out = []
    for tick in range(tokens.shape[1]):
        batch = {keys[i]: int(tokens[i, tick]) for i in range(len(keys))}
        out.extend(
            (v.session, v.window_index, v.probability)
            for v in manager.step(batch)
        )
    return out


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(available_backends()) >= {"reference", "fused"}
        assert DEFAULT_BACKEND == "fused"
        assert EngineConfig().backend == DEFAULT_BACKEND

    def test_unknown_backend_rejected(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        with pytest.raises(ValueError, match="nope"):
            resolve_backend("nope", engine)

    def test_engine_caches_step_backend(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT, backend="fused")
        assert engine.step_backend is engine.step_backend
        assert engine.step_backend.name == "fused"

    def test_fused_accel_tier_is_known(self):
        backend = engine_for(
            OptimizationLevel.FIXED_POINT, backend="fused"
        ).step_backend
        assert backend.accel_tier in (None, "cc")


class TestInferenceParity:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_infer_batch_bit_exact_with_reference(self, level):
        rng = np.random.default_rng(17)
        batch = rng.integers(0, VOCAB, size=(8, WINDOW))
        want = engine_for(level).infer_batch(batch).probabilities
        got = engine_for(level, backend="fused").infer_batch(batch).probabilities
        np.testing.assert_array_equal(got, want)

    def test_fused_numpy_tier_also_bit_exact(self):
        """With the compiled step disabled, the vectorised-NumPy fused
        path must still match the reference bit for bit."""
        level = OptimizationLevel.FIXED_POINT
        engine = build_engine(level, backend="fused")
        if engine.step_backend._math is not None:
            engine.step_backend._math.disable_jit()
        rng = np.random.default_rng(19)
        batch = rng.integers(0, VOCAB, size=(6, WINDOW))
        want = engine_for(level).infer_batch(batch).probabilities
        np.testing.assert_array_equal(
            engine.infer_batch(batch).probabilities, want
        )


class TestSessionParity:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_manager_verdicts_bit_exact_with_reference(self, level):
        engine = engine_for(level)
        rng = np.random.default_rng(23)
        keys = [f"s{i}" for i in range(6)]
        tokens = rng.integers(0, VOCAB, size=(6, 3 * WINDOW))
        config = SessionConfig(stride=3)
        want = manager_verdicts(
            SessionManager(engine, config, backend="reference"), keys, tokens
        )
        got = manager_verdicts(
            SessionManager(engine, config, backend="fused"), keys, tokens
        )
        assert want and got == want

    def test_parity_under_eviction_and_restore(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(29)
        keys = [f"s{i}" for i in range(8)]
        tokens = rng.integers(0, VOCAB, size=(8, 3 * WINDOW))
        config = SessionConfig(stride=2, max_resident_sessions=3)
        want = manager_verdicts(
            SessionManager(engine, config, backend="reference"), keys, tokens
        )
        fused = SessionManager(engine, config, backend="fused")
        got = manager_verdicts(fused, keys, tokens)
        assert want and got == want
        assert fused.stats()["restores"] > 0  # the pressure was real

    def test_checkpoints_cross_backends(self):
        """A fused manager's checkpoint resumes on a reference manager
        (and back) with the verdict stream unchanged — the external
        checkpoint format is backend-neutral."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(31)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 5
        config = SessionConfig(stride=2)

        oracle = SessionManager(engine, config, backend="reference")
        want = [
            (v.window_index, v.probability)
            for t in tokens for v in [oracle.observe("p", int(t))]
            if v is not None
        ]
        for first, second in (("fused", "reference"), ("reference", "fused")):
            source = SessionManager(engine, config, backend=first)
            got = [
                (v.window_index, v.probability)
                for t in tokens[:split] for v in [source.observe("p", int(t))]
                if v is not None
            ]
            target = SessionManager(engine, config, backend=second)
            target.import_checkpoint(source.export_checkpoint("p"))
            got += [
                (v.window_index, v.probability)
                for t in tokens[split:] for v in [target.observe("p", int(t))]
                if v is not None
            ]
            assert got == want, f"{first} -> {second} checkpoint diverged"


class TestDegradation:
    def test_mid_run_overflow_degrades_to_reference(self, monkeypatch):
        """An injected ``FusedOverflow`` mid-stream converts state to the
        reference stepper exactly: the verdict stream is unchanged and
        the fallback is counted under ``overflow_guard``."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(37)
        keys = [f"s{i}" for i in range(5)]
        tokens = rng.integers(0, VOCAB, size=(5, 3 * WINDOW))
        config = SessionConfig(stride=3)
        want = manager_verdicts(
            SessionManager(engine, config, backend="reference"), keys, tokens
        )

        fused = SessionManager(engine, config, backend="fused")
        original = sessions_mod.FusedStepper.step_rows
        state = {"armed": True}

        def flaky(self, stepped):
            if state["armed"] and len(self.manager._resident) and (
                next(iter(self.manager._resident.values())).calls_seen
                > WINDOW + 2
            ):
                state["armed"] = False
                raise FusedOverflow("injected")
            return original(self, stepped)

        monkeypatch.setattr(sessions_mod.FusedStepper, "step_rows", flaky)
        got = manager_verdicts(fused, keys, tokens)
        assert want and got == want
        stats = fused.stats()
        assert stats["backend_fallbacks"].get(FALLBACK_OVERFLOW_GUARD) == 1
        assert isinstance(fused._stepper, sessions_mod.ReferenceStepper)

    def test_fallbacks_and_ticks_are_observable(self):
        from repro.telemetry import Telemetry

        engine = engine_for(OptimizationLevel.FIXED_POINT, backend="fused")
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        try:
            manager = SessionManager(engine, SessionConfig(stride=2))
            for tick in range(WINDOW):
                manager.step({"a": tick % VOCAB})
            backend = manager.backend
            backend.record_fallback("self_check_failed")
            assert backend.fallback_reasons["self_check_failed"] == 1
            assert telemetry.metrics.counter(
                METRIC_FALLBACK, reason="self_check_failed"
            ).value == 1
            assert telemetry.metrics.counter(
                METRIC_TICKS, backend=backend.name
            ).value == WINDOW
        finally:
            engine.attach_telemetry(None)


_HAS_COMPILER = shutil.which("cc") is not None or shutil.which("gcc") is not None
compiler_required = pytest.mark.skipif(
    not _HAS_COMPILER, reason="no system C compiler"
)


class TestCompiledTier:
    """The C tier shared by the inference and training fused backends."""

    def test_every_rung_disables_fp_contraction(self, monkeypatch):
        commands = []

        def failing_compiler(argv, **kwargs):
            commands.append(argv)
            return subprocess.CompletedProcess(argv, 1)

        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: "/bin/cc")
        monkeypatch.setattr(cbuild.subprocess, "run", failing_compiler)
        assert cbuild.load_c_library("int unused;") is None
        assert len(commands) == len(cbuild.FLAG_LADDER) == 3
        assert all("-ffp-contract=off" in argv for argv in commands)

    @compiler_required
    def test_builds_leave_no_directory_behind(self, monkeypatch, tmp_path):
        from repro.core.kernels.backends import _build_cc_step
        from repro.nn.kernels import _build_cc_train_steps

        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        step = _build_cc_step(4, 10**6, 1e-7)
        assert _build_cc_train_steps(4) is not None
        assert list(tmp_path.iterdir()) == []
        # The loaded library outlives its deleted build directory.
        out_h, out_c = np.empty((1, 4)), np.empty((1, 4))
        step(np.zeros((1, 16)), np.zeros(16), np.zeros((1, 4)), out_h, out_c)
        assert out_h.tolist() == [[0.0] * 4]

    @compiler_required
    def test_healthy_fused_backend_records_no_fallback(self):
        backend = build_engine(OptimizationLevel.FIXED_POINT).step_backend
        assert backend.accel_tier == "cc"
        assert backend.fallback_reasons == {}

    def test_missing_compiler_is_counted_and_stays_exact(self, monkeypatch):
        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        level = OptimizationLevel.FIXED_POINT
        engine = build_engine(level)
        backend = engine.step_backend
        assert backend.name == DEFAULT_BACKEND
        assert backend.accel_tier is None
        assert backend.fallback_reasons == {FALLBACK_JIT_ERROR: 1}
        batch = np.random.default_rng(41).integers(0, VOCAB, size=(5, WINDOW))
        np.testing.assert_array_equal(
            engine.infer_batch(batch).probabilities,
            engine_for(level).infer_batch(batch).probabilities,
        )
