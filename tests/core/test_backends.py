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
from repro.core.kernels import backends as backends_mod
from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import (
    DEFAULT_BACKEND,
    FALLBACK_JIT_ERROR,
    FALLBACK_OVERFLOW_GUARD,
    FALLBACK_SELF_CHECK,
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
        """An injected ``FusedOverflow`` mid-stream hands the tick to the
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
        calls = {"fused": 0, "injected": 0}

        def flaky(self, *args):
            calls["fused"] += 1
            if fused.stats()["steps"] == WINDOW + 2:
                calls["injected"] += 1
                raise FusedOverflow("injected")
            return original(self, *args)

        monkeypatch.setattr(sessions_mod.FusedStepper, "step_rows", flaky)
        got = manager_verdicts(fused, keys, tokens)
        assert calls["injected"] == 1
        assert want and got == want
        stats = fused.stats()
        assert stats["backend_fallbacks"].get(FALLBACK_OVERFLOW_GUARD) == 1
        # The fused math ran up to the injected tick and never again.
        assert calls["fused"] == WINDOW + 3

    def test_import_outside_fused_envelope_degrades(self):
        """A checkpoint whose state lies outside the fused exactness
        envelope (here a hidden state above ``scale``, which no LSTM step
        produces) degrades the importing fused manager to the reference
        math (counted) on its first step, before the fused step runs."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(41)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 1
        config = SessionConfig(stride=2)
        source = SessionManager(engine, config, backend="reference")
        for token in tokens[:split]:
            source.observe("p", int(token))
        checkpoint = source.export_checkpoint("p")
        scale = engine_for(
            OptimizationLevel.FIXED_POINT, backend="fused"
        ).step_backend.fused_math.scale
        start, filled, hidden, cell = checkpoint.slots[0]
        wide = dataclasses.replace(checkpoint, slots=(
            (start, filled, hidden + 4 * scale, cell),
        ) + checkpoint.slots[1:])

        got = {}
        for backend in ("reference", "fused"):
            target = SessionManager(engine, config, backend=backend)
            target.import_checkpoint(wide)
            got[backend] = [
                (v.window_index, v.probability)
                for t in tokens[split:] for v in [target.observe("p", int(t))]
                if v is not None
            ]
        assert got["reference"] and got["fused"] == got["reference"]
        assert target.stats()["backend_fallbacks"] == {FALLBACK_OVERFLOW_GUARD: 1}

    def test_real_cell_overflow_leaves_arena_untouched(self, monkeypatch):
        """A new cell that really crosses the guard (an imported
        checkpoint near the limit, forget and input gates saturated)
        makes the fused tick write nothing: the reference re-run starts
        from the same arena bytes and ``calls_seen``, the fallback is
        counted, and every verdict matches the reference manager and,
        for the untouched windows, ``infer_batch``."""
        hot = HostWeights(
            _WEIGHTS.embedding,
            {name: dataclasses.replace(
                gate, bias=gate.bias + (12.0 if name in ("i", "f", "c") else 0.0)
            ) for name, gate in _WEIGHTS.gates.items()},
            _WEIGHTS.fc_weights, _WEIGHTS.fc_bias,
        )
        config = EngineConfig(
            dimensions=dataclasses.replace(hot.dimensions, sequence_length=WINDOW),
            optimization=OptimizationLevel.FIXED_POINT,
            backend="reference",
        )
        engine = CSDInferenceEngine(config, hot)
        rng = np.random.default_rng(43)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 1
        session_config = SessionConfig(stride=2)
        source = SessionManager(engine, session_config)
        for token in tokens[:split]:
            source.observe("p", int(token))
        checkpoint = source.export_checkpoint("p")

        fused = SessionManager(engine, session_config, backend="fused")
        fused_math = fused.backend.fused_math
        assert fused.backend.accel_tier in (None, "cc")
        # The oldest window completes on the next token, from a cell a
        # quarter of a unit under the guard: it must cross it.
        start, filled, hidden, cell = checkpoint.slots[0]
        near = np.full_like(cell, int(fused_math.cell_limit) - fused_math.scale // 4)
        near_limit = dataclasses.replace(checkpoint, slots=(
            (start, filled, hidden, near),
        ) + checkpoint.slots[1:])

        arenas, raised = [], []
        fused_step = sessions_mod.FusedStepper.step_rows
        reference_step = sessions_mod.ReferenceStepper.step_rows

        def fused_spy(self, arena, *args):
            arenas.append((arena.calls.copy(), arena.h.copy(), arena.c.copy()))
            try:
                return fused_step(self, arena, *args)
            except FusedOverflow:
                raised.append(True)
                raise

        def reference_spy(self, arena, *args):
            arenas.append((arena.calls.copy(), arena.h.copy(), arena.c.copy()))
            return reference_step(self, arena, *args)

        monkeypatch.setattr(sessions_mod.FusedStepper, "step_rows", fused_spy)
        monkeypatch.setattr(sessions_mod.ReferenceStepper, "step_rows",
                            reference_spy)
        got = {}
        for manager in (fused, SessionManager(engine, session_config)):
            manager.import_checkpoint(near_limit)
            got[manager.backend.name] = [
                (v.window_index, v.probability)
                for t in tokens[split:] for v in [manager.observe("p", int(t))]
                if v is not None
            ]
        assert raised == [True]
        before, rerun = arenas[0], arenas[1]
        for was, now in zip(before, rerun):
            np.testing.assert_array_equal(now, was)
        assert fused.stats()["backend_fallbacks"] == {FALLBACK_OVERFLOW_GUARD: 1}
        assert got["fused"] and got["fused"] == got["reference"]
        assert got["fused"][0][0] == start
        untouched = [(index, p) for index, p in got["fused"] if index > start]
        windows = np.array([tokens[i:i + WINDOW] for i, _ in untouched])
        np.testing.assert_array_equal(
            [p for _, p in untouched], engine.infer_batch(windows).probabilities
        )

    def test_bad_token_raises_same_error_on_both_steppers(self):
        """An out-of-range token raises the embedding kernel's
        ``ValueError`` through ``SessionManager.step`` on the fused and
        the reference manager alike, with no stream advanced and no
        fallback counted."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        tokens = np.random.default_rng(47).integers(0, VOCAB, size=WINDOW)
        errors = {}
        for backend in ("reference", "fused"):
            manager = SessionManager(engine, SessionConfig(stride=2),
                                     backend=backend)
            for token in tokens:
                manager.step({"p": int(token), "q": int(token)})
            before = [manager.export_checkpoint(key) for key in ("p", "q")]
            with pytest.raises(ValueError) as raised:
                manager.step({"p": 5, "q": VOCAB + 3})
            errors[backend] = str(raised.value)
            after = [manager.export_checkpoint(key) for key in ("p", "q")]
            assert [cp.calls_seen for cp in after] == [WINDOW, WINDOW]
            for was, now in zip(before, after):
                assert [(s, f, h.tolist(), c.tolist()) for s, f, h, c in now.slots] == [
                    (s, f, h.tolist(), c.tolist()) for s, f, h, c in was.slots
                ]
            assert manager.stats()["backend_fallbacks"] == {}
        assert errors["fused"] == errors["reference"] == (
            f"token id {VOCAB + 3} out of range [0, {VOCAB})"
        )

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
        step, _ = _build_cc_step(4, 2, 10**6, 1e-7)
        assert _build_cc_train_steps(4) is not None
        assert list(tmp_path.iterdir()) == []
        # The loaded library outlives its deleted build directory.
        pre, bias, c = np.zeros((1, 16)), np.zeros(16), np.zeros((1, 4))
        out_h, out_c = np.empty((1, 4)), np.empty((1, 4))
        step(pre.ctypes.data, bias.ctypes.data, c.ctypes.data,
             out_h.ctypes.data, out_c.ctypes.data, 1)
        assert out_h.tolist() == [[0.0] * 4]

    @compiler_required
    def test_healthy_fused_backend_records_no_fallback(self):
        backend = build_engine(OptimizationLevel.FIXED_POINT).step_backend
        assert backend.accel_tier == "cc"
        assert backend.fallback_reasons == {}

    @staticmethod
    def _render_broken(monkeypatch, correct: str, wrong: str) -> None:
        """Render the fused C source with ``correct`` replaced by ``wrong``."""
        render = backends_mod._render_cc_step

        def broken(*args):
            source = render(*args)
            assert correct in source
            return source.replace(correct, wrong)

        monkeypatch.setattr(cbuild, "_LIBRARIES", {})
        monkeypatch.setattr(backends_mod, "_render_cc_step", broken)

    @compiler_required
    def test_broken_session_tick_fails_self_check(self, monkeypatch):
        """A compiled tick that reads stale ring state into fresh windows
        fails the build-time self-check: the compiled tier is rejected
        (``self_check_failed``, counted once) and the sessions run the
        reference math, bit-exact."""
        self._render_broken(monkeypatch, "const int64_t keep = !fresh[w];",
                            "const int64_t keep = 1;")
        level = OptimizationLevel.FIXED_POINT
        engine = build_engine(level)
        backend = engine.step_backend
        assert backend.accel_tier is None
        assert backend.fallback_reasons == {FALLBACK_SELF_CHECK: 1}
        rng = np.random.default_rng(53)
        keys = [f"s{i}" for i in range(4)]
        tokens = rng.integers(0, VOCAB, size=(4, 3 * WINDOW))
        config = SessionConfig(stride=3, max_resident_sessions=2)
        want = manager_verdicts(
            SessionManager(engine_for(level), config, backend="reference"),
            keys, tokens,
        )
        manager = SessionManager(engine, config)
        got = manager_verdicts(manager, keys, tokens)
        assert want and got == want
        assert manager.stats()["backend_fallbacks"] == {FALLBACK_SELF_CHECK: 1}

    @compiler_required
    def test_wrong_rescale_rounding_fails_self_check(self, monkeypatch):
        """A chain whose matmul rescale rounds half-exact values down
        instead of away from zero differs from the reference only on the
        ``k*scale ± half`` edges, which random inputs almost never hit;
        the self-check's edge probe rejects it."""
        self._render_broken(monkeypatch, "floor((fabs(p[k]) + ",
                            "floor((fabs(p[k]) - 1.0 + ")
        level = OptimizationLevel.FIXED_POINT
        engine = build_engine(level)
        assert engine.step_backend.fallback_reasons == {FALLBACK_SELF_CHECK: 1}
        batch = np.random.default_rng(59).integers(0, VOCAB, size=(4, WINDOW))
        np.testing.assert_array_equal(
            engine.infer_batch(batch).probabilities,
            engine_for(level).infer_batch(batch).probabilities,
        )

    def test_missing_compiler_is_counted_and_stays_exact(self, monkeypatch):
        """Without a compiler the fused engine runs reference math for
        inference and sessions alike, bit for bit, and counts
        ``jit_error`` once."""
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
        keys = [f"s{i}" for i in range(3)]
        tokens = np.random.default_rng(43).integers(0, VOCAB, size=(3, 2 * WINDOW))
        config = SessionConfig(stride=2)
        want = manager_verdicts(
            SessionManager(engine_for(level), config, backend="reference"),
            keys, tokens,
        )
        manager = SessionManager(engine, config)
        assert want and manager_verdicts(manager, keys, tokens) == want
        assert manager.stats()["backend_fallbacks"] == {FALLBACK_JIT_ERROR: 1}
