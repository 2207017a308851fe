"""Streaming session subsystem tests (see ``docs/streaming.md``).

The two load-bearing properties:

* **bit-exact parity** — the incremental per-token path produces, for
  every completed window, the identical ``(window_index, probability)``
  the full-window ``infer_sequence`` recompute produces, at every
  :class:`OptimizationLevel` (hypothesis-checked over random streams);
* **bounded memory** — 10k concurrent sessions stay under a fixed byte
  budget through LRU eviction, and evicted sessions restore from their
  checkpoints bit-exactly (a restored session's subsequent verdicts
  match a never-evicted session's).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DEFAULT_BACKEND, EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.sessions import (
    EVICT_CHECKPOINT_BUDGET,
    EVICT_CLOSED,
    EVICT_IDLE,
    EVICT_LRU,
    SESSION_OVERHEAD_BYTES,
    SessionConfig,
    SessionManager,
)
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier
from repro.ransomware.detector import RansomwareDetector

WINDOW = 12
VOCAB = 278

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=7))
_ENGINES: dict = {}


def engine_for(level: OptimizationLevel,
               backend: str = DEFAULT_BACKEND) -> CSDInferenceEngine:
    engine = _ENGINES.get((level, backend))
    if engine is None:
        config = EngineConfig(
            dimensions=dataclasses.replace(
                _WEIGHTS.dimensions, sequence_length=WINDOW
            ),
            optimization=level,
            backend=backend,
        )
        engine = CSDInferenceEngine(config, _WEIGHTS)
        _ENGINES[(level, backend)] = engine
    return engine


def incremental_verdicts(manager: SessionManager, key, tokens) -> list:
    verdicts = []
    for token in tokens:
        verdict = manager.observe(key, int(token))
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts


def recompute_verdicts(level, tokens, threshold, stride) -> list:
    """Per-window ``infer_sequence`` verdicts on the reference oracle."""
    detector = RansomwareDetector(
        engine_for(level, "reference"), threshold=threshold, stride=stride
    )
    verdicts = []
    for token in tokens:
        verdict = detector.observe(int(token))
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts


class TestIncrementalParity:
    @given(
        tokens=st.lists(st.integers(min_value=0, max_value=VOCAB - 1),
                        min_size=0, max_size=40),
        stride=st.integers(min_value=1, max_value=WINDOW + 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_exact_with_recompute_at_every_level(self, tokens, stride):
        for level in OptimizationLevel:
            manager = SessionManager(
                engine_for(level), SessionConfig(stride=stride),
                backend="reference",
            )
            got = incremental_verdicts(manager, "s", tokens)
            want = recompute_verdicts(level, tokens, 0.5, stride)
            assert [(v.window_index, v.probability) for v in got] == [
                (v.window_index, v.probability) for v in want
            ]
            assert [v.is_ransomware for v in got] == [
                v.is_ransomware for v in want
            ]

    @given(
        tokens=st.lists(st.integers(min_value=0, max_value=VOCAB - 1),
                        min_size=0, max_size=40),
        stride=st.integers(min_value=1, max_value=WINDOW + 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_fused_backend_matches_infer_sequence_recompute(self, tokens, stride):
        """The fused hot path emits, for every completed window, exactly
        the ``infer_sequence`` recompute verdict — at every level."""
        for level in OptimizationLevel:
            manager = SessionManager(
                engine_for(level), SessionConfig(stride=stride), backend="fused"
            )
            got = incremental_verdicts(manager, "s", tokens)
            want = recompute_verdicts(level, tokens, 0.5, stride)
            assert [(v.window_index, v.probability) for v in got] == [
                (v.window_index, v.probability) for v in want
            ]

    def test_long_stream_every_window(self):
        """stride=1: every window of a long stream, all levels."""
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        for level in OptimizationLevel:
            manager = SessionManager(engine_for(level), SessionConfig(stride=1))
            got = incremental_verdicts(manager, "s", tokens)
            want = recompute_verdicts(level, tokens, 0.5, 1)
            assert len(got) == len(tokens) - WINDOW + 1
            assert [(v.window_index, v.probability) for v in got] == [
                (v.window_index, v.probability) for v in want
            ]

    def test_interleaved_streams_do_not_perturb_each_other(self):
        """A stream batched with 7 others scores exactly as it does alone."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(11)
        streams = {f"s{i}": rng.integers(0, VOCAB, size=2 * WINDOW)
                   for i in range(8)}
        manager = SessionManager(engine, SessionConfig(stride=3))
        batched: dict = {name: [] for name in streams}
        for step in range(2 * WINDOW):
            for verdict in manager.step(
                {name: int(tokens[step]) for name, tokens in streams.items()}
            ):
                batched[verdict.session].append(verdict)
        for name, tokens in streams.items():
            solo_manager = SessionManager(engine, SessionConfig(stride=3))
            solo = incremental_verdicts(solo_manager, name, tokens)
            assert [(v.window_index, v.probability) for v in batched[name]] == [
                (v.window_index, v.probability) for v in solo
            ]

    def test_verdict_timing_matches_analytic_model(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        manager = SessionManager(engine, SessionConfig(stride=1))
        verdicts = incremental_verdicts(
            manager, "s", np.zeros(WINDOW, dtype=np.int64)
        )
        assert verdicts[0].inference_microseconds == engine.sequence_microseconds()


class TestMemoryBudget:
    def test_10k_sessions_bounded_by_eviction(self):
        """10k concurrent streams stay under a fixed byte budget."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        config = SessionConfig(stride=WINDOW)  # ring of 1: cheapest sessions
        probe = SessionManager(engine, config)
        budget = 512 * probe.session_bytes
        manager = SessionManager(
            engine, dataclasses.replace(config, memory_budget_bytes=budget)
        )
        total = 10_000
        per_tick = 1_000
        for round_ in range(3):
            for start in range(0, total, per_tick):
                manager.step({
                    f"p{start + i}": (start + i + round_) % VOCAB
                    for i in range(per_tick)
                })
                assert manager.resident_count <= 512
                assert manager.resident_bytes <= budget
        stats = manager.stats()
        assert manager.resident_count + manager.checkpointed_count == total
        assert len(manager.known_keys()) == total
        assert stats["evictions"][EVICT_LRU] > 0
        # Rounds 2 and 3 touched evicted sessions: they restored.
        assert stats["restores"] > 0
        assert stats["tokens"] == 3 * total

    def test_budget_too_small_for_one_session_raises(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        with pytest.raises(ValueError, match="cannot hold even one"):
            SessionManager(engine, SessionConfig(memory_budget_bytes=8))

    def test_session_bytes_accounts_ring_and_overhead(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig(stride=5))
        hidden = engine.config.dimensions.hidden_size
        assert manager.ring_capacity == -(-WINDOW // 5)
        assert manager.session_bytes == (
            SESSION_OVERHEAD_BYTES + manager.ring_capacity * 2 * hidden * 8
        )


class TestCheckpointBudget:
    """The checkpoint store's *own* byte budget (distinct from the
    resident-session budget, which deliberately meters only live state)."""

    def _fill(self, manager, count, ticks=3):
        for tick in range(ticks):
            manager.step({f"p{i}": (i + tick) % VOCAB for i in range(count)})

    def test_checkpoint_bytes_metered_and_bounded(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        probe = SessionManager(engine, SessionConfig(stride=WINDOW))
        self._fill(probe, 1)
        probe.evict("p0")
        one_checkpoint = probe.checkpoint_bytes
        assert one_checkpoint > 0

        budget = 4 * one_checkpoint
        manager = SessionManager(
            engine,
            SessionConfig(stride=WINDOW, checkpoint_budget_bytes=budget),
        )
        self._fill(manager, 16)
        for i in range(16):
            manager.evict(f"p{i}")
            assert manager.checkpoint_bytes <= budget
        stats = manager.stats()
        assert stats["checkpoint_bytes"] == manager.checkpoint_bytes
        assert stats["evictions"][EVICT_CHECKPOINT_BUDGET] > 0
        # The oldest checkpoints were dropped; the newest survive.
        assert manager.checkpointed_count == 4

    def test_unbudgeted_store_counts_but_never_drops(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig(stride=WINDOW))
        self._fill(manager, 8)
        for i in range(8):
            manager.evict(f"p{i}")
        assert manager.checkpointed_count == 8
        assert manager.checkpoint_bytes > 0
        assert EVICT_CHECKPOINT_BUDGET not in manager.stats()["evictions"]

    def test_restore_releases_checkpoint_bytes(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig(stride=WINDOW))
        self._fill(manager, 1)
        manager.evict("p0")
        assert manager.checkpoint_bytes > 0
        manager.step({"p0": 1})  # restores
        assert manager.checkpoint_bytes == 0

    def test_resident_budget_ignores_checkpoint_store(self):
        """The memory-accounting bugfix: ``resident_bytes`` meters only
        resident sessions, and checkpoints never push residents out."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        config = SessionConfig(stride=WINDOW)
        probe = SessionManager(engine, config)
        budget = 4 * probe.session_bytes
        manager = SessionManager(
            engine, dataclasses.replace(config, memory_budget_bytes=budget)
        )
        self._fill(manager, 32)  # 28 sessions evicted to checkpoints
        assert manager.resident_count <= 4
        assert manager.checkpointed_count >= 28
        assert manager.resident_bytes <= budget
        # Another full round: the big checkpoint store must not shrink
        # the resident set below what the budget itself allows.
        self._fill(manager, 32)
        assert manager.resident_count == 4

    def test_checkpoint_budget_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(checkpoint_budget_bytes=0)

    def test_checkpoint_bytes_gauge_emitted(self):
        from repro.telemetry import Telemetry

        engine = engine_for(OptimizationLevel.FIXED_POINT)
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        try:
            manager = SessionManager(
                engine, SessionConfig(stride=WINDOW, max_resident_sessions=1)
            )
            self._fill(manager, 4)
            assert telemetry.metrics.gauge(
                "repro_session_checkpoint_bytes"
            ).value == manager.checkpoint_bytes > 0
        finally:
            engine.attach_telemetry(None)


class TestCheckpointRestore:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_evicted_then_restored_matches_never_evicted(self, level):
        engine = engine_for(level)
        rng = np.random.default_rng(23)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 3  # mid-stream, with partial windows in the ring

        plain = SessionManager(engine, SessionConfig(stride=2))
        want = incremental_verdicts(plain, "proc", tokens)

        evicting = SessionManager(engine, SessionConfig(stride=2))
        got = incremental_verdicts(evicting, "proc", tokens[:split])
        evicting.evict("proc")
        assert evicting.resident_count == 0
        assert evicting.checkpointed_count == 1
        got += incremental_verdicts(evicting, "proc", tokens[split:])
        assert evicting.stats()["restores"] == 1
        assert [(v.window_index, v.probability) for v in got] == [
            (v.window_index, v.probability) for v in want
        ]

    def test_checkpoint_migrates_across_managers(self):
        """Export on one manager, import on another: the stream continues."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(29)
        tokens = rng.integers(0, VOCAB, size=2 * WINDOW + 5)
        split = WINDOW + 2

        plain = SessionManager(engine, SessionConfig(stride=3))
        want = incremental_verdicts(plain, "proc", tokens)

        source = SessionManager(engine, SessionConfig(stride=3))
        got = incremental_verdicts(source, "proc", tokens[:split])
        checkpoint = source.export_checkpoint("proc")
        source.close("proc")
        target = SessionManager(engine, SessionConfig(stride=3))
        target.import_checkpoint(checkpoint)
        got += incremental_verdicts(target, "proc", tokens[split:])
        assert [(v.window_index, v.probability) for v in got] == [
            (v.window_index, v.probability) for v in want
        ]

    def test_checkpoint_does_not_alias_live_state(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        manager = SessionManager(engine, SessionConfig(stride=1))
        for token in range(5):
            manager.observe("proc", token)
        checkpoint = manager.export_checkpoint("proc")
        frozen = [slot[2].copy() for slot in checkpoint.slots]
        for token in range(5):
            manager.observe("proc", token)
        for before, after in zip(frozen, checkpoint.slots):
            np.testing.assert_array_equal(before, after[2])

    def test_import_mismatched_window_layout_rejected(self):
        """Open windows follow from ``calls_seen`` and ``stride``, so a
        checkpoint from a manager with another stride cannot be adopted."""
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        source = SessionManager(engine, SessionConfig(stride=2))
        incremental_verdicts(source, "proc", np.arange(WINDOW + 3) % VOCAB)
        checkpoint = source.export_checkpoint("proc")
        target = SessionManager(engine, SessionConfig(stride=3))
        with pytest.raises(ValueError, match="does not match"):
            target.import_checkpoint(checkpoint)
        assert "proc" not in target

    def test_import_resident_key_rejected(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig())
        manager.observe("proc", 1)
        checkpoint = manager.export_checkpoint("proc")
        with pytest.raises(ValueError, match="already resident"):
            manager.import_checkpoint(checkpoint)


class TestLifecycle:
    def test_idle_sessions_evicted(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(
            engine, SessionConfig(stride=1, idle_after_steps=3)
        )
        manager.observe("sleepy", 5)
        for tick in range(4):
            manager.observe("busy", tick)
        stats = manager.stats()
        assert stats["evictions"] == {EVICT_IDLE: 1}
        assert manager.resident_count == 1
        assert manager.checkpointed_count == 1  # checkpointed, not lost

    def test_close_drops_state_and_restarts_stream(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig(stride=1))
        tokens = np.arange(WINDOW) % VOCAB
        first = incremental_verdicts(manager, "proc", tokens)
        assert len(first) == 1 and first[0].window_index == 0
        manager.close("proc")
        assert manager.known_keys() == ()
        assert manager.stats()["evictions"] == {EVICT_CLOSED: 1}
        again = incremental_verdicts(manager, "proc", tokens)
        assert len(again) == 1 and again[0].window_index == 0
        assert again[0].probability == first[0].probability

    def test_close_unknown_key_raises(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig())
        with pytest.raises(KeyError):
            manager.close("ghost")

    def test_early_exit_stops_stepping_flagged_sessions(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        rng = np.random.default_rng(31)
        tokens = rng.integers(0, VOCAB, size=4 * WINDOW)
        # A threshold below any sigmoid output: the first window flags.
        manager = SessionManager(
            engine, SessionConfig(stride=1, threshold=1e-9, early_exit=True)
        )
        verdicts = incremental_verdicts(manager, "proc", tokens)
        assert len(verdicts) == 1  # flagged at the first window, then muted
        stats = manager.stats()
        assert stats["early_exits"] == 1
        assert stats["tokens_dropped"] == len(tokens) - WINDOW
        # Without early_exit the same stream keeps producing verdicts.
        noisy = SessionManager(
            engine, SessionConfig(stride=1, threshold=1e-9, early_exit=False)
        )
        assert len(incremental_verdicts(noisy, "proc", tokens)) == (
            len(tokens) - WINDOW + 1
        )

    def test_ring_never_exceeds_capacity(self):
        engine = engine_for(OptimizationLevel.VANILLA)
        manager = SessionManager(engine, SessionConfig(stride=4))
        for token in range(5 * WINDOW):
            manager.observe("proc", token % VOCAB)
            slots = manager.export_checkpoint("proc").slots
            assert len(slots) <= manager.ring_capacity

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SessionConfig(stride=0)
        with pytest.raises(ValueError):
            SessionConfig(memory_budget_bytes=0)
        with pytest.raises(ValueError):
            SessionConfig(max_resident_sessions=0)
        with pytest.raises(ValueError):
            SessionConfig(idle_after_steps=0)


class TestTelemetry:
    def test_session_metrics_and_step_span(self):
        from repro.telemetry import Telemetry

        engine = engine_for(OptimizationLevel.FIXED_POINT)
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        try:
            manager = SessionManager(
                engine, SessionConfig(stride=1, max_resident_sessions=1)
            )
            for token in range(WINDOW):
                manager.step({"a": token, "b": token})
            metrics = telemetry.metrics
            assert metrics.counter("repro_session_steps_total").value == WINDOW
            assert metrics.counter("repro_session_tokens_total").value == 2 * WINDOW
            assert metrics.counter(
                "repro_session_slot_steps_total"
            ).value == manager.stats()["slot_steps"]
            verdicts = manager.stats()["verdicts"]
            total_verdicts = sum(
                metrics.counter("repro_session_verdicts_total", verdict=label).value
                for label in ("ransomware", "benign")
                if verdicts.get(label)
            )
            assert total_verdicts == sum(verdicts.values()) > 0
            assert metrics.counter(
                "repro_session_evictions_total", reason=EVICT_LRU
            ).value == manager.stats()["evictions"][EVICT_LRU]
            assert metrics.counter("repro_session_restores_total").value == (
                manager.stats()["restores"]
            )
            assert metrics.gauge("repro_session_resident").value == 1
            assert metrics.gauge("repro_session_state_bytes").value == (
                manager.session_bytes
            )
            spans = [s for s in telemetry.tracer.roots if s.name == "session.step"]
            assert len(spans) == WINDOW
            assert spans[0].attributes["sessions"] == 2
        finally:
            engine.attach_telemetry(None)
