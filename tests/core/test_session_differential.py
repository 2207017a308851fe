"""Differential test of the session arena across kernel backends.

Generated schedules (stride, window, idle horizon, LRU cap, checkpoint
budget, early exit, mid-run ``release`` → ``import_checkpoint`` between
a ``fused`` and a ``reference`` manager, and a ``FusedOverflow``
injected mid-run) run twice: once with the fused manager as the primary
device and once with the roles swapped.  Both runs must emit the same
verdicts, every verdict must equal the reference engine's
``infer_batch`` on its window, every window that completes must produce
exactly one verdict, and each role's ``stats()`` (evictions by reason,
restores, checkpoint bytes, slot steps, ...) and exported checkpoints
must be identical across the two runs.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import sessions as sessions_mod
from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import FALLBACK_OVERFLOW_GUARD, FusedOverflow
from repro.core.sessions import SessionConfig, SessionManager
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier

VOCAB = 278
STREAMS = 5
_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=11))
_ENGINES: dict = {}


def engine_for(window: int, backend: str) -> CSDInferenceEngine:
    engine = _ENGINES.get((window, backend))
    if engine is None:
        engine = _ENGINES[(window, backend)] = CSDInferenceEngine(
            EngineConfig(
                dimensions=dataclasses.replace(
                    _WEIGHTS.dimensions, sequence_length=window
                ),
                optimization=OptimizationLevel.FIXED_POINT,
                backend=backend,
            ),
            _WEIGHTS,
        )
    return engine


@st.composite
def schedules(draw):
    window = draw(st.sampled_from((3, 5, 8)))
    config = SessionConfig(
        threshold=draw(st.sampled_from((0.3, 0.5, 0.7))),
        stride=draw(st.integers(1, window + 1)),
        max_resident_sessions=draw(st.none() | st.integers(1, 4)),
        idle_after_steps=draw(st.none() | st.integers(1, 4)),
        checkpoint_budget_bytes=draw(st.none() | st.integers(256, 6000)),
        early_exit=draw(st.booleans()),
    )
    ticks = draw(st.lists(
        st.dictionaries(st.integers(0, STREAMS - 1),
                        st.integers(0, VOCAB - 1), min_size=1, max_size=STREAMS),
        min_size=window, max_size=30,
    ))
    # (tick, stream): move the stream to the other device before the tick.
    moves = draw(st.lists(
        st.tuples(st.integers(0, len(ticks) - 1), st.integers(0, STREAMS - 1)),
        max_size=6,
    ))
    # The fused step call that raises FusedOverflow (0: none does).
    overflow_at = draw(st.integers(0, 2 * len(ticks)))
    return window, config, ticks, moves, overflow_at


def run_schedule(window, config, ticks, moves, overflow_at, backends):
    """Drive two managers (``backends`` = their backends) through a schedule.

    Streams start on manager 0 and switch device at each move.  Returns
    the verdicts per tick and manager, every manager's stats with the
    backend fields removed, their exported checkpoints, and what the
    oracle needs: for each verdict the window of tokens it classified.
    """
    managers = [SessionManager(engine_for(window, backend), config)
                for backend in backends]
    owner = {stream: 0 for stream in range(STREAMS)}
    # The tokens each stream's current session has consumed, and whether
    # it is flagged; reset when the session is dropped.
    consumed = {stream: [] for stream in range(STREAMS)}
    flagged = {stream: False for stream in range(STREAMS)}
    log, windows = [], []
    original = sessions_mod.FusedStepper.step_rows
    fused_calls = [0]
    injected = []
    fused_backend = engine_for(window, "fused").step_backend
    degrades = fused_backend.fallback_reasons.get(FALLBACK_OVERFLOW_GUARD, 0)

    def flaky(self, *args):
        fused_calls[0] += 1
        if fused_calls[0] == overflow_at:
            injected.append(fused_calls[0])
            raise FusedOverflow("injected")
        return original(self, *args)

    def forget_dropped():
        for stream in range(STREAMS):
            if consumed[stream] and not any(stream in m for m in managers):
                consumed[stream] = []   # checkpoint dropped: restart
                flagged[stream] = False

    with mock.patch.object(sessions_mod.FusedStepper, "step_rows", flaky):
        for tick, tokens in enumerate(ticks):
            for at, stream in moves:
                if at != tick:
                    continue
                source, target = owner[stream], 1 - owner[stream]
                if stream in managers[source]:
                    managers[target].import_checkpoint(
                        managers[source].release(stream)
                    )
                owner[stream] = target
            forget_dropped()
            stepped = set()
            for stream, token in tokens.items():
                if not (config.early_exit and flagged[stream]):
                    consumed[stream].append(token)
                    stepped.add(stream)
            for index, manager in enumerate(managers):
                batch = {s: t for s, t in tokens.items() if owner[s] == index}
                verdicts = manager.step(batch)
                seen = {v.session for v in verdicts}
                assert len(seen) == len(verdicts), "one verdict per stream"
                for stream in batch:
                    filled = len(consumed[stream]) - window
                    due = (stream in stepped and filled >= 0
                           and filled % config.stride == 0)
                    assert (stream in seen) == due, (tick, stream)
                for verdict in verdicts:
                    stream_tokens = consumed[verdict.session]
                    start = verdict.window_index
                    assert start + window == len(stream_tokens)
                    windows.append(stream_tokens[start:])
                    flagged[verdict.session] |= verdict.is_ransomware
                log.append([(index, v.session, v.window_index, v.probability,
                             v.is_ransomware) for v in verdicts])
            forget_dropped()

    # The injection fired on the call the manager makes each tick, and
    # the manager counted that one degradation.
    assert len(injected) == (0 < overflow_at <= fused_calls[0])
    assert fused_backend.fallback_reasons.get(
        FALLBACK_OVERFLOW_GUARD, 0) - degrades == len(injected)

    stats = []
    checkpoints = []
    for manager in managers:
        row = manager.stats()
        del row["backend"], row["backend_fallbacks"]
        stats.append(row)
        checkpoints.append([
            (cp.key, cp.calls_seen, cp.flagged, cp.windows_classified,
             [(start, filled, h.tolist(), c.tolist())
              for start, filled, h, c in cp.slots])
            for cp in map(manager.export_checkpoint, manager.known_keys())
        ])
    return log, stats, checkpoints, windows


@given(schedule=schedules())
@settings(max_examples=100, deadline=None)
def test_fused_and_reference_arenas_agree(schedule):
    window, config, ticks, moves, overflow_at = schedule
    first = run_schedule(window, config, ticks, moves, overflow_at,
                         ("fused", "reference"))
    second = run_schedule(window, config, ticks, moves, overflow_at,
                          ("reference", "fused"))
    log, stats, checkpoints, windows = first
    assert second[0] == log
    assert second[1] == stats
    assert second[2] == checkpoints

    verdicts = [entry for tick in log for entry in tick]
    assert len(verdicts) == len(windows)
    if windows:
        oracle = engine_for(window, "reference").infer_batch(
            np.array(windows, dtype=np.int64)
        ).probabilities
        for (_, _, _, probability, label), want in zip(verdicts, oracle):
            assert probability == want
            assert label == (want >= config.threshold)
