"""Streaming sessions: stateful incremental inference for live streams.

The paper's deployment story is continuous in-drive monitoring of live
I/O — a stream of API calls per process, classified over overlapping
sliding windows.  Re-running :meth:`~repro.core.engine.CSDInferenceEngine.infer_sequence`
over the whole window at every stride gives O(window) recompute *bursts*
per verdict and no way to batch across streams.  This module is the
online-serving answer: :class:`SessionManager` carries the LSTM
``(h, C)`` state of every open stride window of every stream **per
token**, so each arriving token advances every open window by a single
step, and it steps many streams per tick through one batched call.

All per-stream state lives in one struct-of-arrays arena per manager
(one row per stream; see ``docs/streaming.md``):

* columns ``calls_seen``, ``flagged``, ``windows_classified`` and
  ``last_tick``;
* ``h``/``c`` blocks of shape ``(rows, ring_capacity, H)``.  Window
  starts are the multiples of ``stride``, so which windows are open, and
  how full each is (``calls_seen - start``), follows from ``calls_seen``
  alone; window ``start`` lives in ring position
  ``(start // stride) % ring_capacity``.

A tick is one stepper call on the arena.  With the ``fused`` backend
that is one C call, which derives the open windows, gathers, checks,
steps, scatters and classifies; the reference stepper gathers the open
windows in NumPy, runs the kernels and scatters.  The
manager keeps two tiers over the same rows: **resident** streams (LRU
order, bounded by the memory budget) and the **checkpoint store** (the
cold tier a real CSD would spill to, FIFO order, bounded by
``checkpoint_budget_bytes``).  Eviction and restore move a stream's row
between the tiers without copying its state.

The math is the engine's **kernel backend**
(:mod:`repro.core.kernels.backends`): :class:`ReferenceStepper` runs the
per-kernel NumPy pipeline (the oracle), :class:`FusedStepper` the
compiled fixed-point tick.  Both are **bit-exact** with ``infer_sequence`` on the
same window at every :class:`~repro.core.config.OptimizationLevel`: a
window stepped token by token inside an arbitrary batch of other streams
produces the identical probability to a fresh full-window recompute.
See ``docs/performance.md`` for the backend registry.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels.backends import (
    FALLBACK_OVERFLOW_GUARD,
    FusedOverflow,
    METRIC_TICKS,
    resolve_backend,
)
from repro.core.kernels.base import KernelTiming
from repro.hw.clock import ClockDomain
from repro.hw.dataflow import StageTiming, schedule

#: Fixed per-session bookkeeping estimate (index entries, columns) on
#: top of the ring's state arrays; used by the memory budget.
SESSION_OVERHEAD_BYTES = 256

#: Eviction reasons (the ``reason`` label of
#: ``repro_session_evictions_total``).
EVICT_LRU = "lru"
EVICT_IDLE = "idle"
EVICT_CLOSED = "closed"
EVICT_MIGRATED = "migrated"
EVICT_CHECKPOINT_BUDGET = "checkpoint_budget"

_NO_PROBABILITIES = np.zeros(0, dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Policy knobs of a :class:`SessionManager`.

    Parameters
    ----------
    threshold:
        Ransomware probability above which a completed window raises a
        positive verdict (same semantics as the offline detector).
    stride:
        Open a new window every ``stride`` tokens (1 = classify every
        window, as in :class:`~repro.ransomware.detector.RansomwareDetector`).
    memory_budget_bytes:
        Bound on resident session state; exceeding it evicts the least
        recently stepped sessions to the checkpoint store (``None`` =
        unbounded).  Must hold at least one session.
    max_resident_sessions:
        Direct cap on resident sessions (``None`` = derived from the
        byte budget only).  The effective cap is the minimum of both.
    idle_after_steps:
        Evict a session once this many manager ticks pass without it
        receiving a token (``None`` = never).  Evicted state is
        checkpointed, not lost — an idle process that wakes up restores
        transparently.
    checkpoint_budget_bytes:
        Bound on the checkpoint store's bytes (``None`` = unbounded).
        When exceeded, the **oldest** checkpoints are dropped outright
        (counted as ``checkpoint_budget`` evictions) until the store
        fits — a stream whose checkpoint was dropped restarts fresh on
        its next token.  Without this bound the store of evicted/idle
        sessions grows without limit, silently defeating the memory
        budget it backs.
    early_exit:
        Once a session raises a ransomware verdict, stop stepping it:
        subsequent tokens are dropped without inference until the
        session is reset or closed.  Off by default (parity with the
        recompute detector, which keeps classifying).
    """

    threshold: float = 0.5
    stride: int = 1
    memory_budget_bytes: int | None = None
    max_resident_sessions: int | None = None
    idle_after_steps: int | None = None
    checkpoint_budget_bytes: int | None = None
    early_exit: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")
        if self.max_resident_sessions is not None and self.max_resident_sessions < 1:
            raise ValueError("max_resident_sessions must be >= 1")
        if self.idle_after_steps is not None and self.idle_after_steps < 1:
            raise ValueError("idle_after_steps must be >= 1")
        if self.checkpoint_budget_bytes is not None and self.checkpoint_budget_bytes < 1:
            raise ValueError("checkpoint_budget_bytes must be positive")


@dataclasses.dataclass(frozen=True)
class SessionVerdict:
    """One completed window's classification for one stream."""

    session: object          # the session key (process id, stream name, ...)
    window_index: int        # 0 = the stream's first fully-formed window
    probability: float
    is_ransomware: bool
    inference_microseconds: float


@dataclasses.dataclass(frozen=True)
class SessionCheckpoint:
    """The complete restorable state of one session, for migration.

    The backend-neutral hand-off format of :meth:`SessionManager.export_checkpoint`,
    :meth:`~SessionManager.import_checkpoint` and :meth:`~SessionManager.release`.
    Slots are ``(start, filled, hidden, cell)`` tuples, oldest window
    first, holding *copies* of the arena rows, so a checkpoint can never
    alias live state.  State is stored in the engine's external dtype
    (int64 fixed-point, float64 otherwise), so a checkpoint exported from
    a ``fused`` manager restores into a ``reference`` one and vice versa,
    and the stream continues bit-identically (asserted by
    ``tests/core/test_sessions.py``).
    """

    key: object
    calls_seen: int
    flagged: bool
    windows_classified: int
    slots: tuple

    @property
    def nbytes(self) -> int:
        """Approximate retained size (state arrays + bookkeeping)."""
        state = sum(
            np.asarray(hidden).nbytes + np.asarray(cell).nbytes
            for _, _, hidden, cell in self.slots
        )
        return SESSION_OVERHEAD_BYTES + state


class SessionArena:
    """One manager's per-stream state, struct-of-arrays (``docs/streaming.md``).

    Each held stream owns one row: columns ``calls`` (tokens consumed),
    ``flagged``, ``windows`` (windows classified) and ``last_tick``, and
    ``h``/``c`` blocks of shape ``(rows, ring_capacity, H)`` holding the
    state of its open windows.  Window starts are the multiples of
    ``stride``; window ``start`` lives in ring position
    ``(start // stride) % ring_capacity``.  The arrays are reallocated
    only by :meth:`grow`.
    """

    def __init__(self, window_length: int, stride: int, hidden_size: int,
                 dtype, rows: int = 16):
        self.window_length = window_length
        self.stride = stride
        self.ring_capacity = math.ceil(window_length / stride)
        #: Ring offsets from the newest window back, oldest first.
        self.ring_offsets = np.arange(1 - self.ring_capacity, 1)
        self.free: list = []  # rows freed below the high-water mark
        self.high_water = 0
        self.calls = np.zeros(rows, dtype=np.int64)
        self.flagged = np.zeros(rows, dtype=bool)
        self.windows = np.zeros(rows, dtype=np.int64)
        self.last_tick: list = [0] * rows  # read per key by the idle scan
        self.h = np.zeros((rows, self.ring_capacity, hidden_size), dtype=dtype)
        self.c = np.zeros_like(self.h)
        #: The compiled tick's view of the arrays, built on its first
        #: tick after each allocation.
        self.kernel_view = None

    def grow(self) -> None:
        """Double the rows."""
        rows = len(self.calls)
        for name in ("calls", "flagged", "windows", "h", "c"):
            old = getattr(self, name)
            new = np.zeros((2 * rows,) + old.shape[1:], dtype=old.dtype)
            new[:rows] = old
            setattr(self, name, new)
        self.last_tick.extend([0] * rows)
        self.kernel_view = None

    def new_row(self, calls_seen: int = 0, flagged: bool = False,
                windows_classified: int = 0) -> int:
        """A free row holding these columns (ring state is zeroed as windows open)."""
        if self.free:
            row = self.free.pop()
        else:
            if self.high_water == len(self.calls):
                self.grow()
            row = self.high_water
            self.high_water += 1
        self.calls[row] = calls_seen
        self.flagged[row] = flagged
        self.windows[row] = windows_classified
        return row

    def slot_starts(self, calls_seen: int) -> range:
        """Starts of the windows open after ``calls_seen`` tokens, oldest first."""
        stride = self.stride
        first = max(0, calls_seen - self.window_length + 1)
        return range(-(-first // stride) * stride, calls_seen, stride)

    def ring_position(self, start: int) -> int:
        """Ring position of the window that starts at token ``start``."""
        return (start // self.stride) % self.ring_capacity


class ReferenceStepper:
    """The oracle math: the engine's per-kernel NumPy pipeline.

    Its kernel call sequence (embed, stacked gates, hidden-state step,
    FC head on the completed rows) and rounding are the bit-exactness
    baseline every other stepper is measured against; they must not
    drift.
    """

    def __init__(self, engine):
        self.engine = engine

    def step_rows(self, arena: SessionArena, rows: np.ndarray,
                  token_ids: np.ndarray) -> tuple:
        """One tick: step every open window of ``rows``, in place.

        ``rows`` are arena rows and ``token_ids`` their tokens (int64,
        one per stream).  Every token is embedded (a bad one raises the
        embedding kernel's ``ValueError`` with the arena untouched), then
        every open window steps by one token, stream-major, oldest
        window first, and the new state is scattered and ``calls``
        advanced.  A window opens with zero state when ``calls_seen`` is
        a multiple of ``stride`` and completes once it holds
        ``window_length`` tokens.  Returns ``(stepped, done,
        probabilities)``: window rows stepped, the indexes into ``rows``
        whose window completed, and one probability each.
        """
        engine = self.engine
        embedded = engine.preprocess.run_batch(token_ids)
        stride = arena.stride
        window = arena.window_length
        ring_capacity = arena.ring_capacity
        calls = arena.calls[rows]
        # Per ring position, oldest window first: start // stride, fill.
        index = (calls // stride)[:, None] + arena.ring_offsets
        filled = calls[:, None] - index * stride
        live = (index >= 0) & (filled < window)
        owner = np.nonzero(live)[0]
        if not owner.size:
            arena.calls[rows] = calls + 1
            return 0, owner, _NO_PROBABILITIES
        filled = filled[live]
        slots = ((rows * ring_capacity)[:, None] + index % ring_capacity)[live]
        hidden_size = arena.h.shape[-1]
        h_slots = arena.h.reshape(-1, hidden_size)
        c_slots = arena.c.reshape(-1, hidden_size)
        h = h_slots.take(slots, axis=0)
        c = c_slots.take(slots, axis=0)
        fresh = filled == 0
        h[fresh] = 0
        c[fresh] = 0
        done = np.flatnonzero(filled == window - 1)
        gate_outputs = engine.gates.run_batch(h, embedded[owner])
        new_h, new_c = engine.hidden_state.step_batch(gate_outputs, c)
        probabilities = (engine.hidden_state.classify_batch(new_h[done])
                         if done.size else _NO_PROBABILITIES)
        h_slots[slots] = new_h
        c_slots[slots] = new_c
        arena.calls[rows] = calls + 1
        return len(owner), owner[done], probabilities


class FusedStepper:
    """The compiled fixed-point tick (the ``fused`` backend's math).

    The whole tick is one C call on the arena
    (:meth:`~repro.core.kernels.backends._FusedFixedMath.session_tick`).
    It raises :class:`~repro.core.kernels.backends.FusedOverflow` (arena
    untouched) when an input window lies outside the exactness envelope
    (an imported checkpoint can carry any state) or a new cell crosses
    the guard; the manager then swaps in :class:`ReferenceStepper` and
    re-runs the tick on the same arena rows.
    """

    def __init__(self, fused_math):
        self.math = fused_math

    def step_rows(self, arena: SessionArena, rows: np.ndarray,
                  token_ids: np.ndarray) -> tuple:
        """Same contract as :meth:`ReferenceStepper.step_rows`."""
        return self.math.session_tick(arena, rows, token_ids)


class SessionManager:
    """Batched stepping, memory budgeting, and lifecycle for many sessions.

    Parameters
    ----------
    engine:
        A loaded :class:`~repro.core.engine.CSDInferenceEngine`; the
        manager reuses its preprocess/gates/hidden-state kernels (and
        its live ``telemetry`` reference) for every step.
    config:
        Session policy; see :class:`SessionConfig`.
    backend:
        Kernel backend name for the stepping hot path (``"reference"``
        or ``"fused"``); ``None`` uses the engine's configured backend.
        See :mod:`repro.core.kernels.backends`.

    The manager keeps two tiers of state over one arena:

    * **resident** sessions — stepped in batch, bounded by the memory
      budget, evicted least recently stepped first;
    * the **checkpoint store** — evicted state, the "storage tier" a
      real CSD would spill to; restoring from it is transparent and
      bit-exact.  Its bytes are tracked (``checkpoint_bytes``) and
      optionally bounded by ``checkpoint_budget_bytes``, oldest dropped
      first.

    Stepping never touches the engine's sequence/AXI counters: the
    incremental path is a different execution model from the per-window
    recompute, and it reports its own ``repro_session_*`` metrics
    (see ``docs/observability.md``).
    """

    def __init__(self, engine, config: SessionConfig | None = None,
                 backend: str | None = None):
        self.engine = engine
        self.config = config or SessionConfig()
        engine._require_loaded()
        dims = engine.config.dimensions
        self.window_length = dims.sequence_length
        self.ring_capacity = math.ceil(self.window_length / self.config.stride)
        self._hidden_size = dims.hidden_size
        self._dtype = (
            np.int64 if engine.config.optimization.uses_fixed_point
            else np.float64
        )
        bytes_per_value = 8
        self._slot_bytes = 2 * self._hidden_size * bytes_per_value
        self.session_bytes = (
            SESSION_OVERHEAD_BYTES + self.ring_capacity * self._slot_bytes
        )
        self._max_resident = self._effective_cap()
        self._sequence_microseconds = engine.sequence_microseconds()

        backend_name = backend if backend is not None else engine.config.backend
        if backend_name == engine.config.backend:
            self.backend = engine.step_backend
        else:
            self.backend = resolve_backend(backend_name, engine)
        self._stepper = self.backend.session_stepper()

        # The arena.  Each held key owns one row; the two index dicts
        # keep the tier orders (resident: least recently stepped first,
        # checkpoints: oldest first) that eviction and dropping follow.
        self._resident: collections.OrderedDict = collections.OrderedDict()
        self._checkpoints: collections.OrderedDict = collections.OrderedDict()
        self._empty_arena()

        self._checkpoint_bytes = 0
        self._tick = 0
        # Plain-int counters, always live (telemetry only mirrors them).
        self._evictions: dict = {}
        self._restores = 0
        self._tokens = 0
        self._tokens_dropped = 0
        self._slot_steps = 0
        self._steps = 0
        self._verdicts = {"ransomware": 0, "benign": 0}
        self._early_exits = 0

    def _effective_cap(self) -> int | None:
        cap = self.config.max_resident_sessions
        budget = self.config.memory_budget_bytes
        if budget is not None:
            by_budget = budget // self.session_bytes
            if by_budget < 1:
                raise ValueError(
                    f"memory_budget_bytes={budget} cannot hold even one "
                    f"session ({self.session_bytes} bytes each)"
                )
            cap = by_budget if cap is None else min(cap, by_budget)
        return cap

    # ------------------------------------------------------------------
    # The arena
    # ------------------------------------------------------------------

    def _empty_arena(self) -> None:
        """A fresh 16-row arena (also releases an emptied manager's memory)."""
        self._arena = SessionArena(self.window_length, self.config.stride,
                                   self._hidden_size, self._dtype)

    def _checkpoint_nbytes(self, calls_seen: list) -> int:
        """Checkpoint bytes of streams with these ``calls_seen``: their open windows."""
        stride = self.config.stride
        reach = self.window_length - 1
        slots = 0
        for calls in calls_seen:
            # len(self._arena.slot_starts(calls)), inlined on this hot path.
            slots += (calls - 1) // stride - (max(calls - reach, 0) - 1) // stride
        return len(calls_seen) * SESSION_OVERHEAD_BYTES + slots * self._slot_bytes

    def _row_checkpoint(self, key, row: int) -> SessionCheckpoint:
        arena = self._arena
        calls = arena.calls.item(row)
        slots = []
        for start in arena.slot_starts(calls):
            ring = arena.ring_position(start)
            slots.append((start, calls - start, arena.h[row, ring].copy(),
                          arena.c[row, ring].copy()))
        return SessionCheckpoint(
            key=key,
            calls_seen=calls,
            flagged=arena.flagged.item(row),
            windows_classified=arena.windows.item(row),
            slots=tuple(slots),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    @property
    def checkpointed_count(self) -> int:
        return len(self._checkpoints)

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * self.session_bytes

    @property
    def checkpoint_bytes(self) -> int:
        """Bytes retained by the checkpoint store (budgeted separately)."""
        return self._checkpoint_bytes

    @property
    def slot_steps(self) -> int:
        """Window rows stepped so far (``stats()["slot_steps"]``)."""
        return self._slot_steps

    def __contains__(self, key) -> bool:
        """Whether ``key`` is held, resident or checkpointed."""
        return key in self._resident or key in self._checkpoints

    def known_keys(self) -> tuple:
        """Every session key currently held, resident or checkpointed."""
        return tuple(self._resident) + tuple(self._checkpoints)

    def stats(self) -> dict:
        """Plain-data operational counters (mirrors the telemetry)."""
        return {
            "backend": self.backend.name,
            "backend_fallbacks": dict(self.backend.fallback_reasons),
            "resident_sessions": self.resident_count,
            "checkpointed_sessions": self.checkpointed_count,
            "resident_bytes": self.resident_bytes,
            "checkpoint_bytes": self.checkpoint_bytes,
            "tokens": self._tokens,
            "tokens_dropped": self._tokens_dropped,
            "steps": self._steps,
            "slot_steps": self._slot_steps,
            "verdicts": dict(self._verdicts),
            "evictions": dict(self._evictions),
            "restores": self._restores,
            "early_exits": self._early_exits,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _count_eviction(self, reason: str, count: int = 1) -> None:
        self._evictions[reason] = self._evictions.get(reason, 0) + count
        self._count("repro_session_evictions_total", count, reason=reason)

    def _drop_over_budget(self) -> None:
        """Drop the oldest checkpoints until the store fits its budget."""
        budget = self.config.checkpoint_budget_bytes
        if budget is None or self._checkpoint_bytes <= budget:
            return
        arena = self._arena
        dropped = 0
        while self._checkpoint_bytes > budget and self._checkpoints:
            _, row = self._checkpoints.popitem(last=False)
            self._checkpoint_bytes -= self._checkpoint_nbytes([arena.calls.item(row)])
            arena.free.append(row)
            dropped += 1
        self._count_eviction(EVICT_CHECKPOINT_BUDGET, dropped)

    def _evict_oldest(self, count: int, reason: str) -> None:
        """Move the ``count`` least recently stepped rows to the checkpoint tier."""
        resident = self._resident
        checkpoints = self._checkpoints
        rows = []
        for _ in range(count):
            key, row = resident.popitem(last=False)
            checkpoints[key] = row
            rows.append(row)
        self._checkpoint_bytes += self._checkpoint_nbytes(
            self._arena.calls[rows].tolist()
        )
        self._count_eviction(reason, count)
        self._drop_over_budget()

    def _degrade(self, reason: str) -> None:
        """Swap to the reference math mid-run (overflow guard path)."""
        self._stepper = ReferenceStepper(self.engine)
        self.backend.record_fallback(reason)

    def _activate(self, keys) -> np.ndarray:
        """Arena rows of ``keys``, LRU-touched; restores or creates as needed."""
        resident = self._resident
        checkpoints = self._checkpoints
        arena = self._arena
        last_tick = arena.last_tick
        tick = self._tick
        rows = []
        restored = []
        for key in keys:
            row = resident.get(key)
            if row is not None:
                resident.move_to_end(key)
            else:
                row = checkpoints.pop(key, None)
                if row is None:
                    row = arena.new_row()
                else:
                    restored.append(row)
                resident[key] = row
            last_tick[row] = tick
            rows.append(row)
        if restored:
            self._checkpoint_bytes -= self._checkpoint_nbytes(
                arena.calls[restored].tolist()
            )
            self._restores += len(restored)
            self._count("repro_session_restores_total", len(restored))
        return np.array(rows, dtype=np.int64)

    def _enforce_budget(self) -> None:
        resident = self._resident
        cap = self._max_resident
        if cap is not None and len(resident) > cap:
            self._evict_oldest(len(resident) - cap, EVICT_LRU)
        idle_after = self.config.idle_after_steps
        if idle_after is not None:
            # Resident order is last-tick order: the idle rows are a prefix.
            horizon = self._tick - idle_after
            last_tick = self._arena.last_tick
            idle = 0
            for row in resident.values():
                if last_tick[row] > horizon:
                    break
                idle += 1
            if idle:
                self._evict_oldest(idle, EVICT_IDLE)

    def evict(self, key, reason: str = EVICT_LRU) -> None:
        """Checkpoint and evict one resident session explicitly."""
        if key not in self._resident:
            raise KeyError(f"session {key!r} is not resident")
        self._resident.move_to_end(key, last=False)
        self._evict_oldest(1, reason)

    def _drop(self, key) -> None:
        """Forget ``key`` in whichever tier holds it and free its row."""
        row = self._resident.pop(key, None)
        if row is None:
            row = self._checkpoints.pop(key)
            self._checkpoint_bytes -= self._checkpoint_nbytes(
                [self._arena.calls.item(row)]
            )
        self._arena.free.append(row)
        if not self._resident and not self._checkpoints:
            self._empty_arena()

    def close(self, key) -> None:
        """Drop a session entirely (process exited); counted as eviction.

        Unlike :meth:`evict`, no checkpoint survives — a later token for
        the same key starts a fresh stream.
        """
        if key not in self:
            raise KeyError(f"unknown session {key!r}")
        self._drop(key)
        self._count_eviction(EVICT_CLOSED)

    def export_checkpoint(self, key) -> SessionCheckpoint:
        """Snapshot one session (resident or evicted) for migration.

        The session's local state is untouched; :meth:`release` also
        drops it, completing a hand-off once the target calls
        :meth:`import_checkpoint`.
        """
        row = self._resident.get(key)
        if row is None:
            row = self._checkpoints.get(key)
            if row is None:
                raise KeyError(f"unknown session {key!r}")
        return self._row_checkpoint(key, row)

    def import_checkpoint(self, checkpoint: SessionCheckpoint) -> None:
        """Adopt a migrated session; it restores on its next token.

        Raises ``ValueError`` if the key is resident here, or if the
        checkpoint's windows or state shapes do not match this manager's
        window length, stride and hidden size.
        """
        key = checkpoint.key
        if key in self._resident:
            raise ValueError(f"session {key!r} is already resident")
        calls = checkpoint.calls_seen
        slots = checkpoint.slots
        state = (self._hidden_size,)
        if [(start, filled, np.shape(hidden), np.shape(cell))
                for start, filled, hidden, cell in slots] != [
            (start, calls - start, state, state)
            for start in self._arena.slot_starts(calls)
        ]:
            raise ValueError(
                f"checkpoint of {key!r} does not match window "
                f"{self.window_length} / stride {self.config.stride}"
            )
        if key in self._checkpoints:
            self._drop(key)
        arena = self._arena
        row = arena.new_row(calls, checkpoint.flagged,
                            checkpoint.windows_classified)
        for start, _, hidden, cell in slots:
            ring = arena.ring_position(start)
            arena.h[row, ring] = hidden
            arena.c[row, ring] = cell
        self._checkpoints[key] = row
        self._checkpoint_bytes += self._checkpoint_nbytes([calls])
        self._drop_over_budget()

    def release(self, key) -> SessionCheckpoint:
        """Export ``key`` and drop every local copy; counted ``migrated``.

        The live-migration primitive: hand the returned checkpoint to
        another manager's :meth:`import_checkpoint` and the session has
        *moved* (unlike :meth:`export_checkpoint`, which copies).  Used
        by shard rebalancing and by the fleet's drain/failover hand-off.
        """
        checkpoint = self.export_checkpoint(key)
        self._drop(key)
        self._count_eviction(EVICT_MIGRATED)
        return checkpoint

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def observe(self, key, token) -> SessionVerdict | None:
        """Feed one token of one stream; the single-stream convenience.

        Returns the window verdict this token completed, if any (a token
        completes at most one window: open windows always hold distinct
        fill counts).
        """
        verdicts = self.step({key: token})
        return verdicts[0] if verdicts else None

    def step(self, tokens) -> list:
        """Advance many sessions by one token each, batched.

        Parameters
        ----------
        tokens:
            Mapping of session key → token id (one token per session per
            tick; call again for further tokens).  Iteration order fixes
            the row order, so runs are deterministic for a deterministic
            mapping order.

        Returns
        -------
        list
            :class:`SessionVerdict` for every window completed this tick,
            in row order.

        Raises
        ------
        ValueError
            if a token id is outside the vocabulary; no stream advances.
        """
        self._tick += 1
        keys = list(tokens)
        rows = self._activate(keys)
        token_ids = np.fromiter(tokens.values(), dtype=np.int64, count=len(keys))
        self._tokens += len(keys)
        if self.config.early_exit:
            live = ~self._arena.flagged[rows]
            if not live.all():
                self._tokens_dropped += len(keys) - int(np.count_nonzero(live))
                keys = [key for key, keep in zip(keys, live) if keep]
                rows = rows[live]
                token_ids = token_ids[live]

        stepped = 0
        verdicts: list = []
        if len(keys):
            stepped, verdicts = self._step_rows(keys, rows, token_ids)
        self._steps += 1
        self._enforce_budget()
        self._emit_step_telemetry(len(keys), stepped, len(verdicts))
        return verdicts

    def _step_rows(self, keys: list, rows: np.ndarray,
                   token_ids: np.ndarray) -> tuple:
        """One stepper tick over ``rows``; the verdicts of completed windows."""
        arena = self._arena
        try:
            stepped, done, probabilities = self._stepper.step_rows(
                arena, rows, token_ids
            )
        except FusedOverflow:
            self._degrade(FALLBACK_OVERFLOW_GUARD)
            stepped, done, probabilities = self._stepper.step_rows(
                arena, rows, token_ids
            )
        self._slot_steps += stepped
        if not len(done):
            return stepped, []
        done_rows = rows[done]
        starts = arena.calls[done_rows] - self.window_length
        return stepped, [
            self._complete_window(keys[stream], row, start, probability)
            for stream, row, start, probability in zip(
                done.tolist(), done_rows.tolist(), starts.tolist(),
                probabilities.tolist(),
            )
        ]

    def _complete_window(self, key, row: int, start: int,
                         probability: float) -> SessionVerdict:
        verdict = SessionVerdict(
            session=key,
            window_index=start,
            probability=probability,
            is_ransomware=probability >= self.config.threshold,
            inference_microseconds=self._sequence_microseconds,
        )
        arena = self._arena
        arena.windows[row] += 1
        label = "ransomware" if verdict.is_ransomware else "benign"
        self._verdicts[label] += 1
        self._count("repro_session_verdicts_total", verdict=label)
        if verdict.is_ransomware and not arena.flagged[row]:
            arena.flagged[row] = True
            if self.config.early_exit:
                self._early_exits += 1
                self._count("repro_session_early_exits_total")
        return verdict

    # ------------------------------------------------------------------
    # Telemetry (observation only; plain counters above are the source)
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.counter(name, **labels).inc(amount)

    def _emit_step_telemetry(self, sessions: int, rows: int,
                             verdicts: int) -> None:
        telemetry = self.engine.telemetry
        if telemetry is None:
            return
        telemetry.counter("repro_session_steps_total").inc()
        telemetry.counter("repro_session_tokens_total").inc(sessions)
        telemetry.counter("repro_session_slot_steps_total").inc(rows)
        telemetry.counter(METRIC_TICKS, backend=self.backend.name).inc()
        telemetry.gauge("repro_session_resident").set(self.resident_count)
        telemetry.gauge("repro_session_state_bytes").set(self.resident_bytes)
        telemetry.gauge("repro_session_checkpoint_bytes").set(
            self._checkpoint_bytes
        )
        telemetry.tracer.record(
            "session.step", self._tick - 1, self._tick,
            attributes={
                "sessions": sessions, "rows": rows, "verdicts": verdicts,
                "unit": "step",
            },
        )


# ---------------------------------------------------------------------------
# Kernel-to-kernel streaming extension (paper Section III-C)
# ---------------------------------------------------------------------------
# "Note that streaming can be easily ported to the kernel implementation
# for additional acceleration if the FPGA supports it."  In the baseline
# design, kernels exchange data through FPGA global memory over AXI
# masters (each hand-off pays a DDR write + read).  With AXI4-Stream
# hand-offs the producing kernel pushes words directly into the
# consumer's FIFO: the hand-off cost drops from two DDR transactions to
# a FIFO depth, and the per-CU copy loops disappear (each consumer taps
# the stream).  The model below quantifies that variant on top of the
# existing kernel timings for the streaming ablation benchmark; it lives
# with the streaming-session serving layer because both describe the
# engine's streaming story (formerly ``repro.core.streaming``, which now
# re-exports from here).

#: Cycles for a word to traverse an AXI4-Stream FIFO hand-off.
STREAM_FIFO_LATENCY_CYCLES = 2


def _speedup(baseline_cycles: int, streamed_cycles: int) -> float:
    """``baseline / streamed`` with degenerate denominators made honest.

    A zero streamed-cycle count against a non-zero baseline is an
    *unbounded* speedup — returning 1.0 there (as this once did) would
    silently report "no speedup" for the best possible outcome.  Only
    zero-over-zero, where the comparison is vacuous, reports 1.0.
    """
    if streamed_cycles == 0:
        return math.inf if baseline_cycles > 0 else 1.0
    return baseline_cycles / streamed_cycles


@dataclasses.dataclass(frozen=True)
class StreamingReport:
    """Per-item and per-sequence effect of enabling streaming."""

    baseline_item_cycles: int
    streamed_item_cycles: int
    baseline_sequence_cycles: int
    streamed_sequence_cycles: int
    clock: ClockDomain

    @property
    def item_speedup(self) -> float:
        return _speedup(self.baseline_item_cycles, self.streamed_item_cycles)

    @property
    def sequence_speedup(self) -> float:
        return _speedup(
            self.baseline_sequence_cycles, self.streamed_sequence_cycles
        )

    @property
    def streamed_item_microseconds(self) -> float:
        return self.clock.cycles_to_microseconds(self.streamed_item_cycles)


def _copy_loop_cycles(trip_count: int, ii_optimized: bool) -> int:
    """Latency of a per-CU fan-out copy loop (same model as the kernels)."""
    from repro.hw.hls import HlsLoop, PragmaSet, VANILLA_PRAGMAS

    if ii_optimized:
        pragmas = PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True)
    else:
        pragmas = VANILLA_PRAGMAS
    return HlsLoop(
        name="copy", trip_count=trip_count, iteration_depth=4,
        pragmas=pragmas, unroll_depth_penalty=0,
    ).latency_cycles


def _streamed(timing: KernelTiming, saved_cycles: int) -> KernelTiming:
    """Rewrite one kernel's timing with ``saved_cycles`` removed."""
    fill = max(1, timing.fill_latency_cycles - saved_cycles)
    steady = max(1, timing.steady_ii_cycles - (0 if timing.reports_ii else saved_cycles))
    return KernelTiming(
        kernel=timing.kernel,
        fill_latency_cycles=fill,
        steady_ii_cycles=steady,
        reports_ii=timing.reports_ii,
    )


def streaming_report(engine) -> StreamingReport:
    """Quantify the streaming variant against an engine's baseline.

    Savings model:

    * the producing kernels' per-CU fan-out copy loops disappear — each
      consumer taps the stream (``kernel_preprocess``'s embedding copies,
      ``kernel_hidden_state``'s ``h_t`` copies);
    * downstream kernels become free-running: the per-item AXI-Lite
      re-invocation handshake is replaced by the stream FIFO latency.

    The embedding-table DDR fetch and the first kernel's invocation are
    *not* removed — streaming changes hand-offs, not where the model's
    parameters live.

    Parameters
    ----------
    engine:
        A built :class:`~repro.core.engine.CSDInferenceEngine` (loaded or
        timing-only).
    """
    from repro.hw.hls import KERNEL_INVOKE_CYCLES

    config: EngineConfig = engine.config
    dims = config.dimensions
    clock = engine.device.clock

    preprocess = engine.preprocess.timing()
    gates = engine.gates.timing()
    hidden = engine.hidden_state.timing()

    ii_optimized = config.optimization.uses_ii_pragmas
    handoff_saving = KERNEL_INVOKE_CYCLES - STREAM_FIFO_LATENCY_CYCLES
    preprocess_copy = _copy_loop_cycles(
        dims.embedding_dim * config.num_gate_cus, ii_optimized
    )
    hidden_copy = _copy_loop_cycles(
        dims.hidden_size * config.num_gate_cus, ii_optimized
    )

    streamed_preprocess = _streamed(preprocess, preprocess_copy)
    streamed_gates = _streamed(gates, handoff_saving)
    streamed_hidden = _streamed(hidden, handoff_saving + hidden_copy)

    baseline_stage = StageTiming(
        preprocess=preprocess.reported_cycles,
        gates=gates.reported_cycles,
        hidden_state=hidden.reported_cycles,
    )
    streamed_stage = StageTiming(
        preprocess=streamed_preprocess.reported_cycles,
        gates=streamed_gates.reported_cycles,
        hidden_state=streamed_hidden.reported_cycles,
    )
    items = dims.sequence_length
    return StreamingReport(
        baseline_item_cycles=baseline_stage.serial_total,
        streamed_item_cycles=streamed_stage.serial_total,
        baseline_sequence_cycles=schedule(
            baseline_stage, items, config.preemptive_preprocess
        ),
        streamed_sequence_cycles=schedule(
            streamed_stage, items, config.preemptive_preprocess
        ),
        clock=clock,
    )
