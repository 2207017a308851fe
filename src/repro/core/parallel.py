"""Data-parallel execution backend: shared-memory worker pool.

Everything in this repo runs real LSTM forward passes on the host, so the
host-simulation throughput wall is one Python process on one core.  This
module breaks that wall without touching the numerics: a persistent
:class:`WorkerPool` forks N OS processes, broadcasts the engine's weight
arrays **once** through :mod:`multiprocessing.shared_memory` (the workers
build zero-copy ``np.ndarray`` views — the ``(4H, H+E)`` stacked gate
matrix is never pickled per call), shards batched work across the
workers, and merges results deterministically.

Determinism and exactness
-------------------------
* **Probabilities** — shards are contiguous row slices and rows are
  independent, so every worker computes exactly what the single-process
  path computes for its rows; results are concatenated in shard order and
  are bit-exact with ``workers=1`` at every
  :class:`~repro.core.config.OptimizationLevel`.
* **Telemetry** — each worker runs its shard under a private
  :class:`~repro.telemetry.Telemetry` and returns the metrics snapshot
  with the result; the parent folds snapshots in **shard order** through
  :meth:`~repro.telemetry.metrics.MetricRegistry.merge_snapshot` (the
  exact-merge counter/histogram semantics of the ``repro.telemetry/v1``
  contract), so merged counters and histograms equal the single-process
  values.  Worker-side span trees are not re-parented (documented in
  ``docs/performance.md``).
* **Fault tolerance** — a worker killed mid-shard is detected by
  liveness polling; its outstanding shards are retried on the surviving
  workers (``repro_parallel_retries_total``), falling back to in-process
  execution if the whole pool is gone.  Duplicate results from a retry
  race are dropped by task id; both copies are bit-identical, so the
  merge is unaffected.
* **Graceful degradation** — when ``fork`` or
  ``multiprocessing.shared_memory`` is unavailable (restricted
  sandboxes), the pool silently runs in-process
  (``repro_parallel_fallback_total{reason=...}``); construction never
  raises for environmental reasons.

The pool's own metrics (``repro_parallel_*``) are documented in
``docs/observability.md``; throughput guidance lives in
``docs/performance.md``.
"""

from __future__ import annotations

import queue as queue_module
import weakref

import numpy as np

from repro.core.config import EngineConfig
from repro.core.weights import GateWeights, HostWeights

#: Gate keys in the order weight arrays are packed into shared memory.
_GATE_ORDER = ("i", "f", "c", "o")

#: Seconds between liveness checks while waiting on shard results.
_POLL_SECONDS = 0.05

#: Seconds close() waits for workers to drain the shutdown sentinel.
_SHUTDOWN_GRACE_SECONDS = 2.0


def _pool_supported() -> tuple:
    """``(supported, reason)`` — can a fork + shared-memory pool run here?

    Split out (and probed at pool construction, not import) so restricted
    environments degrade at runtime and tests can monkeypatch the probe.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return False, "no_fork"
    try:
        from multiprocessing import shared_memory  # noqa: F401 (probe)
    except ImportError:
        return False, "no_shared_memory"
    return True, ""


# ----------------------------------------------------------------------
# Shared-memory weight broadcast
# ----------------------------------------------------------------------


def _weight_arrays(weights: HostWeights) -> list:
    """``(key, float64 array)`` pairs covering every host parameter."""
    arrays = [("embedding", weights.embedding)]
    for gate in _GATE_ORDER:
        arrays.append((f"gate_{gate}_matrix", weights.gates[gate].matrix))
        arrays.append((f"gate_{gate}_bias", weights.gates[gate].bias))
    arrays.append(("fc_weights", weights.fc_weights))
    arrays.append(("fc_bias", np.array([weights.fc_bias], dtype=np.float64)))
    return arrays


def _pack_weights(weights: HostWeights):
    """Copy the host weights into one shared-memory block, once.

    Returns ``(shm, layout)`` where ``layout`` maps each array key to
    ``(offset, shape, transposed)``.  **Memory order is preserved**:
    the gate matrices arrive Fortran-contiguous (they are built from
    transposed Keras blocks), and NumPy's pairwise-sum reduction order —
    hence the float path's last-ULP rounding — follows the layout of its
    operands.  An F-ordered array is stored as its C-ordered transpose
    and viewed back through ``.T``, so worker-side views have the exact
    strides of the parent arrays and the numerics stay bit-identical.
    All arrays are float64, so offsets stay 8-byte aligned.
    """
    from multiprocessing import shared_memory

    arrays = _weight_arrays(weights)
    total = sum(array.nbytes for _, array in arrays)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    layout = {}
    offset = 0
    for key, array in arrays:
        array = np.asarray(array, dtype=np.float64)
        transposed = (
            array.ndim == 2
            and array.flags["F_CONTIGUOUS"]
            and not array.flags["C_CONTIGUOUS"]
        )
        stored = np.ascontiguousarray(array.T if transposed else array)
        view = np.ndarray(stored.shape, dtype=np.float64,
                          buffer=shm.buf, offset=offset)
        view[...] = stored
        layout[key] = (offset, stored.shape, transposed)
        offset += stored.nbytes
    return shm, layout


def _weights_from_shared(shm, layout: dict) -> HostWeights:
    """Rebuild :class:`HostWeights` as zero-copy views over the block."""
    def view(key: str) -> np.ndarray:
        offset, shape, transposed = layout[key]
        array = np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=offset)
        return array.T if transposed else array

    gates = {
        gate: GateWeights(
            name=gate,
            matrix=view(f"gate_{gate}_matrix"),
            bias=view(f"gate_{gate}_bias"),
        )
        for gate in _GATE_ORDER
    }
    return HostWeights(
        embedding=view("embedding"),
        gate_weights=gates,
        fc_weights=view("fc_weights"),
        fc_bias=float(view("fc_bias")[0]),
    )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(shm, layout, config, task_queue, result_queue) -> None:
    """Worker loop: build an engine over the shared weights, serve shards.

    The :class:`~multiprocessing.shared_memory.SharedMemory` object and
    the config are inherited through ``fork`` (never pickled).  Each task
    runs under a fresh private Telemetry whose metrics snapshot rides
    back with the result for exact merging in the parent.
    """
    from repro.core.engine import CSDInferenceEngine
    from repro.telemetry import Telemetry

    engine = CSDInferenceEngine(config, _weights_from_shared(shm, layout))
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, sequences = task
        try:
            telemetry = Telemetry()
            engine.attach_telemetry(telemetry)
            probabilities = engine.infer_batch(sequences).probabilities
            result_queue.put(
                (task_id, "ok", probabilities, telemetry.metrics.snapshot())
            )
        except Exception as exc:  # surface the failure, keep serving
            result_queue.put(
                (task_id, "error", f"{type(exc).__name__}: {exc}", None)
            )


class _Worker:
    """A forked worker process plus its private task queue."""

    __slots__ = ("index", "process", "queue", "alive")

    def __init__(self, index, process, task_queue):
        self.index = index
        self.process = process
        self.queue = task_queue
        self.alive = True


def _release_pool(processes, task_queues, shm) -> None:
    """Tear down worker processes and unlink the shared weight block.

    Module-level (not a method) so :class:`weakref.finalize` can run it
    after the pool object is gone — dropping the last reference to a
    pool, or interpreter exit, reclaims the OS resources either way.
    """
    import time

    for process, task_queue in zip(processes, task_queues):
        if process.is_alive():
            try:
                task_queue.put(None)
            except (OSError, ValueError):
                pass
    deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
    for process in processes:
        process.join(timeout=max(0.01, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.terminate()
    if shm is not None:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class _TaskError:
    """Sentinel carrying a worker-side failure message to ``result()``."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class WorkerPool:
    """Persistent data-parallel inference backend.

    Parameters
    ----------
    config:
        Engine configuration every worker builds its engine from.
    weights:
        Host weights, broadcast once through shared memory.
    workers:
        Number of worker processes (``>= 1``).
    telemetry:
        Optional parent :class:`~repro.telemetry.Telemetry`; worker
        metric snapshots merge into it, and the pool's own
        ``repro_parallel_*`` metrics are recorded on it.
    local_engine:
        Engine to run shards on when the pool degrades to in-process
        execution (no fork/shared memory, or every worker died).  Built
        lazily from ``config``/``weights`` when not supplied.
    """

    def __init__(
        self,
        config: EngineConfig,
        weights: HostWeights,
        workers: int,
        telemetry=None,
        local_engine=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = config
        self.weights = weights
        self.workers = int(workers)
        self.telemetry = telemetry
        self.mode = "inprocess"
        self._local_engine = local_engine
        self._workers: list = []
        self._shm = None
        self._finalizer = None
        self._closed = False
        self._next_task_id = 0
        self._round_robin = 0
        self._assigned: dict = {}    # task_id -> worker index
        self._payloads: dict = {}    # task_id -> sequences (for retry)
        self._done: dict = {}        # task_id -> (result, snapshot) | _TaskError
        self._merged: set = set()    # task_ids whose snapshot already merged
        self._discarded: set = set()
        self._result_queue = None

        supported, reason = _pool_supported()
        if not supported:
            self._fall_back(reason)
            return
        try:
            self._start_workers()
        except OSError:
            self._fall_back("start_failure")
            return
        self.mode = "pool"
        self._warm_workers()
        self._set_worker_gauge()

    # ------------------------------------------------------------------
    # Startup / degradation
    # ------------------------------------------------------------------

    def _start_workers(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._shm, layout = _pack_weights(self.weights)
        self._result_queue = ctx.Queue()
        try:
            for index in range(self.workers):
                task_queue = ctx.Queue()
                process = ctx.Process(
                    target=_worker_main,
                    args=(self._shm, layout, self.config, task_queue,
                          self._result_queue),
                    daemon=True,
                    name=f"repro-worker-{index}",
                )
                process.start()
                self._workers.append(_Worker(index, process, task_queue))
        except OSError:
            _release_pool([w.process for w in self._workers],
                          [w.queue for w in self._workers], self._shm)
            self._workers = []
            self._shm = None
            raise
        self._finalizer = weakref.finalize(
            self, _release_pool,
            [w.process for w in self._workers],
            [w.queue for w in self._workers],
            self._shm,
        )

    def _warm_workers(self) -> None:
        """Run one throwaway row on every worker before the pool serves.

        A worker builds its kernel backend (and, for ``fused``, runs the
        build-time self-check) on its first shard, and each task queue
        starts its feeder thread on its first put.  Paying both here
        keeps them out of the first real batch.  The warm-up results and
        their telemetry snapshots are dropped: nothing is counted or
        merged.  A worker that dies while warming is reaped on the first
        real batch like any other dead worker.
        """
        row = np.zeros((1, self.config.dimensions.sequence_length),
                       dtype=np.int64)
        pending = {}
        for worker in self._workers:
            task_id = self._next_task_id
            self._next_task_id += 1
            worker.queue.put((task_id, row))
            pending[task_id] = worker
        while any(task_id not in self._done and worker.process.is_alive()
                  for task_id, worker in pending.items()):
            self._pump()
        for task_id in pending:
            self._done.pop(task_id, None)

    def _fall_back(self, reason: str) -> None:
        """Degrade to in-process execution; counted, never a crash."""
        self.mode = "inprocess"
        if self.telemetry is not None:
            self.telemetry.counter(
                "repro_parallel_fallback_total", reason=reason
            ).inc()
            self.telemetry.gauge("repro_parallel_workers").set(0)

    def _set_worker_gauge(self) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge("repro_parallel_workers").set(
                sum(1 for worker in self._workers if worker.alive)
            )

    def _count_task(self, mode: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter("repro_parallel_tasks_total", mode=mode).inc()

    # ------------------------------------------------------------------
    # In-process execution (fallback + last-resort retry)
    # ------------------------------------------------------------------

    def _local_probabilities(self, sequences: np.ndarray) -> np.ndarray:
        engine = self._local_engine
        if engine is None:
            from repro.core.engine import CSDInferenceEngine

            engine = CSDInferenceEngine(self.config, self.weights)
            self._local_engine = engine
        if self.telemetry is not None and engine.telemetry is None:
            engine.attach_telemetry(self.telemetry)
        return engine.infer_batch(sequences).probabilities

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def _live_workers(self) -> list:
        return [worker for worker in self._workers if worker.alive]

    def _next_worker(self):
        live = self._live_workers()
        if not live:
            return None
        worker = live[self._round_robin % len(live)]
        self._round_robin += 1
        return worker

    def submit_infer(self, sequences) -> int:
        """Queue one shard; returns a handle for :meth:`result`.

        Shards dispatch round-robin over the live workers.  In
        in-process mode the shard runs immediately on the local engine.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        sequences = np.ascontiguousarray(np.asarray(sequences, dtype=np.int64))
        task_id = self._next_task_id
        self._next_task_id += 1
        if self.mode == "inprocess":
            self._count_task("inprocess")
            self._done[task_id] = (self._local_probabilities(sequences), None)
            self._merged.add(task_id)
            return task_id
        worker = self._next_worker()
        if worker is None:
            self._fall_back("all_workers_dead")
            self._count_task("inprocess")
            self._done[task_id] = (self._local_probabilities(sequences), None)
            self._merged.add(task_id)
            return task_id
        self._count_task("pool")
        self._assigned[task_id] = worker.index
        self._payloads[task_id] = sequences
        worker.queue.put((task_id, sequences))
        return task_id

    def _reap_dead_workers(self) -> None:
        """Retry the shards of any worker that died mid-batch."""
        for worker in self._workers:
            if not worker.alive or worker.process.is_alive():
                continue
            worker.alive = False
            if self.telemetry is not None:
                self.telemetry.counter("repro_parallel_worker_deaths_total").inc()
            self._set_worker_gauge()
            orphaned = sorted(
                task_id for task_id, index in self._assigned.items()
                if index == worker.index
            )
            for task_id in orphaned:
                if task_id in self._discarded:
                    self._forget(task_id)
                    self._discarded.discard(task_id)
                    continue
                if self.telemetry is not None:
                    self.telemetry.counter("repro_parallel_retries_total").inc()
                target = self._next_worker()
                if target is None:
                    self._fall_back("all_workers_dead")
                    payload = self._payloads[task_id]
                    self._forget(task_id)
                    self._done[task_id] = (
                        self._local_probabilities(payload), None
                    )
                    self._merged.add(task_id)
                else:
                    self._assigned[task_id] = target.index
                    target.queue.put((task_id, self._payloads[task_id]))

    def _forget(self, task_id: int) -> None:
        self._assigned.pop(task_id, None)
        self._payloads.pop(task_id, None)

    def _pump(self) -> None:
        """Collect one result (or poll worker liveness on timeout)."""
        try:
            task_id, status, payload, snapshot = self._result_queue.get(
                timeout=_POLL_SECONDS
            )
        except queue_module.Empty:
            self._reap_dead_workers()
            return
        if task_id in self._discarded:
            self._discarded.discard(task_id)
            self._forget(task_id)
            return
        if task_id in self._done:
            return  # duplicate from a retry race; copies are identical
        self._forget(task_id)
        if status == "error":
            self._done[task_id] = _TaskError(payload)
        else:
            self._done[task_id] = (payload, snapshot)

    def result(self, task_id: int) -> np.ndarray:
        """Block for one shard's probabilities.

        Telemetry snapshots merge here — at collection, in the caller's
        (deterministic) collection order — not at arrival, so merged
        float histogram sums are reproducible run to run.
        """
        if task_id in self._discarded:
            raise ValueError(f"task {task_id} was discarded")
        while task_id not in self._done:
            self._pump()
        outcome = self._done.pop(task_id)
        if isinstance(outcome, _TaskError):
            raise RuntimeError(f"worker shard failed: {outcome.message}")
        probabilities, snapshot = outcome
        if snapshot is not None and task_id not in self._merged:
            if self.telemetry is not None:
                self.telemetry.metrics.merge_snapshot(snapshot)
        self._merged.discard(task_id)
        return probabilities

    def discard(self, task_id: int) -> None:
        """Drop a submitted shard whose result will never be collected."""
        if task_id in self._done:
            self._done.pop(task_id)
            self._merged.discard(task_id)
            return
        if task_id in self._assigned:
            self._discarded.add(task_id)

    # ------------------------------------------------------------------
    # Batched entry point
    # ------------------------------------------------------------------

    def predict_proba(self, sequences, chunk_size: int = 1024) -> np.ndarray:
        """Probabilities for ``(N, T)`` sequences, sharded across workers.

        Shards are ``chunk_size``-row contiguous slices dispatched
        round-robin and merged in shard order — bit-exact with the
        single-process chunked path (rows are independent).
        """
        sequences = np.asarray(sequences)
        if sequences.ndim != 2:
            raise ValueError(f"expected (N, T) batch, got shape {sequences.shape}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if sequences.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        handles = [
            self.submit_infer(sequences[start:start + chunk_size])
            for start in range(0, sequences.shape[0], chunk_size)
        ]
        return np.concatenate([self.result(handle) for handle in handles])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and unlink the shared block.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Generic forked task map (fold-level parallelism)
# ----------------------------------------------------------------------


def _task_worker_main(task_fn, indices, result_queue) -> None:
    """Run this worker's pre-assigned task indices and ship the results.

    ``task_fn`` and its closure (datasets, configs) are inherited through
    ``fork`` — nothing is pickled on the way in; only the (plain-data)
    results and telemetry snapshots ride back through the queue.  Each task
    runs under a fresh private Telemetry so the parent can fold the
    snapshots deterministically.
    """
    from repro.telemetry import Telemetry

    for index in indices:
        try:
            telemetry = Telemetry()
            result = task_fn(index, telemetry)
            result_queue.put((index, "ok", result, telemetry.metrics.snapshot()))
        except Exception as exc:  # ship the failure, keep serving
            result_queue.put((index, "error", f"{type(exc).__name__}: {exc}", None))


def parallel_map(task_fn, count: int, workers: int = 1, telemetry=None) -> list:
    """Run ``task_fn(index, telemetry)`` for every index, forked when possible.

    The coarse-grained sibling of :class:`WorkerPool`: where the pool
    shards one inference batch into row slices, ``parallel_map`` runs whole
    independent tasks — e.g. one leave-k-out generalization fold each —
    across forked workers.  Tasks are pre-assigned round-robin
    (worker ``w`` gets indices ``w, w+workers, ...``), results must be
    picklable, and determinism follows the same contract as the pool:

    * the returned list is in **index order** regardless of completion
      order (tasks are independent, so each result is bit-identical to the
      serial run's);
    * worker telemetry snapshots fold into ``telemetry`` in index order
      via :meth:`~repro.telemetry.metrics.MetricRegistry.merge_snapshot`,
      so merged counters/histograms equal the ``workers=1`` values;
    * degradation is graceful and counted
      (``repro_parallel_fallback_total{reason=...}``): no ``fork``, a
      start failure, or a worker death mid-run fall back to running the
      affected tasks in-process on the parent's telemetry — construction
      never raises for environmental reasons.

    A task that *raises* (rather than dies) is reported after every other
    task has resolved, as a ``RuntimeError`` naming the lowest failed index.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if count == 0:
        return []

    def count_task(mode: str) -> None:
        if telemetry is not None:
            telemetry.counter("repro_parallel_tasks_total", mode=mode).inc()

    def count_fallback(reason: str) -> None:
        if telemetry is not None:
            telemetry.counter("repro_parallel_fallback_total", reason=reason).inc()

    def run_inprocess(indices, outcomes) -> None:
        for index in indices:
            count_task("inprocess")
            try:
                outcomes[index] = ("ok", task_fn(index, telemetry), None)
            except Exception as exc:  # report after the rest resolve
                outcomes[index] = ("error", f"{type(exc).__name__}: {exc}", None)

    def finish(outcomes) -> list:
        for index, (status, payload, _) in enumerate(outcomes):
            if status == "error":
                raise RuntimeError(f"parallel task {index} failed: {payload}")
        return [payload for _, payload, _ in outcomes]

    outcomes: list = [None] * count
    workers = min(int(workers), count)
    supported, reason = _pool_supported()
    if workers <= 1 or not supported:
        if workers > 1:
            count_fallback(reason)
        run_inprocess(range(count), outcomes)
        return finish(outcomes)

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    assignments = [list(range(start, count, workers)) for start in range(workers)]
    processes: list = []
    try:
        for start, indices in enumerate(assignments):
            process = ctx.Process(
                target=_task_worker_main,
                args=(task_fn, indices, result_queue),
                daemon=True,
                name=f"repro-task-worker-{start}",
            )
            process.start()
            processes.append(process)
    except OSError:
        for process in processes:
            if process.is_alive():
                process.terminate()
        count_fallback("start_failure")
        run_inprocess(range(count), outcomes)
        return finish(outcomes)

    pending = set(range(count))
    dead_handled: set = set()
    while pending:
        try:
            index, status, payload, snapshot = result_queue.get(
                timeout=_POLL_SECONDS
            )
        except queue_module.Empty:
            for worker_index, process in enumerate(processes):
                if worker_index in dead_handled or process.is_alive():
                    continue
                dead_handled.add(worker_index)
                if telemetry is not None:
                    telemetry.counter("repro_parallel_worker_deaths_total").inc()
                # Drain results the worker flushed before dying, then run
                # only its genuinely missing tasks in-process.
                while True:
                    try:
                        done = result_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    if done[0] in pending:
                        count_task("pool")
                        outcomes[done[0]] = tuple(done[1:])
                        pending.discard(done[0])
                missing = [i for i in assignments[worker_index] if i in pending]
                for i in missing:
                    if telemetry is not None:
                        telemetry.counter("repro_parallel_retries_total").inc()
                    run_inprocess([i], outcomes)
                    pending.discard(i)
            continue
        if index in pending:
            count_task("pool")
            outcomes[index] = (status, payload, snapshot)
            pending.discard(index)

    import time

    deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
    for process in processes:
        process.join(timeout=max(0.01, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.terminate()

    if telemetry is not None:
        for status, _, snapshot in outcomes:
            if status == "ok" and snapshot is not None:
                telemetry.metrics.merge_snapshot(snapshot)
    return finish(outcomes)
