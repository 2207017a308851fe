"""Fleet serving simulator: queueing, dynamic batching, failover.

The paper positions the SmartSSD as "a scalable solution ... allowing for
the installation of multiple devices within a single node"; the ROADMAP's
north star is serving heavy traffic across such a fleet.  This module is
the load-bearing subsystem for that claim: a deterministic discrete-event
simulator that drives N simulated CSD devices from per-stream request
queues, on the same simulated clock as everything else in the repo —
no wall clock anywhere, so two runs with one seed produce *identical*
event logs, metrics, and probabilities.

Mechanics
---------
* **Dynamic batching** — each device accumulates pending windows and
  executes them as one :meth:`~repro.core.engine.CSDInferenceEngine.infer_batch`
  call once ``max_batch`` requests are waiting or the oldest has waited
  ``max_wait_us``; the numeric results are bit-exact with calling
  ``infer_batch`` directly on the same windows (the batch path *is* the
  direct path).
* **Admission control** — per-device queues are bounded at
  ``queue_depth``; arrivals beyond the bound are shed explicitly and
  counted, never silently dropped.
* **Timeout + retry-with-failover** — a request whose attempt has waited
  past ``timeout_us`` is retried on the least-loaded healthy device; a
  :class:`~repro.hw.faults.FaultPlan` device failure kills a drive
  mid-run, aborts its in-flight batch, fails over its queue, and
  re-routes its streams using
  :meth:`~repro.core.fleet.FleetPlanner.rebalance_after_failure`.
* **Telemetry** — full instrumentation under the ``repro.telemetry/v1``
  contract (see ``docs/observability.md`` and ``docs/serving.md``):
  queue-depth gauges, batch-size and end-to-end latency histograms,
  shed/retry counters, and per-device ``serve.batch`` spans on the
  simulated microsecond timeline.

Time is integer simulated microseconds throughout, driven by the same
:class:`~repro.hw.sim.Simulator` event core the pipeline cross-validation
uses.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.fleet import FleetPlan, FleetPlanner, MonitoredStream
from repro.core.sessions import SessionConfig, SessionManager
from repro.hw.faults import FaultPlan
from repro.hw.sim import Simulator

#: Shed reasons (the ``reason`` label of ``repro_serve_shed_total``).
SHED_QUEUE_FULL = "queue_full"
SHED_NO_DEVICE = "no_device"
SHED_RETRIES = "retries"
SHED_QUARANTINED = "quarantined"

#: Retry reasons (the ``reason`` label of ``repro_serve_retries_total``).
RETRY_TIMEOUT = "timeout"
RETRY_FAILOVER = "failover"


def nearest_rank_percentile(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of a 1-D sample; NaN for an empty one.

    The single definition both serving reports use (it was once duplicated
    in each, and the copies could drift).  ``values`` need not be sorted.
    """
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = np.sort(np.asarray(values))
    if ordered.size == 0:
        return float("nan")
    rank = max(1, math.ceil(percentile / 100.0 * ordered.size))
    return float(ordered[rank - 1])


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Policy knobs of the fleet server.

    Parameters
    ----------
    max_batch:
        Largest dynamic batch a device executes in one ``infer_batch``.
    max_wait_us:
        Longest the oldest pending request may wait before a partial
        batch is flushed (0 = flush immediately, no batching delay).
    queue_depth:
        Bound on each device's pending queue; arrivals beyond it are
        shed with reason ``queue_full``.
    timeout_us:
        Per-attempt deadline: a request still queued this long after its
        (re-)enqueue is pulled from the batch and retried elsewhere.
        Should exceed ``max_wait_us`` or every request times out.
    max_retries:
        Additional attempts (timeout or failover) before a request is
        shed with reason ``retries``.
    """

    max_batch: int = 16
    max_wait_us: int = 2_000
    queue_depth: int = 64
    timeout_us: int = 50_000
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.timeout_us <= 0:
            raise ValueError(f"timeout_us must be positive, got {self.timeout_us}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclasses.dataclass
class ServingRequest:
    """One window awaiting classification."""

    request_id: int
    stream: str
    sequence: np.ndarray
    arrival_us: int
    attempts: int = 0
    enqueued_us: int = 0


@dataclasses.dataclass(frozen=True)
class CompletedRequest:
    """A served request: where it ran, what it scored, when it finished."""

    request_id: int
    stream: str
    sequence: np.ndarray
    device: int
    probability: float
    arrival_us: int
    completion_us: int
    attempts: int

    @property
    def latency_us(self) -> int:
        return self.completion_us - self.arrival_us


@dataclasses.dataclass(frozen=True)
class ServingReport:
    """Outcome of one simulated serving run."""

    completed: tuple
    shed: dict
    retries: dict
    device_failures: int
    event_log: tuple
    duration_us: int
    device_busy_us: tuple
    offered: int

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    @property
    def shed_count(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests that were not served."""
        if self.offered == 0:
            return 0.0
        return self.shed_count / self.offered

    def latencies_us(self) -> np.ndarray:
        """Sorted end-to-end latencies of completed requests."""
        return np.sort(
            np.array([c.latency_us for c in self.completed], dtype=np.int64)
        )

    def latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of completed end-to-end latency."""
        return nearest_rank_percentile(self.latencies_us(), percentile)

    def device_utilization(self) -> tuple:
        """Per-device busy fraction over the whole run."""
        horizon = max(self.duration_us, 1)
        return tuple(busy / horizon for busy in self.device_busy_us)


def generate_workload(
    streams,
    duration_us: int,
    sequence_length: int,
    vocab_size: int = 278,
    seed: int = 0,
) -> list:
    """Seeded per-stream Poisson arrivals with random windows.

    Each :class:`~repro.core.fleet.MonitoredStream` produces windows at
    its ``windows_per_second`` rate with exponential inter-arrivals from
    an RNG derived from ``(seed, stream index)`` — fully reproducible,
    independent of stream order elsewhere.  Returns
    :class:`ServingRequest` objects sorted by ``(arrival_us, stream)``
    with dense request ids.
    """
    if duration_us <= 0:
        raise ValueError(f"duration_us must be positive, got {duration_us}")
    pending = []
    for index, stream in enumerate(streams):
        rng = np.random.default_rng([seed, index])
        mean_gap_us = 1e6 / stream.windows_per_second
        clock = 0.0
        while True:
            clock += rng.exponential(mean_gap_us)
            arrival = int(round(clock))
            if arrival >= duration_us:
                break
            sequence = rng.integers(0, vocab_size, size=sequence_length,
                                    dtype=np.int64)
            pending.append((arrival, stream.name, sequence))
    pending.sort(key=lambda item: (item[0], item[1]))
    return [
        ServingRequest(request_id=i, stream=name, sequence=seq, arrival_us=arrival)
        for i, (arrival, name, seq) in enumerate(pending)
    ]


@dataclasses.dataclass(frozen=True)
class TokenArrival:
    """One API-call token of one monitored stream (session-mode input)."""

    stream: str
    token: int
    arrival_us: int


@dataclasses.dataclass(frozen=True)
class StreamVerdictRecord:
    """A window verdict emitted by the session-mode fleet.

    ``latency_us`` is arrival → delivery for the token that completed
    the window (-1 when the completing token is unknown, which only
    happens for records built by hand).
    """

    stream: str
    window_index: int
    probability: float
    is_ransomware: bool
    device: int
    completion_us: int
    latency_us: int = -1


@dataclasses.dataclass(frozen=True)
class SessionServingReport:
    """Outcome of one simulated session-mode (token-stream) serving run."""

    verdicts: tuple
    tokens_offered: int
    tokens_shed: dict
    migrated_sessions: int
    device_failures: int
    event_log: tuple
    duration_us: int
    device_busy_us: tuple
    token_latencies: tuple      # per-token arrival → tick-completion, us
    session_stats: tuple        # one SessionManager.stats() dict per device

    @property
    def verdict_count(self) -> int:
        return len(self.verdicts)

    @property
    def shed_count(self) -> int:
        return sum(self.tokens_shed.values())

    def token_latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of per-token serving latency."""
        return nearest_rank_percentile(
            np.array(self.token_latencies, dtype=np.int64), percentile
        )

    def verdict_latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of per-verdict delivery latency."""
        return nearest_rank_percentile(
            np.array([v.latency_us for v in self.verdicts], dtype=np.int64),
            percentile,
        )

    def device_utilization(self) -> tuple:
        horizon = max(self.duration_us, 1)
        return tuple(busy / horizon for busy in self.device_busy_us)


def generate_token_workload(
    streams,
    duration_us: int,
    tokens_per_second: float,
    vocab_size: int = 278,
    seed: int = 0,
) -> list:
    """Seeded per-stream Poisson token arrivals (session-mode workload).

    The token-level sibling of :func:`generate_workload`: each stream
    emits single API-call tokens at ``tokens_per_second`` with
    exponential inter-arrivals from an RNG derived from ``(seed, stream
    index)``.  Returns :class:`TokenArrival` sorted by
    ``(arrival_us, stream)``.
    """
    if duration_us <= 0:
        raise ValueError(f"duration_us must be positive, got {duration_us}")
    if tokens_per_second <= 0:
        raise ValueError(
            f"tokens_per_second must be positive, got {tokens_per_second}"
        )
    arrivals = []
    for index, stream in enumerate(streams):
        rng = np.random.default_rng([seed, index])
        mean_gap_us = 1e6 / tokens_per_second
        clock = 0.0
        while True:
            clock += rng.exponential(mean_gap_us)
            arrival = int(round(clock))
            if arrival >= duration_us:
                break
            token = int(rng.integers(0, vocab_size))
            arrivals.append(TokenArrival(stream=stream.name, token=token,
                                         arrival_us=arrival))
    arrivals.sort(key=lambda a: (a.arrival_us, a.stream))
    return arrivals


class _Device:
    """One simulated drive: an engine, a bounded queue, a health flag."""

    __slots__ = (
        "index", "engine", "fault_plan", "service_us", "queue", "busy",
        "dead", "current_batch", "batch_start_us", "busy_us", "batches",
        "pending_task", "sessions", "token_buffer", "current_tick",
        "buffer_streams", "wake_at",
    )

    def __init__(self, index: int, engine, fault_plan: FaultPlan):
        self.index = index
        self.engine = engine
        self.fault_plan = fault_plan
        self.service_us = engine.sequence_microseconds()
        self.queue: list = []
        self.busy = False
        self.dead = False
        self.current_batch = None   # (batch_id, [ServingRequest, ...])
        self.batch_start_us = 0
        self.busy_us = 0
        self.batches = 0
        self.pending_task = None    # (batch_id, WorkerPool handle)
        self.sessions = None        # SessionManager (session mode only)
        self.token_buffer: list = []
        self.buffer_streams: dict = {}  # stream -> buffered-token count
        self.wake_at = None         # armed flush deadline, if any
        self.current_tick = None    # (tick_id, [TokenArrival], [verdicts])


class FleetServer:
    """Deterministic discrete-event server for a node's CSD fleet.

    Parameters
    ----------
    engines:
        One loaded :class:`~repro.core.engine.CSDInferenceEngine` per
        simulated device; all must share the model dimensions.
    streams:
        The monitored streams (also the workload's rate model).
    config:
        Batching/queueing/retry policy.
    planner:
        Optional :class:`~repro.core.fleet.FleetPlanner`; when given,
        streams are routed by its first-fit plan and device failures
        re-route via ``rebalance_after_failure``.  When the plan (or a
        rebalance) calls for more devices than the fleet has, the
        overflow spills round-robin onto the healthy devices and
        admission control sheds what the node cannot absorb.  Without a
        planner, streams are routed round-robin and failover re-routes
        round-robin over the healthy survivors.
    fault_plans:
        Mapping of device index to :class:`~repro.hw.faults.FaultPlan`;
        ``device_fail`` / ``device_degrade`` faults drive the failover
        and degradation paths.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; observation-only,
        never alters scheduling or numerics.
    workers:
        With ``workers > 1`` the devices' numeric batch work (the real
        ``infer_batch`` forward passes) offloads to one shared
        :class:`~repro.core.parallel.WorkerPool`, overlapping host
        computation across devices between simulated events.  Scheduling
        stays on the simulated clock, so the event log, completions, and
        probabilities are identical to ``workers=1`` (scheduling never
        consults the probabilities).  Requires a homogeneous fleet: all
        engines sharing one config and one weights object (what
        :func:`build_fleet` builds).  Per-engine ``csd.*`` span trees
        and ``sequences_processed`` stay with the workers in this mode;
        metrics merge exactly (see ``docs/performance.md``).
    router:
        Optional callable ``stream_name -> device index | None``.  When
        given it replaces the static stream→device dict for every
        routing decision (arrivals, failover re-buffering), which is how
        the control plane implements shard-affine routing over a stream
        population that is not known up front (see
        ``docs/control_plane.md``).  The callable must be deterministic.
    on_device_failed:
        Optional callable ``device_index -> None`` invoked when a fault
        plan kills a device *before* its sessions migrate.  With a
        ``router`` this replaces the built-in rerouting: the callback
        owner (the control plane) reassigns the dead device's shards so
        the subsequent checkpoint migration lands per its placement
        policy.
    on_verdict:
        Optional callable invoked with every
        :class:`StreamVerdictRecord` the moment it is delivered (on the
        simulated clock) — the hook the response subsystem
        (:class:`~repro.response.policy.FleetResponder`) uses to close
        the verdict → action loop.  If the callable has a ``bind``
        method it is called with this server first, so a bare responder
        can be passed directly.  Actions are available immediately:
        :meth:`quarantine_stream` sheds the stream's future arrivals
        (``tokens_shed["quarantined"]``), :meth:`kill_stream`
        additionally drops its session state.
    """

    def __init__(
        self,
        engines,
        streams,
        config: ServingConfig | None = None,
        planner: FleetPlanner | None = None,
        fault_plans: dict | None = None,
        telemetry=None,
        workers: int = 0,
        router=None,
        on_device_failed=None,
        on_verdict=None,
    ):
        engines = list(engines)
        if not engines:
            raise ValueError("a fleet needs at least one device")
        dims = engines[0].config.dimensions
        for engine in engines[1:]:
            if engine.config.dimensions != dims:
                raise ValueError("all fleet engines must share model dimensions")
        self.workers = int(workers)
        if self.workers > 1:
            head = engines[0]
            for engine in engines[1:]:
                if engine.config != head.config or engine.weights is not head.weights:
                    raise ValueError(
                        "workers > 1 requires a homogeneous fleet: every "
                        "engine must share one config and one weights "
                        "object (use build_fleet)"
                    )
        self.config = config or ServingConfig()
        self.streams = list(streams)
        self.planner = planner
        self.telemetry = telemetry
        self._router = router
        self._on_device_failed = on_device_failed
        if on_verdict is not None and hasattr(on_verdict, "bind"):
            on_verdict.bind(self)
        self._on_verdict = on_verdict
        self._quarantined: set = set()
        if router is not None and planner is not None:
            raise ValueError("router and planner are mutually exclusive")
        fault_plans = fault_plans or {}
        self.devices = [
            _Device(i, engine, fault_plans.get(i, FaultPlan()))
            for i, engine in enumerate(engines)
        ]
        if telemetry is not None:
            for engine in engines:
                engine.attach_telemetry(telemetry)

        self._plan: FleetPlan | None = None
        if planner is not None:
            self._plan = planner.plan(self.streams)
            self._stream_device = self._resolve_routes(self._plan)
        else:
            self._stream_device = {
                stream.name: i % len(self.devices)
                for i, stream in enumerate(self.streams)
            }

        self._sim = Simulator()
        self._events: list = []
        self._completed: list = []
        self._shed: dict = {}
        self._retries: dict = {}
        self._device_failures = 0
        self._offered = 0
        self._batch_counter = 0
        self._pool = None  # live only inside serve() when workers > 1

        # Session (token-stream) mode state; populated by begin_tokens().
        self._token_mode = False
        self._tokens_offered = 0
        self._tokens_shed: dict = {}
        self._verdict_records: list = []
        self._token_latencies: list = []
        self._migrated_sessions = 0
        self._tick_counter = 0
        self._token_step_us: dict = {}
        self._session_config: SessionConfig | None = None
        self._session_backend: str | None = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _resolve_routes(self, plan: FleetPlan) -> dict:
        """Map streams to physical devices, spilling oversubscribed plans.

        The planner sizes an *ideal* fleet; this server has a fixed one.
        Planned device indices beyond the physical fleet (an
        oversubscribed plan or rebalance) spill round-robin onto the
        healthy devices — admission control then sheds what the fleet
        truly cannot absorb, which is the honest failure mode for an
        undersized node.  Streams are unroutable only when no healthy
        device exists at all.
        """
        healthy = [d.index for d in self.devices if not d.dead]
        routes: dict = {}
        for assignment in plan.assignments:
            target = assignment.device_index
            if target >= len(self.devices) or self.devices[target].dead:
                if not healthy:
                    continue
                target = healthy[assignment.device_index % len(healthy)]
            for stream in assignment.streams:
                routes[stream.name] = target
        return routes

    def _routable_device(self, index) -> "_Device | None":
        """The healthy physical device at ``index``, if any."""
        if index is None or not 0 <= index < len(self.devices):
            return None
        device = self.devices[index]
        return None if device.dead else device

    def _route(self, stream: str) -> "_Device | None":
        """Resolve a stream to its healthy device (router or static dict)."""
        if self._router is not None:
            return self._routable_device(self._router(stream))
        return self._routable_device(self._stream_device.get(stream))

    def _healthy_devices(self, exclude: int | None = None) -> list:
        devices = [d for d in self.devices if not d.dead and d.index != exclude]
        if not devices:  # fall back to the excluded device if it is all we have
            devices = [d for d in self.devices if not d.dead]
        return devices

    # ------------------------------------------------------------------
    # Telemetry + event-log helpers (observation only)
    # ------------------------------------------------------------------

    def _log(self, kind: str, **details) -> None:
        self._events.append(
            (self._sim.now, kind, tuple(sorted(details.items())))
        )

    def _set_queue_gauge(self, device: _Device) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge(
                "repro_serve_queue_depth", device=device.index
            ).set(len(device.queue))

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def _arrive(self, request: ServingRequest) -> None:
        self._offered += 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_requests_total").inc()
        self._log("arrival", request=request.request_id, stream=request.stream)
        device = self._route(request.stream)
        if device is None:
            self._shed_request(request, SHED_NO_DEVICE)
            return
        self._admit(device, request)

    def _admit(self, device: _Device, request: ServingRequest) -> None:
        if len(device.queue) >= self.config.queue_depth:
            self._shed_request(request, SHED_QUEUE_FULL)
            return
        request.enqueued_us = self._sim.now
        device.queue.append(request)
        self._set_queue_gauge(device)
        self._log("enqueue", request=request.request_id, device=device.index)
        self._maybe_flush(device)

    def _shed_request(self, request: ServingRequest, reason: str) -> None:
        self._shed[reason] = self._shed.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_shed_total", reason=reason).inc()
        self._log("shed", request=request.request_id, reason=reason)

    def _retry(self, request: ServingRequest, reason: str,
               exclude: int | None = None) -> None:
        request.attempts += 1
        if request.attempts > self.config.max_retries:
            self._shed_request(request, SHED_RETRIES)
            return
        self._retries[reason] = self._retries.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_retries_total", reason=reason).inc()
        self._log("retry", request=request.request_id, reason=reason)
        candidates = self._healthy_devices(exclude=exclude)
        if not candidates:
            self._shed_request(request, SHED_NO_DEVICE)
            return
        target = min(candidates, key=lambda d: (len(d.queue), d.index))
        self._admit(target, request)

    # ------------------------------------------------------------------
    # Dynamic batching
    # ------------------------------------------------------------------

    def _maybe_flush(self, device: _Device) -> None:
        """Flush if the batching policy says so, else arm a deadline wake."""
        if device.dead or device.busy or not device.queue:
            return
        now = self._sim.now
        oldest_wait = now - device.queue[0].enqueued_us
        if (len(device.queue) >= self.config.max_batch
                or oldest_wait >= self.config.max_wait_us):
            self._execute_batch(device)
            return
        wake_at = device.queue[0].enqueued_us + self.config.max_wait_us
        self._sim.schedule(wake_at - now, lambda: self._maybe_flush(device))

    def _execute_batch(self, device: _Device) -> None:
        now = self._sim.now
        batch: list = []
        timed_out: list = []
        while device.queue and len(batch) < self.config.max_batch:
            request = device.queue.pop(0)
            if now - request.enqueued_us >= self.config.timeout_us:
                timed_out.append(request)
            else:
                batch.append(request)
        self._set_queue_gauge(device)
        if batch:
            # Launch before processing retries: a retry may re-admit to
            # this device, and the busy flag keeps that from re-entering
            # the flush path mid-launch.
            self._batch_counter += 1
            batch_id = self._batch_counter
            device.busy = True
            device.current_batch = (batch_id, batch)
            device.batch_start_us = now
            if self._pool is not None:
                # Start the real forward pass now; it overlaps with other
                # devices' work until the simulated completion event
                # collects it in _complete_batch.
                device.pending_task = (
                    batch_id,
                    self._pool.submit_infer(
                        np.stack([request.sequence for request in batch])
                    ),
                )
            slowdown = device.fault_plan.service_slowdown(now)
            service_us = max(
                1, math.ceil(len(batch) * device.service_us * slowdown)
            )
            self._log(
                "batch_start", batch=batch_id, device=device.index,
                size=len(batch), requests=tuple(r.request_id for r in batch),
                service_us=service_us,
            )
            self._sim.schedule(
                service_us, lambda: self._complete_batch(device, batch_id)
            )
        for request in timed_out:
            self._retry(request, RETRY_TIMEOUT, exclude=device.index)
        if not batch:
            self._maybe_flush(device)  # everything timed out; look again

    def _complete_batch(self, device: _Device, batch_id: int) -> None:
        if device.dead or device.current_batch is None:
            return  # aborted by a device failure
        current_id, batch = device.current_batch
        if current_id != batch_id:
            return  # stale completion event
        now = self._sim.now
        if device.pending_task is not None and device.pending_task[0] == batch_id:
            probabilities = self._pool.result(device.pending_task[1])
            device.pending_task = None
        else:
            sequences = np.stack([request.sequence for request in batch])
            probabilities = device.engine.infer_batch(sequences).probabilities
        device.busy = False
        device.current_batch = None
        device.busy_us += now - device.batch_start_us
        device.batches += 1
        for request, probability in zip(batch, probabilities):
            record = CompletedRequest(
                request_id=request.request_id,
                stream=request.stream,
                sequence=request.sequence,
                device=device.index,
                probability=float(probability),
                arrival_us=request.arrival_us,
                completion_us=now,
                attempts=request.attempts,
            )
            self._completed.append(record)
        if self.telemetry is not None:
            telemetry = self.telemetry
            telemetry.counter("repro_serve_completed_total").inc(len(batch))
            telemetry.counter("repro_serve_batches_total").inc()
            telemetry.histogram("repro_serve_batch_size").observe(len(batch))
            for request in batch:
                telemetry.histogram("repro_serve_latency_seconds").observe(
                    (now - request.arrival_us) * 1e-6
                )
            telemetry.tracer.record(
                "serve.batch", device.batch_start_us, now,
                attributes={
                    "device": device.index, "batch_size": len(batch),
                    "unit": "us",
                },
            )
        self._log(
            "batch_complete", batch=batch_id, device=device.index,
            requests=tuple(r.request_id for r in batch),
            probabilities=tuple(float(p) for p in probabilities),
        )
        self._maybe_flush(device)

    # ------------------------------------------------------------------
    # Failure + failover
    # ------------------------------------------------------------------

    def _fail_device(self, device: _Device) -> None:
        if device.dead:
            return
        now = self._sim.now
        device.dead = True
        self._device_failures += 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_device_failures_total").inc()
        self._log("device_failed", device=device.index)
        if self._router is not None:
            if self._on_device_failed is not None:
                self._on_device_failed(device.index)
        else:
            self._reroute_after_failure(device.index)
        if device.sessions is not None:
            self._failover_sessions(device)
            return
        orphans: list = []
        if device.current_batch is not None:
            batch_id, batch = device.current_batch
            self._log(
                "batch_abort", batch=batch_id, device=device.index,
                requests=tuple(r.request_id for r in batch),
            )
            device.busy_us += now - device.batch_start_us
            device.busy = False
            device.current_batch = None
            if device.pending_task is not None:
                if self._pool is not None:
                    self._pool.discard(device.pending_task[1])
                device.pending_task = None
            orphans.extend(batch)
        orphans.extend(device.queue)
        device.queue = []
        self._set_queue_gauge(device)
        for request in orphans:
            self._retry(request, RETRY_FAILOVER, exclude=device.index)

    def _reroute_after_failure(self, failed_index: int) -> None:
        if self.planner is not None and self._plan is not None:
            try:
                self._plan = self.planner.rebalance_after_failure(
                    self._plan, failed_index
                )
            except KeyError:
                pass  # the failed device carried no planned streams
            else:
                self._stream_device = self._resolve_routes(self._plan)
                return
        # Planner-less (or unplanned device): round-robin the failed
        # device's streams over the healthy survivors.
        healthy = [d.index for d in self.devices if not d.dead]
        reassigned = 0
        for name in sorted(self._stream_device):
            if self._stream_device[name] == failed_index:
                if healthy:
                    self._stream_device[name] = healthy[reassigned % len(healthy)]
                    reassigned += 1
                else:
                    del self._stream_device[name]

    # ------------------------------------------------------------------
    # Session (token-stream) mode
    # ------------------------------------------------------------------

    def _token_arrive(self, arrival: TokenArrival) -> None:
        self._tokens_offered += 1
        if arrival.stream in self._quarantined:
            self._shed_token(arrival, SHED_QUARANTINED)
            return
        device = self._route(arrival.stream)
        if device is None:
            self._shed_token(arrival, SHED_NO_DEVICE)
            return
        self._buffer_token(device, arrival)

    def _buffer_token(self, device: _Device, arrival: TokenArrival) -> None:
        if len(device.token_buffer) >= self.config.queue_depth:
            self._shed_token(arrival, SHED_QUEUE_FULL)
            return
        device.token_buffer.append((self._sim.now, arrival))
        streams = device.buffer_streams
        streams[arrival.stream] = streams.get(arrival.stream, 0) + 1
        self._maybe_flush_tokens(device)

    def _shed_token(self, arrival: TokenArrival, reason: str) -> None:
        self._tokens_shed[reason] = self._tokens_shed.get(reason, 0) + 1
        self._log("token_shed", stream=arrival.stream, reason=reason)

    def _maybe_flush_tokens(self, device: _Device) -> None:
        """Run a tick if the batching policy says so, else arm a wake.

        The same policy shape as request-mode ``_maybe_flush``, counted
        in *distinct streams*: a tick steps at most one token per stream
        (per-stream order is sacred), so only cross-stream accumulation
        widens the batched matmul.
        """
        if device.dead or device.busy or not device.token_buffer:
            return
        now = self._sim.now
        distinct = len(device.buffer_streams)
        oldest_wait = now - device.token_buffer[0][0]
        if (distinct >= self.config.max_batch
                or oldest_wait >= self.config.max_wait_us):
            self._execute_tick(device)
            return
        wake_at = device.token_buffer[0][0] + self.config.max_wait_us
        if device.wake_at != wake_at:
            # One armed wake per buffer head: re-arming on every arrival
            # would schedule O(buffer) no-op events per tick.
            device.wake_at = wake_at
            self._sim.schedule(wake_at - now, lambda: self._token_wake(device))

    def _token_wake(self, device: _Device) -> None:
        device.wake_at = None
        self._maybe_flush_tokens(device)

    def _execute_tick(self, device: _Device) -> None:
        """Step one buffered token per stream through the session manager.

        The numeric step runs at tick *launch* (host simulation is
        instantaneous on the simulated clock); verdict delivery waits for
        the simulated service completion.  Per-slot-row service cost is
        one LSTM timestep (``per_item_microseconds``), which is the whole
        point: smooth incremental cost instead of whole-window recompute
        bursts.
        """
        now = self._sim.now
        tick_tokens: dict = {}
        tick_arrivals: list = []
        rest: list = []
        for entry in device.token_buffer:
            arrival = entry[1]
            if arrival.stream in tick_tokens:
                rest.append(entry)
            else:
                tick_tokens[arrival.stream] = arrival.token
                tick_arrivals.append(arrival)
        device.token_buffer = rest
        device.wake_at = None
        streams = device.buffer_streams
        for stream in tick_tokens:
            remaining = streams[stream] - 1
            if remaining:
                streams[stream] = remaining
            else:
                del streams[stream]
        rows_before = device.sessions.slot_steps
        verdicts = device.sessions.step(tick_tokens)
        rows = device.sessions.slot_steps - rows_before
        self._tick_counter += 1
        tick_id = self._tick_counter
        device.busy = True
        device.batch_start_us = now
        device.current_tick = (tick_id, tick_arrivals, verdicts)
        step_us = self._token_step_us.get(device.index)
        if step_us is None:
            step_us = device.engine.per_item_microseconds()
            self._token_step_us[device.index] = step_us
        slowdown = device.fault_plan.service_slowdown(now)
        service_us = max(1, math.ceil(max(rows, 1) * step_us * slowdown))
        self._log(
            "tick_start", tick=tick_id, device=device.index,
            streams=len(tick_arrivals), rows=rows, service_us=service_us,
        )
        self._sim.schedule(
            service_us, lambda: self._complete_tick(device, tick_id)
        )

    def _complete_tick(self, device: _Device, tick_id: int) -> None:
        if device.dead or device.current_tick is None:
            return  # handled by the failure path
        current_id, arrivals, verdicts = device.current_tick
        if current_id != tick_id:
            return  # stale wake
        now = self._sim.now
        device.busy = False
        device.current_tick = None
        device.busy_us += now - device.batch_start_us
        device.batches += 1
        self._deliver_tick(device, tick_id, arrivals, verdicts)
        self._maybe_flush_tokens(device)

    def _deliver_tick(self, device: _Device, tick_id: int, arrivals: list,
                      verdicts: list, aborted: bool = False) -> None:
        now = self._sim.now
        arrived_at: dict = {}
        for arrival in arrivals:
            self._token_latencies.append(now - arrival.arrival_us)
            arrived_at[arrival.stream] = arrival.arrival_us
        for verdict in verdicts:
            record = StreamVerdictRecord(
                stream=verdict.session,
                window_index=verdict.window_index,
                probability=verdict.probability,
                is_ransomware=verdict.is_ransomware,
                device=device.index,
                completion_us=now,
                latency_us=now - arrived_at.get(verdict.session, now),
            )
            self._verdict_records.append(record)
            if self._on_verdict is not None:
                self._on_verdict(record)
        self._log(
            "tick_complete", tick=tick_id, device=device.index,
            verdicts=len(verdicts), aborted=aborted,
        )

    def _failover_sessions(self, device: _Device) -> None:
        """Hand a dead device's session state to the survivors.

        The tick in flight at failure already advanced the session state
        (the step runs at launch), so its verdicts are delivered rather
        than dropped — the per-stream verdict sequence is invariant
        under failures; only timing shifts.  Every session the device
        held (resident or checkpointed) moves as a checkpoint to the
        stream's re-routed device (``release``: the dead device keeps no
        copy), along with the buffered tokens.
        """
        if device.current_tick is not None:
            device.busy_us += self._sim.now - device.batch_start_us
            device.busy = False
            tick_id, arrivals, verdicts = device.current_tick
            device.current_tick = None
            self._deliver_tick(device, tick_id, arrivals, verdicts,
                               aborted=True)
        migrated = 0
        for key in device.sessions.known_keys():
            target = self._route(key)
            if target is None or target.sessions is None:
                continue
            target.sessions.import_checkpoint(device.sessions.release(key))
            migrated += 1
        self._migrated_sessions += migrated
        self._log("sessions_migrated", device=device.index, count=migrated)
        buffered = device.token_buffer
        device.token_buffer = []
        device.buffer_streams = {}
        device.wake_at = None
        for _, arrival in buffered:
            target = self._route(arrival.stream)
            if target is None:
                self._shed_token(arrival, SHED_NO_DEVICE)
                continue
            self._buffer_token(target, arrival)

    def begin_tokens(self, sessions: SessionConfig | None = None,
                     backend: str | None = None) -> None:
        """Enter session (token-stream) mode without running anything yet.

        Gives every device a fresh
        :class:`~repro.core.sessions.SessionManager` and schedules the
        fault plans.  Pair with :meth:`ingest_tokens` /
        :meth:`run_tokens_until` to step the simulation in bounded
        rounds (the control plane's loop), and :meth:`finish_tokens` to
        drain the queue and build the report.  :meth:`serve_tokens` is
        exactly this sequence in one call.
        """
        if self._token_mode:
            raise RuntimeError("token mode already begun")
        self._token_mode = True
        self._session_config = sessions or SessionConfig()
        self._session_backend = backend
        for device in self.devices:
            device.sessions = SessionManager(
                device.engine, self._session_config, backend=backend
            )
        for device in self.devices:
            fail = device.fault_plan.device_fail
            if fail is not None:
                self._sim.schedule(
                    fail.at_us, (lambda d: lambda: self._fail_device(d))(device)
                )

    def ingest_tokens(self, arrivals) -> int:
        """Schedule token arrivals (each at or after the current clock)."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        now = self._sim.now
        count = 0
        for arrival in arrivals:
            if arrival.arrival_us < now:
                raise ValueError(
                    f"arrival at {arrival.arrival_us}us is in the past "
                    f"(now={now}us)"
                )
            self._sim.schedule(
                arrival.arrival_us - now,
                (lambda a: lambda: self._token_arrive(a))(arrival),
            )
            count += 1
        return count

    def run_tokens_until(self, until_us: int | None = None,
                         max_events: int | None = None) -> int:
        """Fire queued events up to ``until_us``; returns the clock."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        return self._sim.run(max_events=max_events, until=until_us)

    def finish_tokens(self, max_events: int | None = 1_000_000
                      ) -> SessionServingReport:
        """Drain remaining events and build the session-mode report."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        duration = self._sim.run(max_events=max_events)
        if self.telemetry is not None:
            horizon = max(duration, 1)
            for device in self.devices:
                self.telemetry.gauge(
                    "repro_serve_device_utilization", device=device.index
                ).set(device.busy_us / horizon)
        return SessionServingReport(
            verdicts=tuple(self._verdict_records),
            tokens_offered=self._tokens_offered,
            tokens_shed=dict(self._tokens_shed),
            migrated_sessions=self._migrated_sessions,
            device_failures=self._device_failures,
            event_log=tuple(self._events),
            duration_us=duration,
            device_busy_us=tuple(d.busy_us for d in self.devices),
            token_latencies=tuple(self._token_latencies),
            session_stats=tuple(d.sessions.stats() for d in self.devices),
        )

    def serve_tokens(self, arrivals,
                     sessions: SessionConfig | None = None,
                     backend: str | None = None) -> SessionServingReport:
        """Run the session-mode simulation over a token-arrival schedule.

        Each device runs a :class:`~repro.core.sessions.SessionManager`
        over its affine streams (the same stream→device routing the
        request path uses), stepping one buffered token per stream per
        tick through one stacked batched matmul.  Device failures
        migrate session checkpoints to the re-routed devices, so
        monitoring continues without losing window state.  Deterministic
        like :meth:`serve`: one seed → identical event logs and verdicts.

        ``backend`` overrides the per-device kernel backend (see
        :mod:`repro.core.kernels.backends`); ``None`` uses each engine's
        configured backend.  Checkpoint migration between devices is
        backend-neutral, so mixed fleets stay bit-exact.
        """
        self.begin_tokens(sessions=sessions, backend=backend)
        self.ingest_tokens(sorted(arrivals, key=lambda a: (a.arrival_us, a.stream)))
        return self.finish_tokens()

    @property
    def clock_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._sim.now

    @property
    def session_verdicts(self) -> list:
        """Live list of delivered :class:`StreamVerdictRecord` (read-only).

        Incremental callers (the control plane) slice from their last
        cursor instead of waiting for :meth:`finish_tokens`; treat the
        list as append-only.
        """
        return self._verdict_records

    # ------------------------------------------------------------------
    # Session-mode response actions (quarantine / kill)
    # ------------------------------------------------------------------

    @property
    def quarantined_streams(self) -> frozenset:
        """Streams currently shed at admission."""
        return frozenset(self._quarantined)

    def quarantine_stream(self, stream) -> None:
        """Shed all future arrivals for ``stream`` at admission.

        Already-buffered tokens still tick through (their session steps
        are in flight on the simulated clock); the stream's window state
        is kept so triage can continue to read it.  Idempotent.
        """
        self._quarantined.add(stream)
        self._log("stream_quarantined", stream=stream)

    def release_stream(self, stream) -> None:
        """Lift a quarantine (operator action after triage)."""
        if stream in self._quarantined:
            self._quarantined.discard(stream)
            self._log("stream_released", stream=stream)

    def kill_stream(self, stream) -> None:
        """Quarantine ``stream`` and drop its session state everywhere.

        The escalation beyond :meth:`quarantine_stream`: buffered tokens
        are discarded (counted as ``tokens_shed["quarantined"]``) and the
        owning device's session slot is closed, so the stream cannot
        produce further verdicts.  Idempotent.
        """
        self._quarantined.add(stream)
        for device in self.devices:
            if device.token_buffer:
                keep = []
                for entry in device.token_buffer:
                    if entry[1].stream == stream:
                        self._shed_token(entry[1], SHED_QUARANTINED)
                    else:
                        keep.append(entry)
                device.token_buffer = keep
                device.buffer_streams.pop(stream, None)
            if device.sessions is not None and stream in device.sessions:
                device.sessions.close(stream)
        self._log("stream_killed", stream=stream)

    # ------------------------------------------------------------------
    # Session-mode fleet membership (drain / standby / rebalance)
    # ------------------------------------------------------------------

    def drain_device(self, index: int) -> int:
        """Gracefully take a session-mode device out of service.

        The same state hand-off as a failure — the in-flight tick's
        verdicts deliver (the step ran at launch), every held session
        migrates as a checkpoint to its re-routed device, buffered
        tokens re-buffer in order — but counted as a drain, not a
        failure.  The caller must re-route the device's streams *first*
        (reassign its shards, or rely on the planner-less round-robin by
        calling with the static dict in place).  Returns the number of
        sessions migrated.
        """
        device = self.devices[index]
        if device.dead:
            return 0
        if device.sessions is None:
            raise RuntimeError("drain_device requires session (token) mode")
        device.dead = True
        self._log("device_drained", device=device.index)
        if self._router is None:
            self._reroute_after_failure(device.index)
        before = self._migrated_sessions
        self._failover_sessions(device)
        return self._migrated_sessions - before

    def deactivate_device(self, index: int) -> None:
        """Hold an *empty* device out of service (autoscaling standby)."""
        device = self.devices[index]
        if device.dead:
            return
        if device.sessions is not None and (
            device.sessions.resident_count or device.sessions.checkpointed_count
        ):
            raise RuntimeError(
                "deactivate_device requires an empty device; use drain_device"
            )
        device.dead = True
        self._log("device_standby", device=device.index)

    def restore_device(self, index: int) -> None:
        """Return a drained/standby device to service, state reset.

        In session mode the device comes back with a fresh
        :class:`~repro.core.sessions.SessionManager` (post-upgrade, a
        real drive boots empty); the caller routes shards back to it.
        """
        device = self.devices[index]
        if not device.dead:
            return
        device.dead = False
        device.busy = False
        device.current_tick = None
        device.token_buffer = []
        device.buffer_streams = {}
        device.wake_at = None
        if self._token_mode:
            device.sessions = SessionManager(
                device.engine, self._session_config,
                backend=self._session_backend,
            )
        self._log("device_restored", device=device.index)

    def migrate_streams(self, from_index: int, to_index: int, streams) -> int:
        """Move live session state + buffered tokens between healthy devices.

        The shard-rebalancing primitive: unlike the failure/drain paths
        the source stays in service, so sessions are *released* (moved,
        counted ``migrated``) rather than copied.  The caller must have
        re-routed ``streams`` to ``to_index`` already.  Returns the
        number of sessions moved.
        """
        source = self.devices[from_index]
        target = self.devices[to_index]
        if source.sessions is None or target.sessions is None:
            raise RuntimeError("migrate_streams requires session (token) mode")
        if target.dead:
            raise ValueError(f"target device {to_index} is out of service")
        wanted = set(streams)
        moved = 0
        for key in source.sessions.known_keys():
            if key in wanted:
                target.sessions.import_checkpoint(source.sessions.release(key))
                moved += 1
        if moved:
            self._migrated_sessions += moved
            self._log("sessions_migrated", device=from_index, count=moved,
                      target=to_index)
        if wanted & source.buffer_streams.keys():
            keep: list = []
            moving: list = []
            for entry in source.token_buffer:
                if entry[1].stream in wanted:
                    moving.append(entry)
                else:
                    keep.append(entry)
            source.token_buffer = keep
            source.wake_at = None
            counts: dict = {}
            for entry in keep:
                stream = entry[1].stream
                counts[stream] = counts.get(stream, 0) + 1
            source.buffer_streams = counts
            for _, arrival in moving:
                self._buffer_token(target, arrival)
        return moved

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def serve(self, requests) -> ServingReport:
        """Run the full simulation over ``requests``; returns the report.

        Every request is resolved by the end of the run — completed, or
        shed with an explicit reason — because all wake-ups are
        scheduled on the event queue and the simulator drains it.
        """
        requests = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        pool = None
        if self.workers > 1:
            from repro.core.parallel import WorkerPool

            head = self.devices[0].engine
            pool = WorkerPool(
                head.config, head.weights, self.workers,
                telemetry=self.telemetry, local_engine=head,
            )
            if pool.mode != "pool":
                # Degraded environment: running inline on the device
                # engines keeps their span trees and statistics.
                pool.close()
                pool = None
        self._pool = pool
        try:
            for device in self.devices:
                fail = device.fault_plan.device_fail
                if fail is not None:
                    self._sim.schedule(
                        fail.at_us, (lambda d: lambda: self._fail_device(d))(device)
                    )
            for request in requests:
                self._sim.schedule(
                    request.arrival_us, (lambda r: lambda: self._arrive(r))(request)
                )
            duration = self._sim.run()
        finally:
            self._pool = None
            if pool is not None:
                pool.close()
        if self.telemetry is not None:
            horizon = max(duration, 1)
            for device in self.devices:
                self.telemetry.gauge(
                    "repro_serve_device_utilization", device=device.index
                ).set(device.busy_us / horizon)
        return ServingReport(
            completed=tuple(self._completed),
            shed=dict(self._shed),
            retries=dict(self._retries),
            device_failures=self._device_failures,
            event_log=tuple(self._events),
            duration_us=duration,
            device_busy_us=tuple(d.busy_us for d in self.devices),
            offered=self._offered,
        )


def build_fleet(weights, num_devices: int, config=None) -> list:
    """Build ``num_devices`` engines sharing one set of host weights.

    ``weights`` is a :class:`~repro.core.weights.HostWeights`;  every
    device runs the same deployed model, as on a real multi-CSD node.
    """
    from repro.core.engine import CSDInferenceEngine

    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if config is None:
        from repro.core.config import EngineConfig

        config = EngineConfig(dimensions=weights.dimensions)
    return [CSDInferenceEngine(config, weights) for _ in range(num_devices)]
