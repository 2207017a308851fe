"""Hierarchical fleet control plane: rack → node → drive at datacenter scale.

The ROADMAP's north star is the paper's deployment story taken
seriously: *millions* of monitored process streams across a datacenter
of CSD-equipped nodes, not one flat list of drives.  This module is
that next tier up.  It layers a deterministic control plane over
:class:`~repro.core.serving.FleetServer` +
:class:`~repro.core.sessions.SessionManager`:

* **Topology** — drives live at (rack, node, slot) coordinates
  (:class:`TopologySpec`); placement and migration decisions prefer
  same-node, then same-rack targets, so a stream's checkpoint state
  moves the shortest possible distance.
* **Shard-affine routing** — streams hash (CRC-32, never Python's
  randomized ``hash``) onto a fixed shard ring (:class:`ShardRouter`);
  each shard has one primary drive and migrates *as a unit*, so routing
  state is O(shards), not O(streams) — the property that makes a
  million concurrent session streams tractable.
* **QoS classes + admission control** — tenants declare
  :class:`QosClass` (priority, stream cap); new streams beyond a
  class's cap are denied, and when a drive's per-round token capacity
  is oversubscribed the lowest-priority tokens shed first, all counted
  per class (``repro_cp_*`` metrics).
* **Autoscaling** — a watermark policy (:class:`AutoscalePolicy`) with
  sustain + cooldown hysteresis activates standby drives under load and
  drains the emptiest slot when idle, driven by the per-round
  arrival-rate signal (mirrored by the ``repro_cp_arrival_rate``
  gauge).
* **Rolling drain/upgrade** — :meth:`ControlPlane.drain` and
  :meth:`ControlPlane.start_rolling_upgrade` take drives out of service
  via the existing checkpoint export/import migration; per-stream
  verdict sequences are *invariant* under drains (only timing and the
  serving device change), the same guarantee the failure path gives.

Everything runs on the simulated microsecond clock in fixed-length
rounds (:meth:`ControlPlane.run_round`): admit → throttle → ingest →
run the event core to the round boundary → autoscale/upgrade.  One
seed → byte-identical verdicts, event logs, and counters.  See
``docs/control_plane.md`` for the operator contract.
"""

from __future__ import annotations

import dataclasses
import math
import zlib

import numpy as np

from repro.core.serving import (
    FleetServer,
    ServingConfig,
    SessionServingReport,
    TokenArrival,
    nearest_rank_percentile,
)
from repro.core.sessions import SessionConfig

#: Shed/deny reasons (the ``reason`` label of ``repro_cp_tokens_shed_total``).
DENY_CLASS_CAP = "class_cap"
SHED_THROTTLED = "throttled"

#: Drain reasons (the ``reason`` label of ``repro_cp_drains_total``).
DRAIN_MANUAL = "manual"
DRAIN_UPGRADE = "upgrade"
DRAIN_SCALE_DOWN = "scale_down"

#: Scale directions (the ``direction`` label of ``repro_cp_scale_events_total``).
SCALE_UP = "up"
SCALE_DOWN = "down"


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """The physical shape of the fleet: racks of nodes of drive slots.

    Parameters
    ----------
    racks, nodes_per_rack, drives_per_node:
        Installed hardware; ``total_drives`` engines must be supplied to
        :class:`ControlPlane`.
    active_per_node:
        Drives per node initially in service; the rest (higher slots)
        start as autoscaling standby.  ``None`` activates everything.
    shards_per_drive:
        Shard-ring granularity: the ring has ``total_drives *
        shards_per_drive`` shards, so even a fully scaled-up fleet has
        several migratable units per drive.
    """

    racks: int = 1
    nodes_per_rack: int = 1
    drives_per_node: int = 2
    active_per_node: int | None = None
    shards_per_drive: int = 4

    def __post_init__(self) -> None:
        for field in ("racks", "nodes_per_rack", "drives_per_node",
                      "shards_per_drive"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.active_per_node is not None and not (
                1 <= self.active_per_node <= self.drives_per_node):
            raise ValueError(
                f"active_per_node must be in [1, {self.drives_per_node}], "
                f"got {self.active_per_node}"
            )

    @property
    def total_nodes(self) -> int:
        """Nodes in the fleet (racks x nodes_per_rack)."""
        return self.racks * self.nodes_per_rack

    @property
    def total_drives(self) -> int:
        """Installed drives (engines the control plane needs)."""
        return self.total_nodes * self.drives_per_node

    @property
    def initial_active_per_node(self) -> int:
        """Drives per node in service at start."""
        return (self.drives_per_node if self.active_per_node is None
                else self.active_per_node)

    @property
    def num_shards(self) -> int:
        """Size of the shard ring."""
        return self.total_drives * self.shards_per_drive

    def node_of(self, drive: int) -> int:
        """Global node id of a drive index."""
        return drive // self.drives_per_node

    def rack_of(self, drive: int) -> int:
        """Rack id of a drive index."""
        return self.node_of(drive) // self.nodes_per_rack

    def slot_of(self, drive: int) -> int:
        """Slot of a drive within its node."""
        return drive % self.drives_per_node

    def drives_of_node(self, node: int) -> range:
        """Drive indices installed in a node."""
        start = node * self.drives_per_node
        return range(start, start + self.drives_per_node)

    def coord(self, drive: int) -> tuple:
        """(rack, node, slot) of a drive index."""
        return (self.rack_of(drive), self.node_of(drive), self.slot_of(drive))


@dataclasses.dataclass(frozen=True)
class QosClass:
    """One tenant/QoS class: who gets admitted, who sheds last.

    ``max_streams`` caps *concurrent admitted streams* (``None`` =
    unbounded, ``0`` = a zero-capacity class that denies everything);
    ``priority`` orders shedding when a drive's per-round token capacity
    is oversubscribed — higher priorities shed last.
    """

    name: str
    priority: int = 0
    max_streams: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("QosClass name must be non-empty")
        if self.max_streams is not None and self.max_streams < 0:
            raise ValueError(
                f"max_streams must be >= 0 or None, got {self.max_streams}"
            )


@dataclasses.dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark autoscaler with sustain + cooldown hysteresis.

    Per node and per round the signal is ``offered tokens / (active
    drives x per-drive token capacity)``.  A node must sit beyond a
    watermark for ``sustain_rounds`` *consecutive* rounds to act, and
    after acting waits ``cooldown_rounds`` before acting again — the two
    knobs that make the autoscale-flapping test pass by construction.
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.25
    sustain_rounds: int = 2
    cooldown_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.low_watermark < self.high_watermark:
            raise ValueError(
                "need 0 < low_watermark < high_watermark, got "
                f"{self.low_watermark} / {self.high_watermark}"
            )
        if self.sustain_rounds < 1:
            raise ValueError(
                f"sustain_rounds must be >= 1, got {self.sustain_rounds}"
            )
        if self.cooldown_rounds < 0:
            raise ValueError(
                f"cooldown_rounds must be >= 0, got {self.cooldown_rounds}"
            )


@dataclasses.dataclass(frozen=True)
class ControlPlaneConfig:
    """Policy bundle of the control plane.

    Parameters
    ----------
    round_us:
        Length of one control round in simulated microseconds; all
        admission, autoscaling, and drain decisions happen at round
        boundaries.
    drive_tokens_per_round:
        Per-drive token capacity the QoS throttle enforces each round.
        ``None`` derives it from the engine's per-token service time:
        ``floor(round_us * headroom / per_item_microseconds)``.
    headroom:
        Fraction of a drive-round the derived capacity may fill.
    classes:
        The :class:`QosClass` tuple (unique names; order fixes the
        fallback class for unclassified streams — the first entry).
    autoscale:
        :class:`AutoscalePolicy`, or ``None`` to pin the fleet.
    serving / sessions / backend:
        Passed through to :class:`~repro.core.serving.FleetServer` and
        each drive's :class:`~repro.core.sessions.SessionManager`.
    max_events_per_round:
        Optional event-count guard handed to the simulator each round
        (``None`` = unguarded; million-stream rounds legitimately fire
        hundreds of thousands of events).
    on_verdict:
        Optional per-verdict callback handed to the
        :class:`~repro.core.serving.FleetServer` — typically a
        :class:`~repro.response.policy.FleetResponder`, closing the
        verdict → action loop at fleet scale (see ``docs/response.md``).
    """

    round_us: int = 5_000
    drive_tokens_per_round: int | None = None
    headroom: float = 0.8
    classes: tuple = (QosClass("default"),)
    autoscale: AutoscalePolicy | None = dataclasses.field(
        default_factory=AutoscalePolicy
    )
    serving: ServingConfig = dataclasses.field(default_factory=ServingConfig)
    sessions: SessionConfig = dataclasses.field(default_factory=SessionConfig)
    backend: str | None = None
    max_events_per_round: int | None = None
    on_verdict: object = None

    def __post_init__(self) -> None:
        if self.round_us < 1:
            raise ValueError(f"round_us must be >= 1, got {self.round_us}")
        if not 0 < self.headroom <= 1:
            raise ValueError(f"headroom must be in (0, 1], got {self.headroom}")
        if self.drive_tokens_per_round is not None and self.drive_tokens_per_round < 1:
            raise ValueError(
                "drive_tokens_per_round must be >= 1 or None, got "
                f"{self.drive_tokens_per_round}"
            )
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("need at least one QosClass")
        names = [qos.name for qos in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate QosClass names: {names}")
        object.__setattr__(self, "classes", classes)


class ShardRouter:
    """CRC-32 shard ring with a shard → primary-drive placement table.

    Streams hash onto shards with :func:`zlib.crc32` (stable across
    processes, unlike Python's randomized string ``hash``); shards map
    to one primary drive each.  Rebalancing reassigns shards, never
    individual streams, so the table stays O(shards).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._primary: list = [None] * num_shards
        self._by_drive: dict = {}

    def shard_of(self, stream: str) -> int:
        """Deterministic shard of a stream name."""
        return zlib.crc32(stream.encode("utf-8")) % self.num_shards

    def device_of(self, stream: str) -> int | None:
        """Primary drive of a stream's shard (``None`` if unplaced)."""
        return self._primary[self.shard_of(stream)]

    def primary(self, shard: int) -> int | None:
        """Primary drive of a shard."""
        return self._primary[shard]

    def assign(self, shard: int, drive: int | None) -> None:
        """Point a shard at a new primary drive (``None`` unplaces it)."""
        old = self._primary[shard]
        if old is not None:
            self._by_drive[old].discard(shard)
        self._primary[shard] = drive
        if drive is not None:
            self._by_drive.setdefault(drive, set()).add(shard)

    def shards_on(self, drive: int) -> tuple:
        """Sorted shards whose primary is ``drive``."""
        return tuple(sorted(self._by_drive.get(drive, ())))


@dataclasses.dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling action (also counted by ``repro_cp_scale_events_total``)."""

    round_index: int
    node: int
    direction: str
    drive: int


@dataclasses.dataclass(frozen=True)
class ControlPlaneReport:
    """Plain-data outcome of a control-plane run.

    ``serving`` is the underlying
    :class:`~repro.core.serving.SessionServingReport` (verdicts, event
    log, per-drive session stats); everything else is the control
    plane's own accounting.  All counters mirror the ``repro_cp_*``
    telemetry exactly.
    """

    rounds: int
    duration_us: int
    tokens_offered: int
    tokens_admitted: dict
    tokens_shed: dict            # class -> reason -> count
    streams_offered: dict
    streams_admitted: dict
    streams_denied: dict
    scale_events: tuple          # ScaleEvent, chronological
    drains: dict                 # reason -> count
    restores: int
    shard_moves: int
    migrated_sessions: int
    device_failures: int
    active_drives: int
    peak_concurrent_sessions: int
    final_concurrent_sessions: int
    peak_resident_bytes_per_drive: int
    resident_budget_bytes: int | None
    round_summaries: tuple
    serving: SessionServingReport

    @property
    def within_memory_budget(self) -> bool:
        """True when no drive's resident tier ever exceeded its budget."""
        if self.resident_budget_bytes is None:
            return True
        return self.peak_resident_bytes_per_drive <= self.resident_budget_bytes

    @property
    def verdict_count(self) -> int:
        """Window verdicts delivered over the whole run."""
        return len(self.serving.verdicts)

    def verdict_latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of verdict delivery latency."""
        return self.serving.verdict_latency_percentile_us(percentile)

    def verdict_sequences(self) -> dict:
        """Per-stream ``(window_index, probability, is_ransomware)`` tuples.

        Timing- and placement-free: this is the artifact that must be
        bit-identical with and without drains, upgrades, or failures.
        """
        sequences: dict = {}
        for verdict in self.serving.verdicts:
            sequences.setdefault(verdict.stream, []).append(
                (verdict.window_index, verdict.probability,
                 verdict.is_ransomware)
            )
        return {
            stream: tuple(sorted(entries))
            for stream, entries in sequences.items()
        }


class ControlPlane:
    """Deterministic rack → node → drive control plane over a CSD fleet.

    Parameters
    ----------
    engines:
        One :class:`~repro.core.engine.CSDInferenceEngine` per installed
        drive — exactly ``topology.total_drives`` of them (use
        :func:`~repro.core.serving.build_fleet`).
    topology:
        The :class:`TopologySpec`.
    config:
        :class:`ControlPlaneConfig` policy bundle.
    classifier:
        Optional ``stream name -> class name``.  The default takes the
        prefix before the first ``-`` and falls back to the first
        configured class, matching the ``<class>-<index>`` names
        :func:`generate_fleet_rounds` emits.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; observation-only —
        every policy decision reads the plain counters the metrics
        mirror, never the telemetry itself.
    """

    def __init__(self, engines, topology: TopologySpec,
                 config: ControlPlaneConfig | None = None,
                 classifier=None, telemetry=None):
        engines = list(engines)
        self.topology = topology
        if len(engines) != topology.total_drives:
            raise ValueError(
                f"topology needs {topology.total_drives} engines, "
                f"got {len(engines)}"
            )
        self.config = config or ControlPlaneConfig()
        self.telemetry = telemetry
        self._classifier = classifier
        self._class_index = {
            qos.name: i for i, qos in enumerate(self.config.classes)
        }
        capacity = self.config.drive_tokens_per_round
        if capacity is None:
            capacity = max(1, math.floor(
                self.config.round_us * self.config.headroom
                / engines[0].per_item_microseconds()
            ))
        self.drive_tokens_per_round = capacity

        self.router = ShardRouter(topology.num_shards)
        self.server = FleetServer(
            engines, streams=[], config=self.config.serving,
            telemetry=telemetry, router=self.router.device_of,
            on_device_failed=self._on_device_failed,
            on_verdict=self.config.on_verdict,
        )
        self.server.begin_tokens(self.config.sessions, self.config.backend)

        self._active = [True] * topology.total_drives
        self._failed: set = set()
        for drive in range(topology.total_drives):
            if topology.slot_of(drive) >= topology.initial_active_per_node:
                self.server.deactivate_device(drive)
                self._active[drive] = False
        active = [d for d in range(topology.total_drives) if self._active[d]]
        for shard in range(topology.num_shards):
            self.router.assign(shard, active[shard % len(active)])

        self._round = 0
        self._finished = False
        self._stream_class: dict = {}   # stream -> class index, or -1 denied
        self._streams_offered = [0] * len(self.config.classes)
        self._streams_admitted = [0] * len(self.config.classes)
        self._streams_denied = [0] * len(self.config.classes)
        self._tokens_offered = 0
        self._tokens_admitted = [0] * len(self.config.classes)
        self._tokens_shed: dict = {}    # (class index, reason) -> count
        self._scale_events: list = []
        self._drains: dict = {}
        self._restores = 0
        self._shard_moves = 0
        self._migrated = 0
        self._high_streak = [0] * topology.total_nodes
        self._low_streak = [0] * topology.total_nodes
        self._cooldown = [0] * topology.total_nodes
        self._upgrade_pending: list = []
        self._upgrade_in_flight: int | None = None
        self._verdict_cursor = 0
        self._peak_concurrent = 0
        self._peak_resident_bytes = 0
        self._round_summaries: list = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active_drives(self) -> tuple:
        """Drive indices currently in service, ascending."""
        return tuple(d for d, alive in enumerate(self._active) if alive)

    @property
    def upgrade_complete(self) -> bool:
        """True when no rolling upgrade is pending or in flight."""
        return not self._upgrade_pending and self._upgrade_in_flight is None

    def concurrent_sessions(self) -> int:
        """Live session streams fleet-wide (resident + checkpointed).

        Counts in-service drives only: a drained/failed drive's manager
        keeps any session it could not hand off (no route), but those
        are no longer serving anything.
        """
        total = 0
        for device in self.server.devices:
            manager = device.sessions
            if manager is not None and not device.dead:
                total += manager.resident_count + manager.checkpointed_count
        return total

    def class_of(self, stream: str) -> str:
        """The QoS class name a stream maps to."""
        return self.config.classes[self._classify(stream)].name

    # ------------------------------------------------------------------
    # Response actions (verdict-driven; see docs/response.md)
    # ------------------------------------------------------------------

    def quarantine_stream(self, stream: str) -> None:
        """Shed a stream's future tokens fleet-wide (delegates to the server)."""
        self.server.quarantine_stream(stream)

    def release_stream(self, stream: str) -> None:
        """Lift a stream quarantine."""
        self.server.release_stream(stream)

    def kill_stream(self, stream: str) -> None:
        """Quarantine a stream and drop its session state."""
        self.server.kill_stream(stream)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _classify(self, stream: str) -> int:
        if self._classifier is not None:
            name = self._classifier(stream)
            index = self._class_index.get(name)
            if index is None:
                raise ValueError(
                    f"classifier returned unknown class {name!r} for "
                    f"stream {stream!r}"
                )
            return index
        prefix = stream.split("-", 1)[0]
        return self._class_index.get(prefix, 0)

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if self.telemetry is not None and amount:
            self.telemetry.counter(name, **labels).inc(amount)

    def _shed_tokens(self, class_index: int, reason: str, count: int) -> None:
        if count == 0:
            return
        key = (class_index, reason)
        self._tokens_shed[key] = self._tokens_shed.get(key, 0) + count
        self._count(
            "repro_cp_tokens_shed_total", count,
            qos=self.config.classes[class_index].name, reason=reason,
        )

    def _placement_targets(self, drive: int) -> list:
        """Active migration targets for a drive's shards, nearest tier first."""
        node = self.topology.node_of(drive)
        rack = self.topology.rack_of(drive)
        same_node = [d for d in self.topology.drives_of_node(node)
                     if d != drive and self._active[d]]
        if same_node:
            return same_node
        same_rack = [d for d in range(self.topology.total_drives)
                     if d != drive and self._active[d]
                     and self.topology.rack_of(d) == rack]
        if same_rack:
            return same_rack
        return [d for d in range(self.topology.total_drives)
                if d != drive and self._active[d]]

    def _reassign_shards(self, drive: int) -> None:
        """Spread a departing drive's shards over its preferred targets."""
        targets = self._placement_targets(drive)
        shards = self.router.shards_on(drive)
        for i, shard in enumerate(shards):
            self.router.assign(shard, targets[i % len(targets)] if targets
                               else None)
        if shards:
            self._shard_moves += len(shards)
            self._count("repro_cp_shard_moves_total", len(shards))

    def _on_device_failed(self, drive: int) -> None:
        """FleetServer fault-plan callback: reroute before migration."""
        self._active[drive] = False
        self._failed.add(drive)
        self._reassign_shards(drive)

    def _drain(self, drive: int, reason: str) -> int:
        if not self._active[drive]:
            return 0
        start = self.server.clock_us
        self._active[drive] = False
        self._reassign_shards(drive)
        migrated = self.server.drain_device(drive)
        self._migrated += migrated
        self._drains[reason] = self._drains.get(reason, 0) + 1
        self._count("repro_cp_drains_total", 1, reason=reason)
        self._count("repro_cp_migrated_sessions_total", migrated)
        if self.telemetry is not None:
            self.telemetry.tracer.record(
                "cp.drain", start, self.server.clock_us,
                attributes={"drive": drive, "reason": reason,
                            "migrated": migrated, "unit": "us"},
            )
        return migrated

    def _restore(self, drive: int) -> None:
        self.server.restore_device(drive)
        self._active[drive] = True
        self._failed.discard(drive)
        self._restores += 1
        self._count("repro_cp_device_restores_total")

    # ------------------------------------------------------------------
    # Public fleet operations
    # ------------------------------------------------------------------

    def drain(self, drive: int, reason: str = DRAIN_MANUAL) -> int:
        """Drain one drive now: shards reassign (same node first), every
        session migrates as a checkpoint, verdict sequences unchanged.
        Returns the number of sessions migrated."""
        if not 0 <= drive < self.topology.total_drives:
            raise ValueError(f"no drive {drive}")
        return self._drain(drive, reason)

    def start_rolling_upgrade(self) -> int:
        """Queue a rolling drain/restore of every active drive.

        Each subsequent round drains the next queued drive (its shards
        and sessions migrate, same-node first) and restores the
        previously drained one empty — exactly one drive out of service
        at a time.  Returns the number of drives queued.
        """
        self._upgrade_pending = [d for d in range(self.topology.total_drives)
                                 if self._active[d]]
        return len(self._upgrade_pending)

    def _upgrade_step(self) -> None:
        if self._upgrade_in_flight is not None:
            self._restore(self._upgrade_in_flight)
            self._upgrade_in_flight = None
        while self._upgrade_pending:
            drive = self._upgrade_pending.pop(0)
            if not self._active[drive]:
                continue  # failed or scaled down since queueing
            self._drain(drive, DRAIN_UPGRADE)
            self._upgrade_in_flight = drive
            break

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------

    def _scale_up(self, node: int) -> bool:
        candidates = [d for d in self.topology.drives_of_node(node)
                      if not self._active[d] and d not in self._failed
                      and d != self._upgrade_in_flight]
        if not candidates:
            return False
        drive = candidates[0]
        self._restore(drive)
        self._rebalance_node(node, drive)
        self._scale_events.append(ScaleEvent(
            round_index=self._round, node=node, direction=SCALE_UP,
            drive=drive,
        ))
        self._count("repro_cp_scale_events_total", 1, direction=SCALE_UP)
        return True

    def _scale_down(self, node: int) -> bool:
        actives = [d for d in self.topology.drives_of_node(node)
                   if self._active[d] and d != self._upgrade_in_flight]
        if len(actives) <= 1:
            return False
        drive = actives[-1]  # highest slot leaves first: LIFO vs scale-up
        self._drain(drive, DRAIN_SCALE_DOWN)
        self._scale_events.append(ScaleEvent(
            round_index=self._round, node=node, direction=SCALE_DOWN,
            drive=drive,
        ))
        self._count("repro_cp_scale_events_total", 1, direction=SCALE_DOWN)
        return True

    def _rebalance_node(self, node: int, new_drive: int) -> None:
        """Even out shard counts within a node after a scale-up."""
        actives = [d for d in self.topology.drives_of_node(node)
                   if self._active[d]]
        counts = {d: len(self.router.shards_on(d)) for d in actives}
        total = sum(counts.values())
        target = total // len(actives)
        while counts[new_drive] < target:
            donor = max((d for d in actives if d != new_drive),
                        key=lambda d: (counts[d], -d))
            if counts[donor] <= counts[new_drive] + 1:
                break
            shard = self.router.shards_on(donor)[0]
            keys = [key for key in
                    self.server.devices[donor].sessions.known_keys()
                    if self.router.shard_of(key) == shard]
            self.router.assign(shard, new_drive)
            moved = self.server.migrate_streams(donor, new_drive, keys)
            self._migrated += moved
            self._shard_moves += 1
            counts[donor] -= 1
            counts[new_drive] += 1
            self._count("repro_cp_shard_moves_total")
            self._count("repro_cp_migrated_sessions_total", moved)

    def _autoscale(self, offered_by_node: list) -> None:
        policy = self.config.autoscale
        if policy is None:
            return
        for node in range(self.topology.total_nodes):
            actives = [d for d in self.topology.drives_of_node(node)
                       if self._active[d]]
            if not actives:
                continue
            capacity = len(actives) * self.drive_tokens_per_round
            utilization = offered_by_node[node] / capacity
            if utilization > policy.high_watermark:
                self._high_streak[node] += 1
                self._low_streak[node] = 0
            elif utilization < policy.low_watermark:
                self._low_streak[node] += 1
                self._high_streak[node] = 0
            else:
                self._high_streak[node] = 0
                self._low_streak[node] = 0
            if self._cooldown[node] > 0:
                self._cooldown[node] -= 1
                continue
            if (self._high_streak[node] >= policy.sustain_rounds
                    and self._scale_up(node)):
                self._high_streak[node] = 0
                self._cooldown[node] = policy.cooldown_rounds
            elif (self._low_streak[node] >= policy.sustain_rounds
                    and self._scale_down(node)):
                self._low_streak[node] = 0
                self._cooldown[node] = policy.cooldown_rounds

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def _admit(self, arrivals) -> tuple:
        """Admission + QoS throttle; returns (kept arrivals, offered/node)."""
        classes = self.config.classes
        memo = self._stream_class
        by_drive: dict = {}
        offered_by_node = [0] * self.topology.total_nodes
        for arrival in arrivals:
            self._tokens_offered += 1
            cls = memo.get(arrival.stream)
            if cls is None:
                cls = self._classify(arrival.stream)
                self._streams_offered[cls] += 1
                cap = classes[cls].max_streams
                if cap is not None and self._streams_admitted[cls] >= cap:
                    memo[arrival.stream] = -1
                    self._streams_denied[cls] += 1
                    self._count("repro_cp_streams_denied_total",
                                qos=classes[cls].name)
                    self._shed_tokens(cls, DENY_CLASS_CAP, 1)
                    continue
                memo[arrival.stream] = cls
                self._streams_admitted[cls] += 1
                self._count("repro_cp_streams_admitted_total",
                            qos=classes[cls].name)
            elif cls == -1:
                denied_cls = self._classify(arrival.stream)
                self._shed_tokens(denied_cls, DENY_CLASS_CAP, 1)
                continue
            drive = self.router.device_of(arrival.stream)
            key = drive if drive is not None else -1
            by_drive.setdefault(key, []).append((cls, arrival))
            if drive is not None:
                offered_by_node[self.topology.node_of(drive)] += 1
        kept: list = []
        capacity = self.drive_tokens_per_round
        priority_order = sorted(
            range(len(classes)), key=lambda i: (-classes[i].priority, i)
        )
        for drive, entries in by_drive.items():
            if drive == -1 or len(entries) <= capacity:
                for cls, arrival in entries:
                    self._tokens_admitted[cls] += 1
                    kept.append(arrival)
                continue
            # Oversubscribed: keep high priorities first, preserving
            # arrival order within a class (per-stream order is sacred).
            budget = capacity
            keep_flags = [False] * len(entries)
            by_class: dict = {}
            for position, (cls, _) in enumerate(entries):
                by_class.setdefault(cls, []).append(position)
            for cls in priority_order:
                for position in by_class.get(cls, ()):
                    if budget == 0:
                        break
                    keep_flags[position] = True
                    budget -= 1
            for position, (cls, arrival) in enumerate(entries):
                if keep_flags[position]:
                    self._tokens_admitted[cls] += 1
                    kept.append(arrival)
                else:
                    self._shed_tokens(cls, SHED_THROTTLED, 1)
        kept.sort(key=lambda a: a.arrival_us)
        return kept, offered_by_node

    def run_round(self, arrivals=()) -> dict:
        """Run one control round; returns its plain-data summary.

        ``arrivals`` are :class:`~repro.core.serving.TokenArrival` with
        times inside ``[round_start, round_end)``.  The sequence is:
        admission control → per-drive QoS throttle → ingest → drive the
        event core to the round boundary → upgrade step → autoscale →
        telemetry mirror.
        """
        if self._finished:
            raise RuntimeError("control plane already finished")
        start = self._round * self.config.round_us
        end = start + self.config.round_us
        admitted_before = list(self._tokens_admitted)
        offered_before = self._tokens_offered
        kept, offered_by_node = self._admit(arrivals)
        if self.telemetry is not None:
            for cls, qos in enumerate(self.config.classes):
                self._count(
                    "repro_cp_tokens_admitted_total",
                    self._tokens_admitted[cls] - admitted_before[cls],
                    qos=qos.name,
                )
        self.server.ingest_tokens(kept)
        self.server.run_tokens_until(
            end, max_events=self.config.max_events_per_round
        )
        self._upgrade_step()
        self._autoscale(offered_by_node)

        concurrent = self.concurrent_sessions()
        self._peak_concurrent = max(self._peak_concurrent, concurrent)
        resident_high = 0
        for device in self.server.devices:
            if device.sessions is not None:
                resident_high = max(resident_high,
                                    device.sessions.resident_bytes)
        self._peak_resident_bytes = max(self._peak_resident_bytes,
                                        resident_high)
        arrival_rate = sum(offered_by_node) * 1e6 / self.config.round_us
        summary = {
            "round": self._round,
            "start_us": start,
            "end_us": end,
            "offered_tokens": self._tokens_offered - offered_before,
            "admitted_tokens": sum(self._tokens_admitted)
                               - sum(admitted_before),
            "arrival_rate_tps": arrival_rate,
            "active_drives": len(self.active_drives),
            "concurrent_sessions": concurrent,
            "max_resident_bytes": resident_high,
        }
        self._round_summaries.append(summary)
        if self.telemetry is not None:
            self._count("repro_cp_rounds_total")
            self.telemetry.gauge("repro_cp_active_drives").set(
                len(self.active_drives)
            )
            self.telemetry.gauge("repro_cp_concurrent_sessions").set(concurrent)
            self.telemetry.gauge("repro_cp_arrival_rate").set(arrival_rate)
            self.telemetry.gauge("repro_cp_resident_bytes").set(resident_high)
            verdicts = self.server.session_verdicts
            histogram = self.telemetry.histogram(
                "repro_cp_verdict_latency_seconds"
            )
            for verdict in verdicts[self._verdict_cursor:]:
                histogram.observe(verdict.latency_us * 1e-6)
            self._verdict_cursor = len(verdicts)
            self.telemetry.tracer.record(
                "cp.round", start, end,
                attributes={"round": self._round,
                            "active_drives": len(self.active_drives),
                            "unit": "us"},
            )
        self._round += 1
        return summary

    def run(self, rounds) -> ControlPlaneReport:
        """Run one round per element of ``rounds`` and finish."""
        for arrivals in rounds:
            self.run_round(arrivals)
        return self.finish()

    def finish(self) -> ControlPlaneReport:
        """Drain the event core and build the final report."""
        if self._finished:
            raise RuntimeError("control plane already finished")
        self._finished = True
        serving = self.server.finish_tokens(
            max_events=self.config.max_events_per_round
        )
        classes = self.config.classes
        shed: dict = {}
        for (cls, reason), count in sorted(self._tokens_shed.items()):
            shed.setdefault(classes[cls].name, {})[reason] = count
        concurrent = self.concurrent_sessions()
        self._peak_concurrent = max(self._peak_concurrent, concurrent)
        return ControlPlaneReport(
            rounds=self._round,
            duration_us=serving.duration_us,
            tokens_offered=self._tokens_offered,
            tokens_admitted={classes[i].name: n
                             for i, n in enumerate(self._tokens_admitted)},
            tokens_shed=shed,
            streams_offered={classes[i].name: n
                             for i, n in enumerate(self._streams_offered)},
            streams_admitted={classes[i].name: n
                              for i, n in enumerate(self._streams_admitted)},
            streams_denied={classes[i].name: n
                            for i, n in enumerate(self._streams_denied)},
            scale_events=tuple(self._scale_events),
            drains=dict(self._drains),
            restores=self._restores,
            shard_moves=self._shard_moves,
            migrated_sessions=serving.migrated_sessions,
            device_failures=serving.device_failures,
            active_drives=len(self.active_drives),
            peak_concurrent_sessions=self._peak_concurrent,
            final_concurrent_sessions=concurrent,
            peak_resident_bytes_per_drive=self._peak_resident_bytes,
            resident_budget_bytes=self.config.sessions.memory_budget_bytes,
            round_summaries=tuple(self._round_summaries),
            serving=serving,
        )


def generate_fleet_rounds(
    classes,
    rounds: int,
    round_us: int,
    streams_per_class: int,
    hot_per_class: int,
    registration_rounds: int | None = None,
    hot_rounds: int | None = None,
    vocab_size: int = 278,
    seed: int = 0,
):
    """Yield per-round :class:`~repro.core.serving.TokenArrival` lists.

    The million-streams scenario generator: for each :class:`QosClass`
    in ``classes``, streams ``<name>-0000000 … <name>-<N-1>`` split into
    a *hot* head (``hot_per_class`` streams emitting one token per round
    while ``round < hot_rounds`` — these complete windows and produce
    verdicts) and a *cold* tail registered one token each, spread evenly
    over the first ``registration_rounds`` rounds (these park as
    checkpoints and drive the concurrent-session count).  Token values
    come from one vectorized draw per round seeded ``(seed, round)``;
    arrival times spread evenly across the round.  Fully deterministic
    and lazy — nothing holds more than one round of arrivals.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if registration_rounds is None:
        registration_rounds = rounds
    if hot_rounds is None:
        hot_rounds = rounds
    registration_rounds = min(registration_rounds, rounds)
    names = [qos.name if isinstance(qos, QosClass) else str(qos)
             for qos in classes]
    hot_per_class = min(hot_per_class, streams_per_class)
    cold_per_class = streams_per_class - hot_per_class
    cold_chunk = (math.ceil(cold_per_class / registration_rounds)
                  if cold_per_class else 0)
    for round_index in range(rounds):
        start = round_index * round_us
        streams: list = []
        if round_index < hot_rounds:
            for name in names:
                streams.extend(
                    f"{name}-{i:07d}" for i in range(hot_per_class)
                )
        if cold_chunk and round_index < registration_rounds:
            low = round_index * cold_chunk
            high = min(low + cold_chunk, cold_per_class)
            for name in names:
                streams.extend(
                    f"{name}-{hot_per_class + i:07d}" for i in range(low, high)
                )
        if not streams:
            yield []
            continue
        rng = np.random.default_rng([seed, round_index])
        tokens = rng.integers(0, vocab_size, size=len(streams))
        count = len(streams)
        yield [
            TokenArrival(
                stream=stream,
                token=int(tokens[k]),
                arrival_us=start + (k * round_us) // count,
            )
            for k, stream in enumerate(streams)
        ]


def percentile_us(values, percentile: float) -> float:
    """Nearest-rank percentile over an iterable of microsecond values
    (0.0 when empty)."""
    ordered = np.array(list(values), dtype=np.int64)
    if ordered.size == 0:
        return 0.0
    return nearest_rank_percentile(ordered, percentile)
