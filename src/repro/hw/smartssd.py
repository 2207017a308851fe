"""SmartSSD device composition (paper Fig. 1).

A SmartSSD is an NVMe SSD and an FPGA accelerator joined by an onboard
PCIe switch, with dedicated FPGA DRAM.  The CPU can issue standard SSD
read/writes, FPGA DRAM read/writes, and FPGA compute requests; the switch
additionally supports P2P transfers so the FPGA can consume SSD data
"without necessitating CPU involvement".

This class wires the :mod:`repro.hw` component models together and exposes
the three data paths the inference engine uses:

* :meth:`host_load_weights` — host → FPGA DRAM (once, at initialisation);
* :meth:`p2p_fetch` — SSD → FPGA DRAM without the host (per batch);
* :meth:`host_fetch` — SSD → host → FPGA DRAM (the path P2P replaces).

It also models the *self-protecting* write path the response subsystem
drives (see ``docs/response.md``): per-stream write admission
(:meth:`stream_write` with ``allow``/``cow``/``block`` modes),
copy-on-write volume snapshots with integrity checksums on every
protected object, and :meth:`restore_volume` to roll the volume back to
the snapshot byte for byte.  All enforcement time is accounted on the
simulated clock (`protection_overhead_seconds`) — protection is never
free.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib

from repro.hw.fpga import KU15P, FpgaDevice
from repro.hw.pcie import PcieLink, PcieSwitch
from repro.hw.ssd import NvmeSsd

#: Per-stream write-admission modes.
MODE_ALLOW = "allow"
MODE_COW = "cow"
MODE_BLOCK = "block"

_STREAM_MODES = (MODE_ALLOW, MODE_COW, MODE_BLOCK)

#: How many recent :class:`TransferRecord` entries ``SmartSSD.transfers``
#: keeps; per-route totals are kept exactly however long the drive runs.
TRANSFER_HISTORY = 256


class WriteRefused(PermissionError):
    """A write-blocked stream attempted a write the drive refused."""


class IntegrityError(RuntimeError):
    """A protected object's checksum did not match at restore time."""


def _object_checksum(num_bytes: int, data: bytes | None) -> str:
    """Deterministic content checksum (size-only objects hash the size)."""
    digest = hashlib.sha256()
    digest.update(str(num_bytes).encode("ascii"))
    digest.update(b":")
    if data is not None:
        digest.update(data)
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class TransferRecord:
    """One completed data movement, for traffic accounting."""

    route: str            # "p2p" | "host" | "host_to_fpga"
    num_bytes: int
    seconds: float


@dataclasses.dataclass(frozen=True)
class RestoreResult:
    """Outcome of one :meth:`SmartSSD.restore_volume` call."""

    snapshot_id: int
    restored_objects: int
    restored_bytes: int
    deleted_objects: int
    seconds: float


class _VolumeSnapshot:
    """Copy-on-write snapshot state: deltas accumulate lazily."""

    def __init__(self, snapshot_id: int, checksums: dict):
        self.snapshot_id = snapshot_id
        #: key -> (num_bytes, data, checksum) of the pre-image preserved
        #: the first time the key was overwritten/deleted after the
        #: snapshot was taken.
        self.delta: dict = {}
        #: keys created after the snapshot (deleted on restore).
        self.created: set = set()
        #: integrity baseline: checksum of every object at snapshot time.
        self.checksums = checksums


class SmartSSD:
    """A Samsung SmartSSD-like computational storage drive.

    Parameters
    ----------
    fpga:
        FPGA device model; defaults to the KU15P with one DDR bank, as on
        the real SmartSSD.  The paper's experiments substitute an Alveo
        u200 model (see :class:`repro.core.engine.CSDInferenceEngine`).
    ssd:
        NVMe SSD model; defaults to a PM1733-class drive.
    link:
        The device's PCIe interface (Gen3 x4 on the SmartSSD).
    fpga_dram_bytes:
        Capacity of the FPGA-attached DRAM visible over PCIe.
    """

    def __init__(
        self,
        fpga: FpgaDevice | None = None,
        ssd: NvmeSsd | None = None,
        link: PcieLink | None = None,
        fpga_dram_bytes: int = 4 * 2**30,
    ):
        self.fpga = fpga or FpgaDevice(part=KU15P, ddr_banks_used=1)
        self.ssd = ssd or NvmeSsd()
        self.switch = PcieSwitch(upstream=link or PcieLink(generation=3, lanes=4))
        self.fpga_dram_bytes = fpga_dram_bytes
        self._fpga_dram_used = 0
        #: The most recent transfers, oldest first (bounded: a drive
        #: serving fetches for hours must not grow without limit).
        self.transfers: collections.deque = collections.deque(
            maxlen=TRANSFER_HISTORY
        )
        self._route_bytes = {"p2p": 0, "host": 0, "host_to_fpga": 0}
        #: Optional :class:`repro.telemetry.Telemetry`; set directly or
        #: propagated by ``CSDInferenceEngine.attach_telemetry``.  When
        #: present, transfers and DRAM occupancy feed the
        #: ``repro_storage_*`` / ``repro_fpga_dram_used_bytes`` metrics.
        self.telemetry = None

        # Self-protecting write path (see docs/response.md).
        self._stream_modes: dict = {}
        self._checksums: dict = {}
        self._snapshots: dict = {}
        self._active_snapshot: _VolumeSnapshot | None = None
        self._snapshot_counter = 0
        self.allowed_writes = 0
        self.blocked_writes = 0
        self.blocked_bytes = 0
        self.blocked_by_stream: dict = {}
        self.cow_copies = 0
        self.cow_bytes = 0
        self.protection_overhead_seconds = 0.0

    def _record_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)
        self._route_bytes[record.route] += record.num_bytes
        # Guarded here — not at the call sites — so every path that
        # records a transfer is safe with telemetry detached.
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.counter("repro_storage_bytes_total", route=record.route).inc(
            record.num_bytes
        )
        metrics.counter("repro_storage_transfers_total", route=record.route).inc()
        metrics.histogram(
            "repro_storage_transfer_seconds", route=record.route
        ).observe(record.seconds)

    def _update_dram_gauge(self) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge("repro_fpga_dram_used_bytes").set(
                self._fpga_dram_used
            )

    @property
    def fpga_dram_free_bytes(self) -> int:
        return self.fpga_dram_bytes - self._fpga_dram_used

    def _reserve_fpga_dram(self, num_bytes: int, label: str) -> None:
        if num_bytes > self.fpga_dram_free_bytes:
            raise MemoryError(
                f"FPGA DRAM cannot hold {num_bytes} bytes for {label!r} "
                f"({self._fpga_dram_used}/{self.fpga_dram_bytes} used)"
            )
        self._fpga_dram_used += num_bytes
        self._update_dram_gauge()

    def host_load_weights(self, num_bytes: int) -> float:
        """Host → FPGA DRAM weight download at initialisation.

        Returns the transfer time in seconds.
        """
        self._reserve_fpga_dram(num_bytes, "weights")
        seconds = self.switch.upstream.transfer_seconds(num_bytes)
        record = TransferRecord("host_to_fpga", num_bytes, seconds)
        self._record_transfer(record)
        return seconds

    def p2p_fetch(self, key: str) -> float:
        """SSD → FPGA DRAM over the switch, bypassing the host.

        The object must previously have been stored with
        ``device.ssd.write_object(key, nbytes)``.  Returns total seconds
        (SSD read + switch transfer).
        """
        num_bytes, ssd_seconds = self.ssd.read_object(key)
        self._reserve_fpga_dram(num_bytes, key)
        link_seconds = self.switch.p2p_transfer_seconds(num_bytes)
        seconds = ssd_seconds + link_seconds
        record = TransferRecord("p2p", num_bytes, seconds)
        self._record_transfer(record)
        return seconds

    def host_fetch(self, key: str) -> float:
        """SSD → host DRAM → FPGA DRAM (the route P2P eliminates)."""
        num_bytes, ssd_seconds = self.ssd.read_object(key)
        self._reserve_fpga_dram(num_bytes, key)
        link_seconds = self.switch.host_mediated_transfer_seconds(num_bytes)
        seconds = ssd_seconds + link_seconds
        record = TransferRecord("host", num_bytes, seconds)
        self._record_transfer(record)
        return seconds

    def release_fpga_dram(self, num_bytes: int) -> None:
        """Free FPGA DRAM previously reserved by a fetch or weight load."""
        if num_bytes < 0 or num_bytes > self._fpga_dram_used:
            raise ValueError(
                f"cannot release {num_bytes} bytes; {self._fpga_dram_used} in use"
            )
        self._fpga_dram_used -= num_bytes
        self._update_dram_gauge()

    def traffic_summary(self) -> dict:
        """Total bytes moved per route over the drive's lifetime."""
        return dict(self._route_bytes)

    # ------------------------------------------------------------------
    # Self-protecting write path (verdict-gated integrity enforcement)
    # ------------------------------------------------------------------

    def _resp_counter(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def _resp_enforcement(self, op: str, seconds: float) -> None:
        self.protection_overhead_seconds += seconds
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                "repro_resp_enforcement_seconds", op=op
            ).observe(seconds)

    def set_stream_mode(self, stream, mode: str) -> None:
        """Set a stream's write-admission mode (``allow``/``cow``/``block``)."""
        if mode not in _STREAM_MODES:
            raise ValueError(f"unknown stream mode {mode!r}; expected one of {_STREAM_MODES}")
        if mode == MODE_ALLOW:
            self._stream_modes.pop(stream, None)
        else:
            self._stream_modes[stream] = mode

    def stream_mode(self, stream) -> str:
        """The stream's current write-admission mode."""
        return self._stream_modes.get(stream, MODE_ALLOW)

    def stream_write(self, stream, key: str, num_bytes: int,
                     data: bytes | None = None) -> float:
        """One write attributed to ``stream``, through the admission gate.

        Returns the simulated seconds the write (plus any copy-on-write
        preservation it triggered) cost.  A ``block``-mode stream's write
        never reaches the medium and raises :class:`WriteRefused` — the
        paper's "immediately thwart any subsequent encryption" behaviour,
        enforced *at the drive*.  A ``cow``-mode stream's first overwrite
        of any object preserves the pre-image into the active volume
        snapshot (taking one automatically if none is active), so a later
        :meth:`restore_volume` can undo the damage byte for byte.
        """
        mode = self.stream_mode(stream)
        if mode == MODE_BLOCK:
            self.blocked_writes += 1
            self.blocked_bytes += num_bytes
            per_stream = self.blocked_by_stream
            counts = per_stream.get(stream)
            if counts is None:
                counts = per_stream[stream] = {"writes": 0, "bytes": 0}
            counts["writes"] += 1
            counts["bytes"] += num_bytes
            self._resp_counter("repro_resp_blocked_writes_total")
            self._resp_counter("repro_resp_blocked_bytes_total", num_bytes)
            raise WriteRefused(
                f"stream {stream!r} is write-blocked; write of {num_bytes} "
                f"bytes to {key!r} refused"
            )
        snapshot = self._active_snapshot
        if mode == MODE_COW and snapshot is None:
            self.snapshot_volume()
            snapshot = self._active_snapshot
        cow_seconds = 0.0
        if snapshot is not None:
            cow_seconds = self._preserve_preimage(snapshot, key)
        write_seconds = self.ssd.write_object(key, num_bytes, data=data)
        self._checksums[key] = _object_checksum(num_bytes, data)
        self.allowed_writes += 1
        return write_seconds + cow_seconds

    def _preserve_preimage(self, snapshot: _VolumeSnapshot, key: str) -> float:
        """Copy-on-write: keep the first pre-image of ``key`` per epoch."""
        if key in snapshot.delta or key in snapshot.created:
            return 0.0
        if not self.ssd.has_object(key):
            snapshot.created.add(key)
            return 0.0
        num_bytes = self.ssd.object_size(key)
        data = self.ssd.read_object_data(key)
        snapshot.delta[key] = (num_bytes, data, self._checksums.get(key))
        self.cow_copies += 1
        self.cow_bytes += num_bytes
        # Honest timing: the drive reads the old extent and writes the
        # snapshot copy before admitting the overwrite.
        seconds = (
            self.ssd.read_seconds(num_bytes)
            + self.ssd.write_latency_seconds
            + num_bytes / self.ssd.write_bandwidth_bytes_per_second
        )
        self._resp_counter("repro_resp_cow_bytes_total", num_bytes)
        self._resp_enforcement("cow", seconds)
        return seconds

    def snapshot_volume(self) -> int:
        """Start a copy-on-write snapshot epoch; returns its id.

        The snapshot is lazy: nothing is copied until a protected object
        is first overwritten (see :meth:`stream_write`).  The current
        checksum of every stored object is recorded as the integrity
        baseline :meth:`restore_volume` verifies against.
        """
        self._snapshot_counter += 1
        for key in self.ssd.object_keys():
            if key not in self._checksums:
                self._checksums[key] = _object_checksum(
                    self.ssd.object_size(key), self.ssd.read_object_data(key)
                )
        snapshot = _VolumeSnapshot(self._snapshot_counter, dict(self._checksums))
        self._snapshots[snapshot.snapshot_id] = snapshot
        self._active_snapshot = snapshot
        self._resp_counter("repro_resp_snapshots_total")
        # Metadata flush: one write command's latency.
        self._resp_enforcement("snapshot", self.ssd.write_latency_seconds)
        return snapshot.snapshot_id

    @property
    def active_snapshot_id(self) -> int | None:
        snapshot = self._active_snapshot
        return None if snapshot is None else snapshot.snapshot_id

    def verify_object(self, key: str) -> bool:
        """Recompute ``key``'s checksum against the recorded one."""
        recorded = self._checksums.get(key)
        if recorded is None:
            raise KeyError(f"no recorded checksum for object {key!r}")
        return recorded == _object_checksum(
            self.ssd.object_size(key), self.ssd.read_object_data(key)
        )

    def restore_volume(self, snapshot_id: int | None = None) -> RestoreResult:
        """Roll every object changed since the snapshot back, verified.

        Objects created after the snapshot are deleted; overwritten
        objects are rewritten from their preserved pre-images after the
        copies' checksums are verified against the snapshot's integrity
        baseline (:class:`IntegrityError` on mismatch).  Returns the
        accounting, with the simulated seconds the restore cost.
        """
        if snapshot_id is None:
            snapshot = self._active_snapshot
            if snapshot is None:
                raise RuntimeError("no active snapshot to restore")
        else:
            snapshot = self._snapshots.get(snapshot_id)
            if snapshot is None:
                raise KeyError(f"no snapshot {snapshot_id}")
        seconds = 0.0
        deleted = 0
        for key in sorted(snapshot.created):
            if self.ssd.has_object(key):
                self.ssd.delete_object(key)
                self._checksums.pop(key, None)
                deleted += 1
        restored_bytes = 0
        restored = 0
        for key in sorted(snapshot.delta):
            num_bytes, data, checksum = snapshot.delta[key]
            baseline = snapshot.checksums.get(key, checksum)
            if _object_checksum(num_bytes, data) != baseline:
                raise IntegrityError(
                    f"snapshot copy of {key!r} failed checksum verification"
                )
            seconds += self.ssd.read_seconds(num_bytes)
            seconds += self.ssd.write_object(key, num_bytes, data=data)
            self._checksums[key] = baseline
            restored += 1
            restored_bytes += num_bytes
        snapshot.delta.clear()
        snapshot.created.clear()
        self._resp_counter("repro_resp_restores_total")
        self._resp_enforcement("restore", seconds)
        return RestoreResult(
            snapshot_id=snapshot.snapshot_id,
            restored_objects=restored,
            restored_bytes=restored_bytes,
            deleted_objects=deleted,
            seconds=seconds,
        )

    def protection_summary(self) -> dict:
        """Self-protection statistics for reporting."""
        return {
            "allowed_writes": self.allowed_writes,
            "blocked_writes": self.blocked_writes,
            "blocked_bytes": self.blocked_bytes,
            "cow_copies": self.cow_copies,
            "cow_bytes": self.cow_bytes,
            "snapshots": self._snapshot_counter,
            "protection_overhead_seconds": self.protection_overhead_seconds,
            "streams_blocked": sum(
                1 for mode in self._stream_modes.values() if mode == MODE_BLOCK
            ),
        }
