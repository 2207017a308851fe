"""The self-protecting SmartSSD write path: stream admission modes,
copy-on-write pre-image preservation, snapshot/restore byte-identity,
integrity checksums, honest timing, and the telemetry-detached
transfer-recording regression."""

import pytest

from repro.hw.smartssd import (
    MODE_ALLOW,
    MODE_BLOCK,
    MODE_COW,
    IntegrityError,
    SmartSSD,
    WriteRefused,
)
from repro.telemetry import Telemetry


def _fill(key: str, num_bytes: int, tag: str = "v1") -> bytes:
    seed = f"{key}:{tag}".encode()
    return (seed * (num_bytes // len(seed) + 1))[:num_bytes]


@pytest.fixture
def device():
    return SmartSSD()


@pytest.fixture
def seeded(device):
    originals = {}
    for index in range(4):
        key = f"user-{index}"
        data = _fill(key, 8192)
        device.ssd.write_object(key, 8192, data=data)
        originals[key] = data
    return device, originals


class TestStreamModes:
    def test_default_mode_is_allow(self, device):
        assert device.stream_mode("anyone") == MODE_ALLOW

    def test_unknown_mode_rejected(self, device):
        with pytest.raises(ValueError, match="unknown stream mode"):
            device.set_stream_mode("s", "panic")

    def test_allow_clears_a_previous_mode(self, device):
        device.set_stream_mode("s", MODE_BLOCK)
        device.set_stream_mode("s", MODE_ALLOW)
        seconds = device.stream_write("s", "out", 4096)
        assert seconds > 0
        assert device.allowed_writes == 1

    def test_blocked_stream_raises_and_is_counted(self, device):
        device.set_stream_mode("s", MODE_BLOCK)
        with pytest.raises(WriteRefused):
            device.stream_write("s", "victim", 4096)
        assert device.blocked_writes == 1
        assert device.blocked_bytes == 4096
        assert device.blocked_by_stream["s"] == {"writes": 1, "bytes": 4096}
        assert not device.ssd.has_object("victim")

    def test_block_is_per_stream(self, device):
        device.set_stream_mode("bad", MODE_BLOCK)
        device.stream_write("good", "neighbour", 4096)
        assert device.ssd.has_object("neighbour")


class TestCopyOnWrite:
    def test_cow_preserves_the_first_preimage(self, seeded):
        device, originals = seeded
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "user-0", 8192, data=_fill("user-0", 8192, "evil"))
        assert device.cow_copies == 1
        assert device.cow_bytes == 8192
        # Second overwrite of the same object copies nothing new.
        device.stream_write("s", "user-0", 8192, data=_fill("user-0", 8192, "evil2"))
        assert device.cow_copies == 1

    def test_cow_write_costs_more_than_a_plain_write(self, seeded):
        device, _ = seeded
        plain = device.stream_write("p", "user-1", 8192,
                                    data=_fill("user-1", 8192, "v2"))
        device.set_stream_mode("s", MODE_COW)
        protected = device.stream_write("s", "user-2", 8192,
                                        data=_fill("user-2", 8192, "evil"))
        assert protected > plain
        assert device.protection_overhead_seconds > 0

    def test_cow_arms_a_snapshot_automatically(self, seeded):
        device, _ = seeded
        assert device.active_snapshot_id is None
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "user-0", 8192, data=b"x" * 8192)
        assert device.active_snapshot_id is not None

    def test_new_objects_are_tracked_for_deletion_not_copied(self, seeded):
        device, _ = seeded
        device.snapshot_volume()
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "dropper", 4096, data=b"y" * 4096)
        assert device.cow_copies == 0
        result = device.restore_volume()
        assert result.deleted_objects == 1
        assert not device.ssd.has_object("dropper")


class TestSnapshotRestore:
    def test_restore_is_byte_identical(self, seeded):
        device, originals = seeded
        device.snapshot_volume()
        device.set_stream_mode("s", MODE_COW)
        for key in originals:
            device.stream_write("s", key, 8192, data=_fill(key, 8192, "evil"))
        for key, data in originals.items():
            assert device.ssd.read_object_data(key) != data
        result = device.restore_volume()
        assert result.restored_objects == len(originals)
        assert result.restored_bytes == 8192 * len(originals)
        assert result.seconds > 0
        for key, data in originals.items():
            assert device.ssd.read_object_data(key) == data
            assert device.verify_object(key)

    def test_restore_without_snapshot_raises(self, device):
        with pytest.raises(RuntimeError, match="no active snapshot"):
            device.restore_volume()

    def test_restore_unknown_snapshot_raises(self, seeded):
        device, _ = seeded
        device.snapshot_volume()
        with pytest.raises(KeyError):
            device.restore_volume(snapshot_id=999)

    def test_corrupted_snapshot_copy_is_detected(self, seeded):
        device, _ = seeded
        snapshot_id = device.snapshot_volume()
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "user-0", 8192, data=b"z" * 8192)
        snapshot = device._snapshots[snapshot_id]
        num_bytes, data, checksum = snapshot.delta["user-0"]
        snapshot.delta["user-0"] = (num_bytes, b"\x00" * num_bytes, checksum)
        with pytest.raises(IntegrityError):
            device.restore_volume()

    def test_verify_object_detects_out_of_band_tampering(self, seeded):
        device, _ = seeded
        device.snapshot_volume()       # records checksum baselines
        assert device.verify_object("user-0")
        device.ssd.write_object("user-0", 8192, data=b"t" * 8192)
        # write_object bypasses stream_write, so the recorded checksum
        # is now stale — exactly what verify_object must flag.
        assert not device.verify_object("user-0")

    def test_verify_object_unknown_key_raises(self, device):
        with pytest.raises(KeyError):
            device.verify_object("ghost")


class TestAccountingAndTelemetry:
    def test_protection_summary_keys(self, seeded):
        device, _ = seeded
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "user-0", 8192, data=b"x" * 8192)
        device.set_stream_mode("s", MODE_BLOCK)
        with pytest.raises(WriteRefused):
            device.stream_write("s", "user-1", 8192)
        summary = device.protection_summary()
        assert summary["allowed_writes"] == 1
        assert summary["blocked_writes"] == 1
        assert summary["cow_copies"] == 1
        assert summary["snapshots"] == 1
        assert summary["streams_blocked"] == 1
        assert summary["protection_overhead_seconds"] > 0

    def test_protection_metrics_recorded_when_attached(self, seeded):
        device, _ = seeded
        device.telemetry = Telemetry()
        device.set_stream_mode("s", MODE_COW)
        device.stream_write("s", "user-0", 8192, data=b"x" * 8192)
        device.set_stream_mode("s", MODE_BLOCK)
        with pytest.raises(WriteRefused):
            device.stream_write("s", "user-1", 8192)
        device.restore_volume()
        names = {entry["name"] for entry in device.telemetry.metrics.snapshot()}
        assert {
            "repro_resp_blocked_writes_total",
            "repro_resp_blocked_bytes_total",
            "repro_resp_cow_bytes_total",
            "repro_resp_snapshots_total",
            "repro_resp_restores_total",
            "repro_resp_enforcement_seconds",
        } <= names

    def test_numbers_identical_with_and_without_telemetry(self):
        def run(telemetry):
            device = SmartSSD()
            device.telemetry = telemetry
            device.ssd.write_object("user", 4096, data=b"a" * 4096)
            device.set_stream_mode("s", MODE_COW)
            seconds = device.stream_write("s", "user", 4096, data=b"b" * 4096)
            result = device.restore_volume()
            return seconds, result, device.protection_summary()

        assert run(None) == run(Telemetry())


class TestTransferRecordingRegression:
    """`_record_transfer` must guard telemetry inside the helper, so every
    transfer path is safe with telemetry detached (the historical bug:
    an unguarded `self.telemetry.metrics` access)."""

    def test_all_transfer_paths_safe_with_telemetry_detached(self, device):
        assert device.telemetry is None
        device.host_load_weights(1024)
        device.ssd.write_object("obj", 2048)
        device.p2p_fetch("obj")
        device.host_fetch("obj")
        assert [r.route for r in device.transfers] == [
            "host_to_fpga", "p2p", "host",
        ]

    def test_record_transfer_itself_is_guarded(self, device):
        from repro.hw.smartssd import TransferRecord

        device.telemetry = None
        device._record_transfer(TransferRecord("p2p", 1, 1e-6))  # must not raise

    def test_transfers_recorded_when_telemetry_attached(self, device):
        device.telemetry = Telemetry()
        device.host_load_weights(1024)
        names = {entry["name"] for entry in device.telemetry.metrics.snapshot()}
        assert "repro_storage_bytes_total" in names

    def test_transfer_log_is_bounded_and_totals_stay_exact(self, device):
        from repro.hw.smartssd import TRANSFER_HISTORY

        device.ssd.write_object("obj", 3000)
        fetches = 3 * TRANSFER_HISTORY
        for _ in range(fetches):
            device.p2p_fetch("obj")
            device.release_fpga_dram(3000)
        device.host_load_weights(1024)
        assert len(device.transfers) == TRANSFER_HISTORY
        assert device.transfers[-1].route == "host_to_fpga"
        assert device.transfers[-2].num_bytes == 3000
        assert device.traffic_summary() == {
            "p2p": fetches * 3000, "host": 0, "host_to_fpga": 1024,
        }
