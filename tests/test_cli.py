"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn.serialization import dump_weights
from repro.ransomware.dataset import load_csv


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dataset.csv"
    exit_code = main([
        "dataset", str(path), "--scale", "0.01", "--sequence-length", "30",
        "--seed", "3",
    ])
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory, trained_model):
    # Use the shared trained model: CLI train would work but is slow.
    path = tmp_path_factory.mktemp("cli") / "weights.txt"
    dump_weights(trained_model, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "dataset", "train", "evaluate", "scan", "report", "monitor",
            "fleet-serve", "control-plane", "generalize",
        ):
            assert command in text


    def test_backend_defaults_follow_the_library(self, monkeypatch, capsys):
        from repro import cli
        from repro.core.config import DEFAULT_BACKEND
        from repro.nn.kernels import DEFAULT_TRAIN_BACKEND

        built = []
        real = cli.CSDInferenceEngine.build_unloaded
        monkeypatch.setattr(
            cli.CSDInferenceEngine, "build_unloaded",
            lambda config: built.append(config.backend) or real(config),
        )
        assert main(["report"]) == 0
        assert main(["--backend", "reference", "report"]) == 0
        assert built == [DEFAULT_BACKEND, "reference"]
        args = build_parser().parse_args(["train", "in.csv", "out.txt"])
        assert args.train_backend == DEFAULT_TRAIN_BACKEND


class TestDatasetCommand:
    def test_writes_loadable_csv(self, csv_path):
        dataset = load_csv(csv_path)
        assert dataset.sequence_length == 30
        assert 0.4 < dataset.ransomware_fraction < 0.5


class TestTrainCommand:
    def test_train_writes_weights(self, csv_path, tmp_path, capsys):
        weights_out = tmp_path / "w.txt"
        exit_code = main([
            "train", str(csv_path), str(weights_out),
            "--epochs", "2", "--batch-size", "32",
        ])
        assert exit_code == 0
        assert weights_out.exists()
        output = capsys.readouterr().out
        assert "peak accuracy" in output


class TestEvaluateCommand:
    def test_evaluate_prints_metrics(self, csv_path, tmp_path, capsys):
        # Train a quick model on the same CSV so dimensions line up.
        weights_out = tmp_path / "w.txt"
        main(["train", str(csv_path), str(weights_out), "--epochs", "2"])
        capsys.readouterr()
        exit_code = main([
            "evaluate", str(weights_out), str(csv_path), "--limit", "40",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "accuracy" in output
        assert "per-item inference" in output


class TestScanCommand:
    def test_scan_detects_with_trained_weights(self, weights_path, capsys):
        from tests.conftest import TEST_SEQUENCE_LENGTH

        exit_code = main([
            "scan", str(weights_path), "Lockbit", "--variant", "1",
            "--sequence-length", str(TEST_SEQUENCE_LENGTH), "--stride", "10",
        ])
        output = capsys.readouterr().out
        assert "Lockbit variant 1" in output
        assert exit_code == 0
        assert "DETECTED" in output


class TestMonitorCommand:
    def test_monitor_flags_ransomware_process(self, weights_path, capsys):
        from tests.conftest import TEST_SEQUENCE_LENGTH

        exit_code = main([
            "monitor", str(weights_path), "--ransomware", "1", "--benign", "2",
            "--sequence-length", str(TEST_SEQUENCE_LENGTH),
            "--threshold", "0.7", "--stride", "10", "--seed", "0",
        ])
        output = capsys.readouterr().out
        assert "monitored 3 processes" in output
        assert "FLAGGED" in output
        assert "sessions:" in output
        assert exit_code == 0

    def test_monitor_budget_reports_evictions(self, weights_path, capsys):
        from tests.conftest import TEST_SEQUENCE_LENGTH

        exit_code = main([
            "monitor", str(weights_path), "--ransomware", "1", "--benign", "3",
            "--sequence-length", str(TEST_SEQUENCE_LENGTH),
            "--threshold", "0.7", "--stride", "10", "--seed", "1",
            "--memory-budget-kib", "7", "--early-exit",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "evictions:" in output
        assert "restores" in output


class TestFleetServeCommand:
    def test_serves_and_prints_latency(self, weights_path, capsys):
        from tests.conftest import TEST_SEQUENCE_LENGTH

        exit_code = main([
            "fleet-serve", str(weights_path), "--devices", "2",
            "--streams", "4", "--calls-per-second", "8000",
            "--duration-ms", "20",
            "--sequence-length", str(TEST_SEQUENCE_LENGTH), "--seed", "5",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "offered" in output
        assert "p99" in output

    def test_kill_device_reports_failover(self, weights_path, capsys):
        from tests.conftest import TEST_SEQUENCE_LENGTH

        exit_code = main([
            "fleet-serve", str(weights_path), "--devices", "2",
            "--streams", "4", "--calls-per-second", "8000",
            "--duration-ms", "20",
            "--sequence-length", str(TEST_SEQUENCE_LENGTH), "--seed", "5",
            "--kill-device", "0", "--kill-at-ms", "10",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "device failures" in output


class TestControlPlaneCommand:
    def test_runs_and_prints_operator_report(self, weights_path, capsys):
        exit_code = main([
            "control-plane", str(weights_path),
            "--racks", "1", "--nodes-per-rack", "2", "--drives-per-node", "2",
            "--active-per-node", "2", "--streams-per-class", "200",
            "--hot-per-class", "40", "--rounds", "6",
            "--qos", "gold=2", "--qos", "bronze=0:100",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "class gold" in output
        assert "class bronze" in output
        assert "denied" in output
        assert "peak" in output

    def test_rolling_upgrade_and_manual_drain(self, weights_path, capsys):
        exit_code = main([
            "control-plane", str(weights_path),
            "--racks", "1", "--nodes-per-rack", "1", "--drives-per-node", "2",
            "--streams-per-class", "100", "--hot-per-class", "20",
            "--rounds", "6", "--no-autoscale",
            "--drain-drive", "1", "--drain-round", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "drained drive 1 at round 2" in output
        assert "drains:" in output

    def test_bad_qos_spec_exits(self, weights_path):
        with pytest.raises(SystemExit):
            main([
                "control-plane", str(weights_path), "--qos", "gold=high",
            ])


class TestReportCommand:
    def test_report_prints_utilisation_and_timing(self, capsys):
        exit_code = main(["report", "--optimization", "FIXED_POINT"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Platform: xcu200" in output
        assert "kernel_gates" in output
        assert "TOTAL (per item)" in output

    def test_report_vanilla_single_cu(self, capsys):
        exit_code = main(["report", "--optimization", "VANILLA", "--gate-cus", "1"])
        assert exit_code == 0
        assert "1 gates CU" in capsys.readouterr().out


class TestGeneralizeCommand:
    def test_runs_one_fold_and_writes_json(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "generalization.json"
        exit_code = main([
            "generalize", "--modalities", "block_io", "--folds", "1",
            "--scale", "0.01", "--sequence-length", "40", "--epochs", "2",
            "--seed", "7", "--json", str(json_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "held-out recall" in output
        assert "gap" in output
        document = json.loads(json_path.read_text())
        assert document["protocol"] == "leave-k-families-out"
        assert document["config"]["modalities"] == ["block_io"]
        assert len(document["fold_sets"]) == 1

    def test_repeatable_optimization_flag(self, capsys):
        exit_code = main([
            "generalize", "--modalities", "filesystem", "--folds", "1",
            "--scale", "0.01", "--sequence-length", "40", "--epochs", "2",
            "--optimization", "VANILLA", "--optimization", "FIXED_POINT",
        ])
        assert exit_code == 0
        assert "VANILLA" in capsys.readouterr().out

    def test_unknown_modality_errors(self):
        with pytest.raises(ValueError, match="unknown modalities"):
            main(["generalize", "--modalities", "syscall", "--folds", "1"])
