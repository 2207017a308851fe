"""Leave-k-families-out harness tests.

Covers the fold partition, config validation, the report structure from
a tiny end-to-end run, the ``repro_gen_*`` telemetry emission, and —
the point of the adapters — serving a non-API modality's tokens through
the unchanged ``FleetServer.serve_tokens`` session stack.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.fleet import MonitoredStream
from repro.core.serving import FleetServer, ServingConfig, TokenArrival, build_fleet
from repro.core.sessions import SessionConfig
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier
from repro.ransomware.families import ALL_FAMILIES
from repro.ransomware.generalization import (
    GeneralizationConfig,
    evaluate_generalization,
    leave_k_out_folds,
)
from repro.ransomware.traces import MODALITIES
from repro.telemetry import Telemetry

FAMILY_NAMES = [family.name for family in ALL_FAMILIES]


class TestLeaveKOutFolds:
    def test_full_partition_holds_every_family_out_exactly_once(self):
        folds = leave_k_out_folds(FAMILY_NAMES, 2, seed=7)
        assert len(folds) == 5
        held = [family for fold in folds for family in fold]
        assert sorted(held) == sorted(FAMILY_NAMES)

    def test_uneven_last_fold(self):
        folds = leave_k_out_folds(FAMILY_NAMES, 3, seed=0)
        assert [len(fold) for fold in folds] == [3, 3, 3, 1]

    def test_deterministic_per_seed(self):
        assert (leave_k_out_folds(FAMILY_NAMES, 2, seed=3)
                == leave_k_out_folds(FAMILY_NAMES, 2, seed=3))
        assert (leave_k_out_folds(FAMILY_NAMES, 2, seed=3)
                != leave_k_out_folds(FAMILY_NAMES, 2, seed=4))

    def test_folds_truncation(self):
        folds = leave_k_out_folds(FAMILY_NAMES, 2, folds=2, seed=7)
        assert len(folds) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="no family names"):
            leave_k_out_folds([], 1)
        with pytest.raises(ValueError, match="k must be"):
            leave_k_out_folds(FAMILY_NAMES, 0)
        with pytest.raises(ValueError, match="k must be"):
            leave_k_out_folds(FAMILY_NAMES, len(FAMILY_NAMES) + 1)


class TestConfigValidation:
    def test_unknown_modality(self):
        with pytest.raises(ValueError, match="unknown modalities"):
            GeneralizationConfig(modalities=("api", "syscall"))

    def test_empty_modalities(self):
        with pytest.raises(ValueError, match="at least one"):
            GeneralizationConfig(modalities=())

    def test_bad_k(self):
        with pytest.raises(ValueError, match="held_out_per_fold"):
            GeneralizationConfig(held_out_per_fold=0)
        with pytest.raises(ValueError, match="held_out_per_fold"):
            GeneralizationConfig(held_out_per_fold=len(ALL_FAMILIES))

    def test_bad_folds(self):
        with pytest.raises(ValueError, match="folds"):
            GeneralizationConfig(folds=0)


#: One tiny end-to-end run shared by the structural tests below: a
#: single fold of one modality, two epochs, both float and fixed-point.
TINY_CONFIG = GeneralizationConfig(
    modalities=("block_io",),
    held_out_per_fold=2,
    folds=1,
    scale=0.01,
    sequence_length=40,
    seed=7,
    epochs=2,
    optimizations=(OptimizationLevel.VANILLA, OptimizationLevel.FIXED_POINT),
    train_backend="reference",  # the oracle the fused parity test compares to
)


@pytest.fixture(scope="module")
def tiny_run():
    telemetry = Telemetry()
    report = evaluate_generalization(TINY_CONFIG, telemetry=telemetry)
    return report, telemetry


class TestReportStructure:
    def test_fold_sets_and_modalities(self, tiny_run):
        report, _ = tiny_run
        assert len(report.fold_sets) == 1
        assert len(report.fold_sets[0]) == 2
        assert [r.modality for r in report.modalities] == ["block_io"]
        assert report.modality("block_io").vocabulary_size == 105
        with pytest.raises(KeyError):
            report.modality("api")

    def test_fold_result_fields(self, tiny_run):
        report, _ = tiny_run
        (fold,) = report.modality("block_io").folds
        assert fold.held_out == report.fold_sets[0]
        assert fold.train_windows > 0
        assert fold.in_distribution_windows > 0
        assert fold.held_out_windows > 0
        assert {m.optimization for m in fold.levels} == {
            "VANILLA", "FIXED_POINT"
        }
        with pytest.raises(KeyError):
            fold.level(OptimizationLevel.II_OPTIMIZED)

    def test_metrics_are_probabilities_and_gap_consistent(self, tiny_run):
        report, _ = tiny_run
        (fold,) = report.modality("block_io").folds
        for metrics in fold.levels:
            for value in (
                metrics.held_out_recall, metrics.held_out_auc,
                metrics.held_out_precision, metrics.in_distribution_auc,
                *metrics.in_distribution.values(),
                *metrics.per_family_recall.values(),
            ):
                assert 0.0 <= value <= 1.0
            assert metrics.recall_gap == pytest.approx(
                metrics.in_distribution["recall"] - metrics.held_out_recall
            )
            assert set(metrics.per_family_recall) == set(fold.held_out)

    def test_per_family_recall_merges_folds(self, tiny_run):
        report, _ = tiny_run
        result = report.modality("block_io")
        merged = result.per_family_recall(OptimizationLevel.FIXED_POINT)
        assert set(merged) == set(report.fold_sets[0])
        assert np.isfinite(result.mean_recall_gap(OptimizationLevel.FIXED_POINT))

    def test_as_dict_is_json_serialisable(self, tiny_run):
        report, _ = tiny_run
        document = json.loads(json.dumps(report.as_dict()))
        assert document["protocol"] == "leave-k-families-out"
        assert document["config"]["modalities"] == ["block_io"]
        assert document["modalities"][0]["folds"][0]["levels"][0]["optimization"] \
            == "VANILLA"

    def test_telemetry_contract_metrics_emitted(self, tiny_run):
        _, telemetry = tiny_run
        names = {metric.name for metric in telemetry.metrics.all_metrics()}
        assert {"repro_gen_folds_total", "repro_gen_windows_total",
                "repro_gen_recall_gap", "repro_gen_heldout_recall"} <= names


class TestDeterminism:
    def test_same_config_same_report(self, tiny_run):
        report, _ = tiny_run
        again = evaluate_generalization(TINY_CONFIG)
        assert again.as_dict() == report.as_dict()

    def test_progress_callback_receives_lines(self):
        lines: list = []
        config = dataclasses.replace(
            TINY_CONFIG, optimizations=(OptimizationLevel.FIXED_POINT,)
        )
        evaluate_generalization(config, progress=lines.append)
        assert any("fold 0" in line for line in lines)


class TestServingStackParity:
    """A non-API modality flows through the unchanged session stack."""

    def test_block_io_windows_through_serve_tokens(self, tiny_run):
        report, _ = tiny_run
        vocabulary = MODALITIES["block_io"].vocabulary
        window = 16
        weights = HostWeights.from_model(
            SequenceClassifier(vocab_size=vocabulary.size, seed=3)
        )
        config = EngineConfig(
            dimensions=dataclasses.replace(
                weights.dimensions, sequence_length=window
            ),
            optimization=OptimizationLevel.FIXED_POINT,
        )
        engines = build_fleet(weights, 2, config=config)

        dataset = MODALITIES["block_io"].build_dataset(
            scale=0.01, sequence_length=window, seed=7, shuffle=True
        )
        sequences = dataset.sequences[:3]
        streams = [MonitoredStream(f"m{i}", 10_000.0)
                   for i in range(len(sequences))]
        arrivals = [
            TokenArrival(stream=streams[row].name, token=int(token),
                         arrival_us=step * 50)
            for step in range(window)
            for row, token in enumerate(sequences[:, step])
        ]
        server = FleetServer(
            engines, streams,
            ServingConfig(max_batch=8, max_wait_us=100, queue_depth=1024),
        )
        result = server.serve_tokens(
            arrivals, sessions=SessionConfig(stride=window)
        )
        by_stream = {record.stream: record for record in result.verdicts}
        assert set(by_stream) == {stream.name for stream in streams}
        # The sessionised probability equals the batch engine's — the
        # same engine the harness evaluates with.
        expected = engines[0].predict_proba(sequences)
        for row, stream in enumerate(streams):
            assert by_stream[stream.name].probability == pytest.approx(
                float(expected[row]), abs=1e-12
            )


class TestFoldParallelTrainingAndCache:
    """The PR's contract: pool/backend/cache change *nothing* in the report."""

    def test_workers_parity_and_merged_telemetry(self, tiny_run):
        serial_report, serial_telemetry = tiny_run
        telemetry = Telemetry()
        pooled = evaluate_generalization(
            dataclasses.replace(TINY_CONFIG, workers=2), telemetry=telemetry
        )
        assert pooled.as_dict() == serial_report.as_dict()

        def gen_counters(session):
            return sorted(
                (r["name"], tuple(sorted(r["labels"].items())), r["value"])
                for r in session.metrics.snapshot()
                if r["type"] == "counter" and r["name"].startswith("repro_gen_")
            )
        assert gen_counters(telemetry) == gen_counters(serial_telemetry)

    def test_fused_backend_parity(self, tiny_run):
        serial_report, _ = tiny_run
        fused = evaluate_generalization(
            dataclasses.replace(TINY_CONFIG, train_backend="fused")
        )
        assert fused.as_dict() == serial_report.as_dict()

    def test_warm_cache_trains_zero_models(self, tiny_run, tmp_path):
        serial_report, _ = tiny_run
        config = dataclasses.replace(TINY_CONFIG, cache_dir=str(tmp_path))
        cold = evaluate_generalization(config)
        telemetry = Telemetry()
        warm = evaluate_generalization(config, telemetry=telemetry)
        assert cold.as_dict() == warm.as_dict() == serial_report.as_dict()
        counts = {}
        for record in telemetry.metrics.snapshot():
            if record["type"] == "counter":
                counts[record["name"]] = (
                    counts.get(record["name"], 0) + record["value"]
                )
        models = len(warm.modalities) * len(warm.fold_sets)
        assert counts.get("repro_train_cache_hits_total") == models
        assert counts.get("repro_train_batches_total", 0) == 0

    def test_as_dict_config_keys_unchanged(self, tiny_run):
        """The committed BENCH_generalization.json schema must not grow
        keys for the new knobs (workers/backend/cache are run mechanics,
        not recipe)."""
        report, _ = tiny_run
        assert sorted(report.as_dict()["config"]) == [
            "epochs", "folds", "held_out_per_fold", "modalities",
            "optimizations", "scale", "seed", "sequence_length", "threshold",
        ]

    def test_config_validates_new_fields(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            GeneralizationConfig(workers=0)
        with pytest.raises(ValueError, match="unknown train backend"):
            GeneralizationConfig(train_backend="turbo")
