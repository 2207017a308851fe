"""Tests of the benchmark itself, on tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.layers import TARGETS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench import calibration  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ATTACK_BURST,
    WORKLOADS,
    FleetAttack,
    FleetChurn,
    _FleetWorkload,
    verdict_digest,
)

TINY = {
    "fleet_churn": {
        "racks": 1, "nodes_per_rack": 2, "drives_per_node": 2,
        "active_per_node": 1, "shards_per_drive": 2,
        "streams_per_class": 200, "hot_per_class": 20, "rounds": 10,
        "registration_rounds": 5, "hot_rounds": 8, "window": 8,
        "drains": ((4, 0),),
    },
    "fleet_attack": {
        "drives": 2, "shards_per_drive": 2, "ransomware": 2, "benign": 6,
        "ransomware_tokens": 120, "benign_tokens": 80,
        "dataset_scale": 0.01, "epochs": 2,
    },
    "batch_scan": {"scale": 0.005, "window": 20, "chunk": 16},
}


def _load(name: str) -> dict:
    with open(name) as handle:
        return json.load(handle)


@pytest.fixture
def local_tmp(tmp_path, monkeypatch):
    """Keep compiled-kernel scratch dirs inside the test's tmp dir."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digests_same_under_reference_and_fused(name, local_tmp):
    results = {}
    for backend in ("reference", "fused"):
        workload = WORKLOADS[name](3, backend=backend, train_backend=backend,
                                   **TINY[name])
        workload.setup()
        result = workload.run_pass()
        if isinstance(workload, _FleetWorkload):
            assert _FleetWorkload.check(workload, result) == []
            paths = workload.path()["drives"]
        else:
            assert workload.check(result) == []
            paths = [workload.path()["engine"]]
        # The forced backend ran its own math, not a degraded fallback.
        for path in paths:
            assert path["backend"] == backend
            assert not {"self_check_failed", "unsafe_bounds"} & set(path["fallbacks"])
        training = getattr(workload, "training", None)
        results[backend] = (result.digest,
                            training and training["loss_digest"])
        assert result.sequences > 0
    assert results["reference"] == results["fused"]


def test_mutated_verdict_fails_the_check():
    workload = FleetChurn(1, **TINY["fleet_churn"])
    workload.setup()
    result = workload.run_pass()
    assert workload.check(result) == []

    stream = next(s for s, entries in sorted(result.outputs.items()) if entries)
    (index, probability, label), *rest = result.outputs[stream]
    outputs = dict(result.outputs)
    outputs[stream] = ((index, math.nextafter(probability, 1.0), label), *rest)
    mutated = dataclasses.replace(result, outputs=outputs,
                                  digest=verdict_digest(outputs))
    assert mutated.digest != result.digest
    assert workload.check(mutated)

    checker = run.Checker(workload.name, workload.seed)
    checker.expected = {}   # recorded digests are for the full sizes
    checker.digests([result, mutated])
    checker.check("oracle", workload.check(mutated))
    assert checker.failed == 2 and not checker.correct


@pytest.mark.parametrize("seed", [0, 171809643])
def test_every_ransomware_stream_encrypts_after_one_window(seed):
    """However late a stream's encryption starts, its segment holds it."""
    workload = FleetAttack(seed)
    workload.build(FleetAttack(seed, **TINY["fleet_attack"]).train())
    assert len(workload.ransomware) == workload.sizes["ransomware"]
    writes = {}
    for round_writes, _ in workload.rounds:
        for name, step, _ in round_writes:
            writes.setdefault(name, []).append(step)
    for name in workload.ransomware:
        assert len(workload.stream_tokens[name]) \
            == workload.sizes["ransomware_tokens"]
        onset = workload.onsets[name]
        assert 0 <= onset <= workload.window
        burst = [step for step in writes[name]
                 if onset <= step < onset + workload.window]
        assert burst[0] == onset and len(burst) >= ATTACK_BURST


def test_calibration_scales_to_reference_speed():
    assert calibration.scale(2.0, calibration.REFERENCE_S) == 2.0
    assert calibration.scale(2.0, 2 * calibration.REFERENCE_S) == 1.0
    kernel_s = calibration.sample(1)
    assert 0 < kernel_s < 1


def test_recorded_digest_mismatch_fails():
    checker = run.Checker("fleet_churn", 0)
    checker.expected = {"fleet_churn": {"0": "a" * 64}}
    checker.recorded("fleet_churn", "b" * 64)
    assert checker.failed == 1
    checker.recorded("fleet_churn", "a" * 64)
    assert checker.failed == 1 and checker.attempted == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_self_times(name, tmp_path):
    checker = run.Checker(name, 5)
    checker.expected = {}   # recorded digests are for the full sizes
    metrics, _, samples, _, _ = run.run_traced(
        lambda: WORKLOADS[name](5, **TINY[name]), checker, out_dir=tmp_path,
    )
    assert not [p for p in checker.problems if "trace_sum" in p]
    # The tiny fleet_attack model may detect nothing; only the oracle's
    # re-derivation has to hold at every size.
    assert not [p for p in checker.problems if "differ" in p]

    tracer = Tracer()
    with open(samples["spans_file"]) as handle:
        tracer.spans = [json.loads(line) for line in handle]
    self_ns = tracer.self_ns()
    assert min(self_ns.values()) >= 0
    assert sum(self_ns.values()) == tracer.top_level_ns()
    wall = samples["measured_wall_s"]
    assert abs(wall - samples["self_sum_s"]) <= run.TRACE_TOLERANCE * wall

    described = [entry["name"] for entry in
                 _load(run.HERE / "metrics.json")["per_layer"]]
    assert sorted(metrics) == sorted(described)
    overhead = metrics["trace.overhead_s"]
    assert overhead["unit"] == "s" and math.isfinite(overhead["value"])
    if name != "batch_scan":
        assert metrics["serving.ticks"]["value"] > 0
        assert metrics["kernels.rows"]["value"] > 0
    if name == "fleet_attack":
        assert metrics["response.verdicts"]["value"] > 0
        assert metrics["nn.batches"]["value"] > 0
    if name == "batch_scan":
        assert metrics["smartssd.fetch_s"]["value"] > 0


def test_tracer_self_time_and_restore():
    class Owner:
        def outer(self, inner):
            return inner()

    tracer = Tracer()
    original = Owner.__dict__["outer"]
    tracer.wrap(Owner, "outer", "a")
    with tracer.span("root"):
        Owner().outer(lambda: Owner().outer(lambda: None))
    tracer.restore()
    assert Owner.__dict__["outer"] is original
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
    self_ns = tracer.self_ns()
    assert sum(self_ns.values()) == tracer.top_level_ns()
    inclusive = tracer.inclusive_ns()
    _, start, end, _ = tracer.spans[1]
    assert inclusive["a"] == end - start


def test_benchmark_json_matches_the_description():
    bench = _load(ROOT / "BENCHMARK.json")
    described = _load(run.HERE / "metrics.json")
    for section in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[section]] \
            == [(m["name"], m["unit"], m["better"]) for m in described[section]]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["paths"] == ["perfbench"]
    for entry in described["per_layer"]:
        assert entry["moves"] and entry["workload"]


def test_every_target_exists():
    for owner, attr, _ in TARGETS:
        assert callable(owner.__dict__[attr])
