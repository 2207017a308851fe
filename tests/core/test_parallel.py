"""WorkerPool: shard parity, crash recovery, graceful degradation.

The contract under test is the hard one from the performance docs: with
``workers=k`` every probability is **bit-identical** to ``workers=1`` at
every optimisation level — across worker deaths, retries, and full
in-process fallback — and worker telemetry merges exactly.
"""

import dataclasses
import os
import signal

import numpy as np
import pytest

from repro.core import parallel
from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine, engine_at_level
from repro.core.fleet import MonitoredStream
from repro.core.parallel import WorkerPool, _pool_supported
from repro.core.serving import FleetServer, ServingConfig, build_fleet, generate_workload
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier
from repro.telemetry import Telemetry

SEQ_LEN = 12
VOCAB = 278

pool_required = pytest.mark.skipif(
    not _pool_supported()[0], reason="fork/shared_memory unavailable here"
)


@pytest.fixture(scope="module")
def model():
    return SequenceClassifier(seed=11)


def make_engine(model, level=OptimizationLevel.FIXED_POINT):
    return engine_at_level(model, level, sequence_length=SEQ_LEN)


def make_batch(batch_size: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, VOCAB, size=(batch_size, SEQ_LEN))


# ----------------------------------------------------------------------
# Bit-exact parity
# ----------------------------------------------------------------------


@pool_required
@pytest.mark.parametrize("level", list(OptimizationLevel), ids=lambda l: l.name)
@pytest.mark.parametrize("workers", [2, 4])
def test_workers_bit_identical(model, level, workers):
    engine = make_engine(model, level)
    batch = make_batch(26)
    baseline = engine.predict_proba(batch, chunk_size=4)
    try:
        parallel_result = engine.predict_proba(
            batch, chunk_size=4, workers=workers
        )
        assert engine._pool.mode == "pool"
        assert np.array_equal(baseline, parallel_result)
    finally:
        engine.shutdown_pool()


@pool_required
def test_pool_is_cached_and_rebuilt_on_count_change(model):
    engine = make_engine(model)
    try:
        first = engine.worker_pool(2)
        assert engine.worker_pool(2) is first
        second = engine.worker_pool(3)
        assert second is not first
        assert second.workers == 3
    finally:
        engine.shutdown_pool()


@pool_required
def test_telemetry_counters_merge_exactly(model):
    def run(workers):
        engine = make_engine(model)
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        engine.predict_proba(make_batch(20), chunk_size=5, workers=workers)
        engine.shutdown_pool()
        return [
            record for record in telemetry.metrics.snapshot()
            if not record["name"].startswith("repro_parallel_")
        ]

    assert run(2) == run(1)


@pool_required
def test_pool_warms_every_worker_before_serving(model):
    """Construction sends one throwaway row to each worker and waits for
    it, so no worker builds its backend inside the first real batch; the
    warm-up leaves no result, counted task or merged metric behind."""
    engine = make_engine(model)
    batch = make_batch(12)
    expected = engine.predict_proba(batch, chunk_size=4)
    telemetry = Telemetry()
    pool = WorkerPool(engine.config, engine.weights, 2, telemetry=telemetry)
    try:
        assert pool.mode == "pool"
        assert pool._next_task_id == 2  # one warm-up task per worker
        assert pool._done == {} and pool._assigned == {}
        assert [
            record["name"] for record in telemetry.metrics.snapshot()
        ] == ["repro_parallel_workers"]
        assert np.array_equal(pool.predict_proba(batch, chunk_size=4), expected)
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


@pool_required
def test_worker_crash_retries_shards_exactly(model):
    engine = make_engine(model)
    batch = make_batch(24)
    expected = engine.predict_proba(batch, chunk_size=4)
    telemetry = Telemetry()
    pool = WorkerPool(engine.config, engine.weights, 2, telemetry=telemetry)
    try:
        assert pool.mode == "pool"
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        result = pool.predict_proba(batch, chunk_size=4)
        assert np.array_equal(result, expected)
        assert pool.mode == "pool"  # the survivor kept serving
        assert telemetry.counter("repro_parallel_worker_deaths_total").value == 1
        assert telemetry.counter("repro_parallel_retries_total").value >= 1
    finally:
        pool.close()


@pool_required
def test_all_workers_dead_falls_back_in_process(model):
    engine = make_engine(model)
    batch = make_batch(10)
    expected = engine.predict_proba(batch, chunk_size=5)
    telemetry = Telemetry()
    pool = WorkerPool(engine.config, engine.weights, 2, telemetry=telemetry)
    try:
        for worker in pool._workers:
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=10)
        result = pool.predict_proba(batch, chunk_size=5)
        assert np.array_equal(result, expected)
        assert pool.mode == "inprocess"
        assert telemetry.counter(
            "repro_parallel_fallback_total", reason="all_workers_dead"
        ).value >= 1
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


def test_unsupported_environment_falls_back(model, monkeypatch):
    engine = make_engine(model)
    batch = make_batch(8)
    expected = engine.predict_proba(batch, chunk_size=4)
    monkeypatch.setattr(parallel, "_pool_supported", lambda: (False, "no_fork"))
    telemetry = Telemetry()
    engine.attach_telemetry(telemetry)
    try:
        result = engine.predict_proba(batch, chunk_size=4, workers=2)
        assert np.array_equal(result, expected)
        assert engine._pool.mode == "inprocess"
        assert telemetry.counter(
            "repro_parallel_fallback_total", reason="no_fork"
        ).value == 1
        assert telemetry.gauge("repro_parallel_workers").value == 0
        assert telemetry.counter(
            "repro_parallel_tasks_total", mode="inprocess"
        ).value == 2
    finally:
        engine.shutdown_pool()


def test_rejects_invalid_worker_count(model):
    engine = make_engine(model)
    with pytest.raises(ValueError):
        WorkerPool(engine.config, engine.weights, 0)


# ----------------------------------------------------------------------
# Fleet offload
# ----------------------------------------------------------------------


def _fleet_fixtures(model):
    weights = HostWeights.from_model(model)
    dims = dataclasses.replace(weights.dimensions, sequence_length=SEQ_LEN)
    config = EngineConfig(
        dimensions=dims, optimization=OptimizationLevel.FIXED_POINT
    )
    streams = [
        MonitoredStream(f"s{i}", 1500.0, detection_stride=10) for i in range(4)
    ]
    workload = generate_workload(
        streams, duration_us=30_000, sequence_length=SEQ_LEN,
        vocab_size=dims.vocab_size, seed=3,
    )
    return weights, config, streams, workload


@pool_required
def test_fleet_offload_identical_event_log_and_probabilities(model):
    weights, config, streams, workload = _fleet_fixtures(model)

    def run(workers):
        engines = build_fleet(weights, 2, config=config)
        server = FleetServer(engines, streams, ServingConfig(), workers=workers)
        return server.serve(list(workload))

    baseline = run(0)
    offloaded = run(2)
    assert baseline.event_log == offloaded.event_log
    assert [c.probability for c in baseline.completed] == [
        c.probability for c in offloaded.completed
    ]
    assert baseline.completed_count > 0


def test_fleet_rejects_heterogeneous_engines_with_workers(model):
    weights, config, streams, _ = _fleet_fixtures(model)
    engines = [
        CSDInferenceEngine(config, weights),
        CSDInferenceEngine(config, HostWeights.from_model(model)),
    ]
    with pytest.raises(ValueError, match="homogeneous"):
        FleetServer(engines, streams, ServingConfig(), workers=2)


# ----------------------------------------------------------------------
# parallel_map: the generic fold-parallel task pool
# ----------------------------------------------------------------------


def _square_task(index, telemetry):
    if telemetry is not None:
        telemetry.counter("repro_gen_folds_total", modality="test").inc()
    return index * index


class TestParallelMap:
    def test_serial_runs_in_order_on_parent_telemetry(self):
        telemetry = Telemetry()
        results = parallel.parallel_map(
            _square_task, 5, workers=1, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9, 16]
        counts = {
            (record["name"], record["labels"].get("modality")): record["value"]
            for record in telemetry.metrics.snapshot()
            if record["type"] == "counter"
        }
        assert counts[("repro_gen_folds_total", "test")] == 5
        assert counts[("repro_parallel_tasks_total", None)] == 5

    @pool_required
    def test_pool_results_in_index_order_with_merged_telemetry(self):
        telemetry = Telemetry()
        results = parallel.parallel_map(
            _square_task, 7, workers=3, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9, 16, 25, 36]
        counts = {
            record["labels"].get("mode", record["labels"].get("modality")):
                record["value"]
            for record in telemetry.metrics.snapshot()
            if record["type"] == "counter"
        }
        assert counts["test"] == 7    # merged from worker snapshots
        assert counts["pool"] == 7

    @pool_required
    def test_pool_matches_serial(self):
        assert parallel.parallel_map(_square_task, 6, workers=2) == \
            parallel.parallel_map(_square_task, 6, workers=1)

    def test_count_zero(self):
        assert parallel.parallel_map(_square_task, 0, workers=4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            parallel.parallel_map(_square_task, -1)
        with pytest.raises(ValueError):
            parallel.parallel_map(_square_task, 3, workers=0)

    def test_task_error_raised_after_all_tasks(self):
        def sometimes_boom(index, telemetry):
            if index == 2:
                raise ValueError("boom")
            return index

        with pytest.raises(RuntimeError, match="parallel task 2 failed"):
            parallel.parallel_map(sometimes_boom, 4, workers=1)

    @pool_required
    def test_pool_error_propagates(self):
        with pytest.raises(RuntimeError, match="parallel task 1 failed"):
            parallel.parallel_map(_boom_task, 3, workers=2)

    def test_unsupported_environment_counts_fallback(self, monkeypatch):
        telemetry = Telemetry()
        monkeypatch.setattr(
            parallel, "_pool_supported", lambda: (False, "no_fork")
        )
        results = parallel.parallel_map(
            _square_task, 4, workers=2, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9]
        fallbacks = {
            record["labels"]["reason"]: record["value"]
            for record in telemetry.metrics.snapshot()
            if record["name"] == "repro_parallel_fallback_total"
        }
        assert fallbacks.get("no_fork") == 1


def _boom_task(index, telemetry):
    if index == 1:
        raise ValueError("boom")
    return index
