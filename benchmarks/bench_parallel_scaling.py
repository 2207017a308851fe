"""Multi-worker scaling of the host-simulation inference throughput.

Sweeps the :class:`~repro.core.parallel.WorkerPool` from 1 worker up to
the host's core count (or ``--workers``), measuring wall-clock
``predict_proba`` throughput at each rung, verifying every rung's
probabilities are **bit-identical** to the single-process path, and
writing ``BENCH_parallel_scaling.json`` (sequences/sec, speedup,
parallel efficiency).  This quantifies the *host simulation* speedup
only — the simulated per-sequence hardware latency is unchanged by how
the simulation is scheduled (see ``docs/performance.md``).

Two entry points:

* ``pytest benchmarks/bench_parallel_scaling.py`` — harness mode, using
  the shared bench model and ``REPRO_BENCH_WORKERS`` knob.
* ``PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--quick]``
  — standalone CLI (the CI perf-smoke job), with ``--assert-speedup`` to
  gate on a minimum achieved speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.nn.model import SequenceClassifier

DEFAULT_OUTPUT = "BENCH_parallel_scaling.json"

#: Timed sweeps per rung; the rung's rate comes from their median.
REPEATS = 9


def _worker_counts(max_workers: int) -> list:
    """1, 2, 4, ... doubling up to (and including) ``max_workers``."""
    counts = [1]
    while counts[-1] * 2 < max_workers:
        counts.append(counts[-1] * 2)
    if max_workers > 1:
        counts.append(max_workers)
    return counts


def _timed_run(engine, sequences, chunk_size: int, workers: int):
    """Warm one rung, then time ``REPEATS`` ``predict_proba`` sweeps.

    The untimed set-up (pool fork + weight broadcast, and one full sweep
    so every worker's lazy state and the OS's placement of the workers
    settle) is timed on its own.  Returns the probabilities of every
    timed sweep, their wall seconds and the set-up seconds.
    """
    start = time.perf_counter()
    if workers > 1:
        engine.worker_pool(workers)
    engine.predict_proba(sequences, chunk_size=chunk_size, workers=workers)
    setup_seconds = time.perf_counter() - start
    sweeps, seconds = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sweeps.append(engine.predict_proba(
            sequences, chunk_size=chunk_size, workers=workers
        ))
        seconds.append(time.perf_counter() - start)
    return sweeps, seconds, setup_seconds


def run_scaling(
    engine,
    num_sequences: int,
    chunk_size: int,
    max_workers: int,
) -> dict:
    """Sweep worker counts; returns the result document (plain data).

    Each rung's rate comes from the median of its ``REPEATS`` timed
    sweeps, so one sweep stalled by the host does not decide a speedup.
    """
    rng = np.random.default_rng(0)
    sequences = rng.integers(
        0, engine.config.dimensions.vocab_size,
        size=(num_sequences, engine.config.dimensions.sequence_length),
    )
    results = []
    baseline_probabilities = None
    baseline_rate = None
    for workers in _worker_counts(max_workers):
        sweeps, seconds, setup_seconds = _timed_run(
            engine, sequences, chunk_size, workers
        )
        median_seconds = float(np.median(seconds))
        rate = num_sequences / median_seconds
        if baseline_probabilities is None:
            baseline_probabilities = sweeps[0]
            baseline_rate = rate
        bit_exact = all(
            np.array_equal(probabilities, baseline_probabilities)
            for probabilities in sweeps
        )
        results.append(
            {
                "workers": workers,
                "mode": engine._pool.mode if workers > 1 else "single",
                "seconds": median_seconds,
                "sweep_seconds": seconds,
                "setup_seconds": setup_seconds,
                "sequences_per_second": rate,
                "speedup": rate / baseline_rate,
                "efficiency": rate / baseline_rate / workers,
                "bit_exact_vs_single_process": bit_exact,
            }
        )
    engine.shutdown_pool()
    return {
        "benchmark": "parallel_scaling",
        "host_cores": os.cpu_count(),
        "optimization": engine.config.optimization.name,
        "backend": engine.config.backend,
        "sequence_length": engine.config.dimensions.sequence_length,
        "num_sequences": num_sequences,
        "chunk_size": chunk_size,
        "repeats": REPEATS,
        "results": results,
    }


def _report_lines(document: dict) -> list:
    lines = [
        f"host cores: {document['host_cores']}  "
        f"optimization: {document['optimization']}  "
        f"backend: {document['backend']}  "
        f"{document['num_sequences']} sequences x "
        f"{document['sequence_length']} items (chunk {document['chunk_size']}), "
        f"median of {document['repeats']} sweeps per rung",
    ]
    for row in document["results"]:
        lines.append(
            f"workers {row['workers']:2d} [{row['mode']:9s}]: "
            f"{row['sequences_per_second']:8.1f} seq/s  "
            f"sweeps {min(row['sweep_seconds']) * 1e3:.1f}-"
            f"{max(row['sweep_seconds']) * 1e3:.1f} ms  "
            f"set-up {row['setup_seconds'] * 1e3:.1f} ms  "
            f"speedup {row['speedup']:.2f}x  "
            f"efficiency {row['efficiency']:.2f}  "
            f"bit-exact {row['bit_exact_vs_single_process']}"
        )
    return lines


# ----------------------------------------------------------------------
# Harness mode
# ----------------------------------------------------------------------


def bench_parallel_scaling(benchmark, bench_model, bench_telemetry, bench_workers):
    from benchmarks.conftest import record_report

    engine = engine_at_level(
        bench_model, OptimizationLevel.FIXED_POINT, sequence_length=100
    )
    if bench_telemetry is not None:
        engine.attach_telemetry(bench_telemetry)
    document = run_scaling(
        engine, num_sequences=512, chunk_size=64, max_workers=bench_workers
    )
    # pytest-benchmark still gets one stable measurement: the widest rung.
    widest = document["results"][-1]["workers"]
    rng = np.random.default_rng(1)
    sequences = rng.integers(0, 278, size=(128, 100))
    benchmark(
        lambda: engine.predict_proba(sequences, chunk_size=64, workers=widest)
    )
    engine.shutdown_pool()
    record_report("Parallel scaling (host simulation)", _report_lines(document))
    assert all(r["bit_exact_vs_single_process"] for r in document["results"])


# ----------------------------------------------------------------------
# Standalone CLI (CI perf smoke)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=0,
                        help="max worker count (default: host core count)")
    parser.add_argument("--sequences", type=int, default=1024,
                        help="sequences per timed sweep")
    parser.add_argument("--chunk-size", type=int, default=64)
    parser.add_argument("--sequence-length", type=int, default=100)
    parser.add_argument("--optimization",
                        choices=[l.name for l in OptimizationLevel],
                        default=OptimizationLevel.FIXED_POINT.name)
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke (fewer sequences)")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the best multi-worker "
                             "rung reaches X times the single-process rate")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON result path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    num_sequences = 256 if args.quick else args.sequences
    max_workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    engine = engine_at_level(
        SequenceClassifier(seed=0),
        OptimizationLevel[args.optimization],
        sequence_length=args.sequence_length,
    )
    document = run_scaling(
        engine, num_sequences=num_sequences,
        chunk_size=args.chunk_size, max_workers=max_workers,
    )
    for line in _report_lines(document):
        print(line)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not all(r["bit_exact_vs_single_process"] for r in document["results"]):
        print("FAIL: multi-worker probabilities diverged from single-process")
        return 1
    if args.assert_speedup is not None:
        best = max(r["speedup"] for r in document["results"])
        if best < args.assert_speedup:
            print(f"FAIL: best speedup {best:.2f}x < required "
                  f"{args.assert_speedup:.2f}x")
            return 1
        print(f"speedup gate passed: {best:.2f}x >= {args.assert_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
