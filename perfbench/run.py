"""Benchmark of the CSD detection stack: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_churn --seed 0 --seconds 12 --trace 0

Workloads: ``fleet_churn``, ``fleet_attack``, ``batch_scan`` (see
``workloads.py``; metric definitions are in ``metrics.json``).

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then replays its seeded schedule until ``--seconds`` have
passed (at least ``min_passes`` times), and reports the end-to-end
metrics of ``BENCHMARK.json``.  Every replay does identical work; the
rates divide it by the median replay time.  Times are expressed at a
reference host speed: a fixed calibration kernel is timed beside each
round (batch_scan: chunk) and each setup, and each time is scaled by it
(see ``calibration.py``).  The raw wall-clock figures are printed too.

``--trace 1`` sets up once and replays three times -- untraced, traced,
untraced -- and reports every per-layer metric of the traced setup and
replay, with the tracing overhead.  Spans are written to ``.perfbench/``.

Every run checks its outputs: each replay's digest must equal the
others', the digest recorded in ``perfbench/expected.json`` for the seed
(where one is recorded), and every verdict or probability must equal the
``reference`` oracle's ``infer_batch`` on the same window.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: Thread-count settings of the BLAS builds numpy may link.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: Calibration samples taken before and after each setup.
SETUP_SAMPLES = 9
#: The traced run's self times must add up to its measured wall within
#: this share (the remainder is the harness's own timer calls).
TRACE_TOLERANCE = 0.02


def _load_json(name: str) -> dict:
    with open(HERE / name) as handle:
        return json.load(handle)


def _prepare() -> None:
    """Import ``repro`` from this checkout's ``src/`` and keep temp files here."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/repro under {ROOT}; run from a "
                         f"checkout of the repository")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Single-thread job (numpy is not imported yet): no BLAS worker threads.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Attempted/failed bookkeeping over passes and output checks."""

    def __init__(self, workload_name: str, seed: int):
        self.expected = _load_json("expected.json")
        self.name = workload_name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.policy_sheds: dict = {}
        self.problems: list = []
        self.notes: list = []

    def add_pass(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        for table, entries in ((self.failures, result.failures),
                               (self.policy_sheds, result.policy_sheds)):
            for reason, count in entries.items():
                table[reason] = table.get(reason, 0) + count

    def check(self, label: str, problems) -> None:
        """One checked operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures[label] = self.failures.get(label, 0) + 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)

    def digests(self, results) -> None:
        digests = {result.digest for result in results}
        self.check("digest_repeat", [] if len(digests) == 1 else
                   [f"{len(digests)} different digests over "
                    f"{len(results)} replays"])
        self.recorded(self.name, results[0].digest)

    def recorded(self, table: str, digest: str) -> None:
        entries = self.expected.get(table, {})
        recorded = entries.get(str(self.seed), entries.get("*"))
        if recorded is None:
            self.notes.append(f"no {table} digest recorded for seed "
                              f"{self.seed}; oracle and repeat checks only")
            return
        self.check(f"digest_{table}", [] if recorded == digest else
                   [f"digest {digest[:16]} != recorded {recorded[:16]}"])

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(make, seconds: float, checker: Checker) -> tuple:
    """Set up ``workload.setups`` times, then replay for ``seconds``."""
    from perfbench import calibration

    setups = make().setups
    setup_raw, setup_times, workload, training = [], [], None, []
    for _ in range(setups):
        workload = None
        gc.collect()
        before = calibration.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        workload = make()
        workload.setup()
        setup_raw.append(time.perf_counter() - start)
        kernel_s = (before + calibration.sample(SETUP_SAMPLES)) / 2
        setup_times.append(calibration.scale(setup_raw[-1], kernel_s))
        if getattr(workload, "training", None):
            training.append(workload.training)
    workload.calibrate = calibration.sample
    for entry in training:
        checker.recorded("training", entry["loss_digest"])

    passes = []
    start = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - start < seconds):
        gc.collect()
        result = workload.run_pass()
        checker.add_pass(result)
        if passes:
            result.outputs = None   # only the first replay is re-derived
        passes.append(result)
    checker.digests(passes)
    checker.check("oracle", workload.check(passes[0]))

    # Every replay does the same work: rates use the median replay, each
    # round (chunk) scaled to reference host speed by the sample beside it.
    scaled = [sum(calibration.scale(seconds, kernel_s)
                  for seconds, kernel_s in zip(r.segments, r.calibration))
              for r in passes]
    wall = statistics.median(scaled)
    raw_wall = statistics.median(result.wall_s for result in passes)
    first = passes[0]
    metrics = {
        "tokens_per_s": _metric(first.tokens / wall, "1/s"),
        "sequences_per_s": _metric(first.sequences / wall, "1/s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
    }
    details = dict(first.details)
    extra = {
        "tokens_per_wall_s": _metric(first.tokens / raw_wall, "1/s"),
        "sequences_per_wall_s": _metric(first.sequences / raw_wall, "1/s"),
        "setup_wall_s": _metric(statistics.median(setup_raw), "s"),
        "error_rate": _metric(checker.failed / checker.attempted, "ratio"),
    }
    if training:
        rates = [t["batches"] / t["fit_s"] for t in training]
        extra["train_batches_per_s"] = _metric(statistics.median(rates), "1/s")
    for name, unit in (("verdict_p50_sim_us", "sim_us"),
                       ("verdict_p99_sim_us", "sim_us"),
                       ("detect_latency_tokens_p50", "tokens"),
                       ("attack_bytes_prevented", "ratio")):
        if details.get(name) is not None:
            extra[name] = _metric(details[name], unit)
    samples = {
        "passes": len(passes), "setups": len(setup_times),
        "segments": len(first.segments),
        "pass_scaled_s": scaled,
        "pass_wall_s": [result.wall_s for result in passes],
        "kernel_median_s": statistics.median(
            kernel_s for r in passes for kernel_s in r.calibration),
        "setup_s": setup_times, "setup_wall_s": setup_raw,
    }
    return metrics, extra, samples, workload, details


def run_traced(make, checker: Checker, out_dir=None) -> tuple:
    """One traced setup, then untraced, traced and untraced replays."""
    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer, managers = Tracer(), []
    workload = make()
    layers.install(tracer, managers)
    try:
        start = time.perf_counter()
        with tracer.span("bench"):
            workload.setup()
        setup_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    if getattr(workload, "training", None):
        checker.recorded("training", workload.training["loss_digest"])

    gc.collect()
    before = workload.run_pass()
    checker.add_pass(before)

    gc.collect()
    managers.clear()
    probe = layers.PeakProbe(tracer)
    engines = workload.all_engines()
    sequences_before = sum(e.sequences_processed for e in engines)
    layers.install(tracer, managers)
    try:
        start = time.perf_counter()
        with tracer.span("bench"):
            traced = workload.run_pass(probe)
        pass_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    engine_sequences = sum(e.sequences_processed for e in engines) - sequences_before
    checker.add_pass(traced)

    gc.collect()
    after = workload.run_pass()
    checker.add_pass(after)
    checker.digests([before, traced, after])
    checker.check("oracle", workload.check(traced))

    metrics = layers.per_layer_metrics(tracer, traced, workload, managers,
                                       probe, engine_sequences)
    untraced = (before.wall_s + after.wall_s) / 2
    traced_wall = tracer.top_level_ns() / 1e9
    self_sum = sum(tracer.self_ns().values()) / 1e9
    measured_wall = setup_wall + pass_wall
    metrics.update({
        "trace.self_s": tracer.self_ns().get("trace", 0) / 1e9,
        "trace.wall_s": traced_wall,
        "trace.untraced_pass_s": untraced,
        "trace.traced_pass_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced,
        "trace.spans": len(tracer.spans),
    })
    units = {entry["name"]: entry["unit"]
             for entry in _load_json("metrics.json")["per_layer"]}
    metrics = {name: _metric(value, units[name])
               for name, value in metrics.items()}
    out_dir = pathlib.Path(out_dir or OUT)
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(spans_path)
    checker.check("trace_sum", [
        f"self times add up to {self_sum:.4f} s, measured wall "
        f"{measured_wall:.4f} s"
    ] if abs(measured_wall - self_sum) > TRACE_TOLERANCE * measured_wall
        else [])
    samples = {
        "self_sum_s": self_sum, "measured_wall_s": measured_wall,
        "trace_tolerance": TRACE_TOLERANCE, "spans_file": str(spans_path),
    }
    return metrics, {}, samples, workload, dict(traced.details)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    checker = Checker(cls.name, args.seed)

    def make():
        return cls(args.seed)

    if args.trace:
        metrics, extra, samples, workload, details = run_traced(make, checker)
    else:
        metrics, extra, samples, workload, details = run_timed(
            make, args.seconds, checker)

    print(f"workload {cls.name} seed {args.seed}: {cls.why}")
    print("path " + json.dumps({**workload.path(), **_environment()},
                               sort_keys=True))
    print("samples " + json.dumps(samples))
    print("details " + json.dumps(details, sort_keys=True, default=str))
    for name, metric in {**metrics, **extra}.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(f"  attempted {checker.attempted}, failed {checker.failed} "
          f"{checker.failures or ''}, policy sheds "
          f"{checker.policy_sheds or 'none'}")
    for note in checker.notes:
        print(f"  note: {note}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
