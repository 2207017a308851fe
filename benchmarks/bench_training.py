"""Fused-vs-reference training kernel throughput and bit-exactness.

Times the full :meth:`~repro.nn.trainer.Trainer.fit` loop once per
registered training backend (``repro.nn.kernels``) on the same synthetic
dataset and seed, verifies the trained weights **and** the recorded
:class:`~repro.nn.trainer.ConvergenceHistory` are bit-identical across
backends (the registry's core contract), and writes
``BENCH_training.json`` (seconds, batches/sec, speedup, accel tier).

The speedup is honest about the host: on a machine with a working C
toolchain the fused backend runs its compiled step loops and
the ``--assert-backend-speedup-if-accelerated`` gate applies; on a host
without one it trains on the reference path (counted in
``repro_train_backend_fallback_total``) and the gate is skipped.

Two entry points:

* ``pytest benchmarks/bench_training.py`` — harness mode, using the
  shared report plumbing.
* ``PYTHONPATH=src python benchmarks/bench_training.py [--quick]`` —
  standalone CLI (the CI perf-smoke job), with ``--assert-bit-exact``
  and ``--assert-backend-speedup-if-accelerated X``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.nn.kernels import available_training_backends
from repro.nn.model import PAPER_VOCAB_SIZE, SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig

DEFAULT_OUTPUT = "BENCH_training.json"

#: The ground-truth row every other backend is compared against, pinned
#: by name (not the library default, which is the fused backend).
ORACLE_BACKEND = "reference"


def _dataset(num_sequences: int, sequence_length: int, vocab_size: int):
    """Deterministic synthetic split (content irrelevant to kernel timing)."""
    rng = np.random.default_rng(42)
    sequences = rng.integers(0, vocab_size, size=(num_sequences, sequence_length))
    labels = rng.integers(0, 2, size=num_sequences)
    test_count = max(2, num_sequences // 5)
    return (
        sequences[test_count:], labels[test_count:],
        sequences[:test_count], labels[:test_count],
    )


def _timed_fit(backend: str, epochs: int, batch_size: int, split) -> dict:
    """Train one fresh model with ``backend``; returns the result row."""
    train_x, train_y, test_x, test_y = split
    model = SequenceClassifier(seed=0)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=epochs, batch_size=batch_size, eval_every=epochs,
            backend=backend,
        ),
    )
    start = time.perf_counter()
    history = trainer.fit(train_x, train_y, test_x, test_y)
    seconds = time.perf_counter() - start
    batches = epochs * -(-train_x.shape[0] // batch_size)
    return {
        "backend": backend,
        "accel_tier": trainer.kernel.accel_tier,
        "fallbacks": dict(trainer.kernel.fallback_reasons),
        "seconds": seconds,
        "batches_per_second": batches / seconds,
        "weights": model.get_weights(),
        "history": history.records,
    }


def run_training_bench(epochs: int, batch_size: int, num_sequences: int,
                       sequence_length: int) -> dict:
    """Time every backend on the same run; reference defines ground truth."""
    split = _dataset(num_sequences, sequence_length, PAPER_VOCAB_SIZE)
    backends = [ORACLE_BACKEND] + [
        name for name in available_training_backends()
        if name != ORACLE_BACKEND
    ]
    rows = []
    reference = None
    for backend in backends:
        row = _timed_fit(backend, epochs, batch_size, split)
        weights = row.pop("weights")
        history = row.pop("history")
        if reference is None:
            reference = {"weights": weights, "history": history,
                         "seconds": row["seconds"]}
            row["bit_exact_vs_reference"] = True
        else:
            row["bit_exact_vs_reference"] = bool(
                len(weights) == len(reference["weights"])
                and all(np.array_equal(a, b)
                        for a, b in zip(weights, reference["weights"]))
                and history == reference["history"]
            )
        row["speedup_vs_reference"] = reference["seconds"] / row["seconds"]
        rows.append(row)
    return {
        "benchmark": "training_kernels",
        "epochs": epochs,
        "batch_size": batch_size,
        "num_sequences": num_sequences,
        "sequence_length": sequence_length,
        "results": rows,
    }


def _report_lines(document: dict) -> list:
    lines = [
        f"{document['num_sequences']} sequences x "
        f"{document['sequence_length']} items, "
        f"{document['epochs']} epochs (batch {document['batch_size']})",
    ]
    for row in document["results"]:
        tier = row["accel_tier"] or "reference"
        lines.append(
            f"backend {row['backend']:>9s} [{tier:>5s}]: "
            f"{row['seconds']:6.2f}s  {row['batches_per_second']:6.1f} batch/s  "
            f"speedup {row['speedup_vs_reference']:.2f}x  "
            f"bit-exact {row['bit_exact_vs_reference']}"
        )
    return lines


# ----------------------------------------------------------------------
# Harness mode
# ----------------------------------------------------------------------


def bench_training_kernels(benchmark):
    from benchmarks.conftest import record_report

    document = run_training_bench(
        epochs=3, batch_size=64, num_sequences=320, sequence_length=60
    )
    # pytest-benchmark gets one stable measurement: a fused train_batch.
    split = _dataset(128, 60, 278)
    model = SequenceClassifier(seed=0)
    trainer = Trainer(model, TrainingConfig(backend="fused"))
    benchmark(lambda: trainer.kernel.train_batch(split[0][:64], split[1][:64]))
    record_report("Training kernels (fused vs reference)",
                  _report_lines(document))
    assert all(r["bit_exact_vs_reference"] for r in document["results"])


# ----------------------------------------------------------------------
# Standalone CLI (CI perf smoke)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--sequences", type=int, default=1024)
    parser.add_argument("--sequence-length", type=int, default=60)
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke")
    parser.add_argument("--assert-bit-exact", action="store_true",
                        help="exit non-zero unless every backend matches "
                             "the reference weights + history bitwise")
    parser.add_argument("--assert-backend-speedup-if-accelerated",
                        type=float, default=None, metavar="X",
                        help="exit non-zero unless the fused backend "
                             "reaches X times the reference rate — only "
                             "enforced when the compiled C tier "
                             "actually built on this host")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON result path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    num_sequences = 320 if args.quick else args.sequences
    epochs = 3 if args.quick else args.epochs
    document = run_training_bench(
        epochs=epochs, batch_size=args.batch_size,
        num_sequences=num_sequences, sequence_length=args.sequence_length,
    )
    for line in _report_lines(document):
        print(line)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.assert_bit_exact:
        if not all(r["bit_exact_vs_reference"] for r in document["results"]):
            print("FAIL: a backend diverged from the reference trajectory")
            return 1
        print("bit-exactness gate passed")
    if args.assert_backend_speedup_if_accelerated is not None:
        required = args.assert_backend_speedup_if_accelerated
        fused = [r for r in document["results"] if r["backend"] == "fused"]
        accelerated = [r for r in fused if r["accel_tier"]]
        if not accelerated:
            print("speedup gate skipped: no compiled tier on this host "
                  f"(fallbacks: {[r['fallbacks'] for r in fused]})")
        else:
            best = max(r["speedup_vs_reference"] for r in accelerated)
            if best < required:
                print(f"FAIL: fused speedup {best:.2f}x < required "
                      f"{required:.2f}x")
                return 1
            print(f"speedup gate passed: {best:.2f}x >= {required:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
