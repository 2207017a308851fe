"""Hierarchical control plane at fleet scale (a million concurrent streams).

Drives :class:`~repro.core.control_plane.ControlPlane` — shard-affine
routing, QoS admission, autoscaling, rolling drains — over a simulated
rack/node/drive CSD fleet and measures what the operator contract in
``docs/control_plane.md`` promises:

* **Scale**: the full scenario registers ~1.05M session streams
  (three QoS classes) across 64 drives and must peak at >= 1M concurrent
  sessions while every drive stays inside its resident-session memory
  budget (``within_memory_budget``).
* **Latency**: p50/p99 verdict latency (token arrival to verdict
  delivery, simulated microseconds) stays bounded — the p99 gate is one
  round (5 ms) by default.
* **Elasticity**: the registration burst pushes per-node utilisation
  over the high watermark (scale-up events), the idle tail after the
  hot streams stop drops it under the low watermark (scale-down).
* **Drain parity**: a scaled rung re-runs the same workload with two
  mid-run drive drains (live sessions migrate) and asserts the
  per-stream verdict sequences are **bit-identical** with and without
  the drains.

Writes ``BENCH_control_plane.json``.  Two entry points:

* ``pytest benchmarks/bench_control_plane.py`` — harness mode (small).
* ``PYTHONPATH=src python benchmarks/bench_control_plane.py [--quick]``
  — standalone CLI (the CI perf-smoke job runs ``--quick`` with
  ``--assert-concurrent`` / ``--assert-p99-us``; the committed JSON is
  the full run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.control_plane import (
    AutoscalePolicy,
    ControlPlane,
    ControlPlaneConfig,
    QosClass,
    TopologySpec,
    generate_fleet_rounds,
)
from repro.core.serving import ServingConfig, build_fleet
from repro.core.sessions import SessionConfig
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier

DEFAULT_OUTPUT = "BENCH_control_plane.json"
WINDOW = 16

#: QoS classes for every scenario: gold outranks silver outranks bronze.
CLASSES = (
    QosClass("gold", priority=2),
    QosClass("silver", priority=1),
    QosClass("bronze", priority=0),
)


def _make_engines(weights: HostWeights, count: int):
    dims = dataclasses.replace(weights.dimensions, sequence_length=WINDOW)
    config = EngineConfig(
        dimensions=dims, optimization=OptimizationLevel.FIXED_POINT
    )
    return build_fleet(weights, count, config=config)


def _make_plane(weights, topology, *, round_us, autoscale, telemetry=None):
    engines = _make_engines(weights, topology.total_drives)
    return ControlPlane(
        engines,
        topology,
        ControlPlaneConfig(
            round_us=round_us,
            classes=CLASSES,
            autoscale=autoscale,
            serving=ServingConfig(
                max_batch=1024, max_wait_us=200, queue_depth=4096
            ),
            sessions=SessionConfig(
                stride=WINDOW,
                memory_budget_bytes=8 * 2**20,
                # Sized so the idle-tail scale-down (the fleet shrinks to
                # a quarter) can concentrate every parked session on the
                # survivors without the checkpoint store discarding any:
                # ~1.05M sessions x 768 B / 16 drives ~= 50 MiB.
                checkpoint_budget_bytes=64 * 2**20,
                idle_after_steps=4,
            ),
            max_events_per_round=None,
        ),
        telemetry=telemetry,
    )


def run_scenario(weights, scenario: dict, *, drains=(), autoscale=True,
                 telemetry=None):
    """One control-plane run; returns ``(report, wall_seconds)``.

    ``drains`` is a sequence of ``(round_index, drive)`` manual drains
    injected before that round's arrivals are offered.
    """
    topology = TopologySpec(
        racks=scenario["racks"],
        nodes_per_rack=scenario["nodes_per_rack"],
        drives_per_node=scenario["drives_per_node"],
        active_per_node=scenario["active_per_node"],
        shards_per_drive=scenario["shards_per_drive"],
    )
    policy = AutoscalePolicy() if autoscale else None
    plane = _make_plane(
        weights, topology, round_us=scenario["round_us"], autoscale=policy,
        telemetry=telemetry,
    )
    rounds = generate_fleet_rounds(
        CLASSES,
        rounds=scenario["rounds"],
        round_us=scenario["round_us"],
        streams_per_class=scenario["streams_per_class"],
        hot_per_class=scenario["hot_per_class"],
        registration_rounds=scenario["registration_rounds"],
        hot_rounds=scenario["hot_rounds"],
        seed=scenario.get("seed", 0),
    )
    drain_at = {round_index: drive for round_index, drive in drains}
    start = time.perf_counter()
    for index, arrivals in enumerate(rounds):
        if index in drain_at:
            plane.drain(drain_at[index])
        plane.run_round(arrivals)
    report = plane.finish()
    return report, time.perf_counter() - start


def _scenario_row(scenario: dict, report) -> dict:
    directions: dict = {}
    for event in report.scale_events:
        directions[event.direction] = directions.get(event.direction, 0) + 1
    return {
        "topology": {
            "racks": scenario["racks"],
            "nodes_per_rack": scenario["nodes_per_rack"],
            "drives_per_node": scenario["drives_per_node"],
            "active_per_node": scenario["active_per_node"],
            "total_drives": (scenario["racks"] * scenario["nodes_per_rack"]
                             * scenario["drives_per_node"]),
        },
        "streams_per_class": scenario["streams_per_class"],
        "hot_per_class": scenario["hot_per_class"],
        "rounds": report.rounds,
        "round_us": scenario["round_us"],
        "simulated_duration_us": report.duration_us,
        "tokens_offered": report.tokens_offered,
        "tokens_admitted": dict(report.tokens_admitted),
        "tokens_shed": {name: dict(reasons)
                        for name, reasons in report.tokens_shed.items()},
        "streams_admitted": dict(report.streams_admitted),
        "streams_denied": dict(report.streams_denied),
        "peak_concurrent_sessions": report.peak_concurrent_sessions,
        "final_concurrent_sessions": report.final_concurrent_sessions,
        "peak_resident_bytes_per_drive": report.peak_resident_bytes_per_drive,
        "resident_budget_bytes": report.resident_budget_bytes,
        "within_memory_budget": report.within_memory_budget,
        "verdicts": report.verdict_count,
        "verdict_latency_p50_us": report.verdict_latency_percentile_us(50),
        "verdict_latency_p99_us": report.verdict_latency_percentile_us(99),
        "scale_events": directions,
        "active_drives_final": report.active_drives,
        "drains": dict(report.drains),
        "migrated_sessions": report.migrated_sessions,
        "shard_moves": report.shard_moves,
    }


def _wall_row(report, wall_seconds: float) -> dict:
    """Host wall clock of the scenario run (report only, never gated)."""
    def rate(count):
        return count / wall_seconds if wall_seconds else 0.0

    return {
        "seconds": wall_seconds,
        "tokens_per_s": rate(report.tokens_offered),
        "sessions_per_s": rate(report.peak_concurrent_sessions),
    }


#: The drain-parity rung — small enough to run twice, busy enough that
#: the drained drives carry live sessions (the earlier standby-drain
#: version of this check was vacuous: 0 migrations proves nothing).
PARITY_SCENARIO = {
    "racks": 2, "nodes_per_rack": 2, "drives_per_node": 3,
    "active_per_node": 2, "shards_per_drive": 4,
    "streams_per_class": 1_500, "hot_per_class": 150,
    "rounds": 20, "round_us": 5_000,
    "registration_rounds": 10, "hot_rounds": 18,
}

#: Active drives in the parity topology are slots 0-1 of each 3-drive
#: node, i.e. drives {0,1}, {3,4}, {6,7}, {9,10}.
PARITY_DRAINS = ((5, 1), (9, 4))


def run_parity_check(weights) -> dict:
    """Same seed, with and without two mid-run drains: sequences must match."""
    base, _ = run_scenario(weights, PARITY_SCENARIO, autoscale=False)
    drained, _ = run_scenario(
        weights, PARITY_SCENARIO, drains=PARITY_DRAINS, autoscale=False
    )
    return {
        "drained_drives": [drive for _, drive in PARITY_DRAINS],
        "migrated_sessions": drained.migrated_sessions,
        "verdicts": base.verdict_count,
        "sequences_bit_exact": (
            base.verdict_sequences() == drained.verdict_sequences()
        ),
    }


def run_suite(weights, scenario: dict, *, parity: bool = True,
              telemetry=None) -> dict:
    report, wall_seconds = run_scenario(
        weights, scenario, telemetry=telemetry
    )
    document = {
        "benchmark": "control_plane",
        "window_length": WINDOW,
        "round_us": scenario["round_us"],
        "qos_classes": [
            {"name": qos.name, "priority": qos.priority} for qos in CLASSES
        ],
        "scenario": _scenario_row(scenario, report),
        "wall": _wall_row(report, wall_seconds),
    }
    if parity:
        document["drain_parity"] = run_parity_check(weights)
    return document


def _report_lines(document: dict) -> list:
    row = document["scenario"]
    topo = row["topology"]
    wall = document["wall"]
    lines = [
        f"topology {topo['racks']}x{topo['nodes_per_rack']}x"
        f"{topo['drives_per_node']} drives "
        f"({topo['active_per_node']} active/node at start)  "
        f"rounds {row['rounds']} x {row['round_us']} us  (simulated clock)",
        f"wall: {wall['seconds']:.1f}s  {wall['tokens_per_s']:.0f} tokens/s "
        f"end to end  {wall['sessions_per_s']:.0f} sessions/s",
        f"sessions: peak {row['peak_concurrent_sessions']} concurrent "
        f"(final {row['final_concurrent_sessions']})  resident peak "
        f"{row['peak_resident_bytes_per_drive']} B/drive of "
        f"{row['resident_budget_bytes']} B budget "
        f"({'OK' if row['within_memory_budget'] else 'EXCEEDED'})",
        f"verdicts: {row['verdicts']}  latency p50 "
        f"{row['verdict_latency_p50_us']:.0f} us  p99 "
        f"{row['verdict_latency_p99_us']:.0f} us",
        f"autoscale: {row['scale_events'] or 'no events'}  "
        f"drains {row['drains'] or 'none'}  "
        f"migrated {row['migrated_sessions']}  "
        f"shard moves {row['shard_moves']}  "
        f"active at end {row['active_drives_final']}",
    ]
    shed = {name: reasons for name, reasons in row["tokens_shed"].items()
            if reasons}
    if shed:
        lines.append(f"tokens shed: {shed}")
    parity = document.get("drain_parity")
    if parity is not None:
        lines.append(
            f"drain parity: drained drives {parity['drained_drives']} "
            f"({parity['migrated_sessions']} live sessions migrated), "
            f"{parity['verdicts']} verdicts, bit-exact "
            f"{parity['sequences_bit_exact']}"
        )
    return lines


def _gate(document: dict, min_concurrent, max_p99_us) -> tuple:
    """Returns (ok, message) for the CI scale/latency/parity gate."""
    row = document["scenario"]
    if not row["within_memory_budget"]:
        return False, (
            f"FAIL: peak resident {row['peak_resident_bytes_per_drive']} B "
            f"per drive exceeds the {row['resident_budget_bytes']} B budget"
        )
    parity = document.get("drain_parity")
    if parity is not None:
        if not parity["sequences_bit_exact"]:
            return False, "FAIL: mid-run drains changed verdict sequences"
        if parity["migrated_sessions"] == 0:
            return False, ("FAIL: drain parity check drained idle drives "
                           "(0 migrations) — the check is vacuous")
    messages = []
    if min_concurrent is not None:
        if row["peak_concurrent_sessions"] < min_concurrent:
            return False, (
                f"FAIL: peak {row['peak_concurrent_sessions']} concurrent "
                f"sessions < required {min_concurrent}"
            )
        messages.append(
            f"concurrency gate passed: {row['peak_concurrent_sessions']} "
            f">= {min_concurrent}"
        )
    if max_p99_us is not None:
        if row["verdicts"] == 0:
            return False, "FAIL: no verdicts delivered; p99 gate is vacuous"
        if row["verdict_latency_p99_us"] > max_p99_us:
            return False, (
                f"FAIL: verdict p99 {row['verdict_latency_p99_us']:.0f} us "
                f"> bound {max_p99_us:.0f} us"
            )
        messages.append(
            f"latency gate passed: p99 "
            f"{row['verdict_latency_p99_us']:.0f} us <= {max_p99_us:.0f} us"
        )
    return True, "; ".join(messages)


#: Full scenario: 64 drives, ~1.05M streams, 48k hot streams completing
#: two detection windows, a 12-round idle tail for the scale-down demo.
FULL_SCENARIO = {
    "racks": 4, "nodes_per_rack": 4, "drives_per_node": 4,
    "active_per_node": 3, "shards_per_drive": 12,
    "streams_per_class": 350_000, "hot_per_class": 16_000,
    "rounds": 48, "round_us": 5_000,
    "registration_rounds": 40, "hot_rounds": 36,
}

#: CI smoke: same shape, ~12k streams, seconds of wall time.
QUICK_SCENARIO = {
    "racks": 2, "nodes_per_rack": 2, "drives_per_node": 3,
    "active_per_node": 2, "shards_per_drive": 4,
    "streams_per_class": 4_000, "hot_per_class": 300,
    "rounds": 20, "round_us": 5_000,
    "registration_rounds": 10, "hot_rounds": 16,
}


# ----------------------------------------------------------------------
# Harness mode
# ----------------------------------------------------------------------


def bench_control_plane(benchmark, bench_model, bench_telemetry):
    from benchmarks.conftest import record_report

    weights = HostWeights.from_model(bench_model)
    tiny = dict(QUICK_SCENARIO, streams_per_class=800, hot_per_class=100,
                rounds=12, registration_rounds=6, hot_rounds=10)
    document = run_suite(weights, tiny, telemetry=bench_telemetry)
    benchmark(lambda: run_scenario(weights, tiny))
    record_report(
        "Hierarchical control plane (simulated fleet)",
        _report_lines(document),
    )
    ok, message = _gate(document, min_concurrent=2_000, max_p99_us=5_000)
    assert ok, message


# ----------------------------------------------------------------------
# Standalone CLI (CI perf smoke / the committed full run)
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down CI smoke (~12k streams) instead "
                             "of the full ~1.05M-stream scenario")
    parser.add_argument("--skip-parity", action="store_true",
                        help="skip the drain-parity rung (runs the "
                             "workload twice)")
    parser.add_argument("--assert-concurrent", type=int, default=None,
                        metavar="N",
                        help="exit non-zero unless the peak concurrent "
                             "session count reaches N "
                             "(the full-scale contract is 1000000)")
    parser.add_argument("--assert-p99-us", type=float, default=None,
                        metavar="US",
                        help="exit non-zero unless verdict p99 latency "
                             "(simulated us) stays within US")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON result path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scenario = dict(QUICK_SCENARIO if args.quick else FULL_SCENARIO,
                    seed=args.seed)
    weights = HostWeights.from_model(SequenceClassifier(seed=0))
    document = run_suite(weights, scenario, parity=not args.skip_parity)
    for line in _report_lines(document):
        print(line)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    min_concurrent = args.assert_concurrent
    if min_concurrent is None and not args.quick:
        min_concurrent = 1_000_000
    ok, message = _gate(document, min_concurrent, args.assert_p99_us)
    if message:
        print(message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
