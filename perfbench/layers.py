"""Which public functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>`` or ``<layer>.<part>``; self time is summed per
span name, so e.g. ``response`` (``ResponseEngine.on_verdict`` and the
``FleetResponder`` call) excludes ``response.attribution``
(``attribute_window``) and ``response.enforce`` (the enforcer hooks)
nested inside it.  ``bench`` is the harness's own code and ``trace`` the
tracer's probes.
"""

from __future__ import annotations

from repro.core import sessions as sessions_module
from repro.core.control_plane import ControlPlane
from repro.core.engine import CSDInferenceEngine
from repro.core.serving import FleetServer
from repro.core.sessions import EVICT_CLOSED, EVICT_MIGRATED, SessionManager
from repro.hw.smartssd import SmartSSD
from repro.nn.trainer import Trainer
from repro.ransomware import dataset as dataset_module
from repro.ransomware import replay as replay_module
from repro.response import policy as policy_module
from repro.response.audit import AuditLog

#: (owner, attribute, span name)
TARGETS = (
    (ControlPlane, "run_round", "control_plane"),
    (ControlPlane, "finish", "control_plane"),
    (FleetServer, "ingest_tokens", "serving"),
    (FleetServer, "run_tokens_until", "serving"),
    (FleetServer, "finish_tokens", "serving"),
    (FleetServer, "migrate_streams", "serving.migrate"),
    (FleetServer, "drain_device", "serving.migrate"),
    (SessionManager, "step", "sessions"),
    (sessions_module.ReferenceStepper, "step_rows", "kernels"),
    (sessions_module.FusedStepper, "step_rows", "kernels"),
    (CSDInferenceEngine, "infer_batch", "engine"),
    (policy_module.FleetResponder, "__call__", "response"),
    (policy_module.ResponseEngine, "on_verdict", "response"),
    (policy_module, "attribute_window", "response.attribution"),
    (policy_module.FleetResponder, "observe", "response.enforce"),
    (policy_module.FleetResponder, "write_block", "response.enforce"),
    (policy_module.FleetResponder, "quarantine", "response.enforce"),
    (policy_module.FleetResponder, "kill", "response.enforce"),
    (policy_module.FleetResponder, "restore", "response.enforce"),
    (AuditLog, "append", "audit"),
    (AuditLog, "verify", "audit.verify"),
    (SmartSSD, "stream_write", "smartssd.write"),
    (SmartSSD, "snapshot_volume", "smartssd.snapshot"),
    (SmartSSD, "p2p_fetch", "smartssd.fetch"),
    (Trainer, "fit", "nn"),
    (replay_module, "build_scenario", "ransomware.scenario"),
    (dataset_module, "build_dataset", "ransomware.dataset"),
)


def install(tracer, managers: list) -> None:
    """Wrap every target; every new SessionManager is appended to ``managers``."""
    for owner, attr, name in TARGETS:
        tracer.wrap(owner, attr, name)
    original_init = SessionManager.__dict__["__init__"]

    def collecting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        managers.append(self)

    tracer.patch(SessionManager, "__init__", collecting_init)


class PeakProbe:
    """Per-round sampler of the largest per-drive session footprint."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.resident = 0
        self.checkpoint_bytes = 0

    def __call__(self, plane) -> None:
        with self.tracer.span("trace"):
            for device in plane.server.devices:
                manager = device.sessions
                if manager is None or device.dead:
                    continue
                self.resident = max(self.resident, manager.resident_count)
                self.checkpoint_bytes = max(self.checkpoint_bytes,
                                            manager.checkpoint_bytes)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, result, workload, managers, probe,
                      engine_sequences: int) -> dict:
    """Every per-layer metric of the traced run, keyed by metric name."""
    self_s = {name: ns / 1e9 for name, ns in tracer.self_ns().items()}
    incl_s = {name: ns / 1e9 for name, ns in tracer.inclusive_ns().items()}
    counts = tracer.counts()
    details = result.details

    stats = [manager.stats() for manager in managers]
    tokens = sum(s["tokens"] for s in stats)
    rows = sum(s["slot_steps"] for s in stats)
    ticks = sum(s["steps"] for s in stats)
    evictions = sum(n for s in stats for reason, n in s["evictions"].items()
                    if reason not in (EVICT_MIGRATED, EVICT_CLOSED))
    restores = sum(s["restores"] for s in stats)
    backends = {id(m.backend): m.backend for m in managers}
    for engine in workload.all_engines():
        backends.setdefault(id(engine.step_backend), engine.step_backend)
    fallbacks = sum(sum(b.fallback_reasons.values()) for b in backends.values())
    training = getattr(workload, "training", None) or {}
    batches = training.get("batches", 0)
    shed = details.get("tokens_shed", {})

    step_rows_s = incl_s.get("kernels", 0.0)
    infer_batch_s = incl_s.get("engine", 0.0)
    fit_s = incl_s.get("nn", 0.0)
    return {
        "control_plane.self_s": self_s.get("control_plane", 0.0),
        "control_plane.tokens_admitted": details.get("tokens_admitted", 0),
        "control_plane.tokens_shed": sum(shed.values()),
        "control_plane.shard_moves": details.get("shard_moves", 0),
        "control_plane.migrated_sessions": details.get("migrated_sessions", 0),
        "serving.self_s": self_s.get("serving", 0.0),
        "serving.ticks": ticks,
        "serving.tokens_per_tick": _ratio(tokens, ticks),
        "serving.migrate_s": incl_s.get("serving.migrate", 0.0),
        "serving.token_p99_sim_us": details.get("token_p99_sim_us", 0.0),
        "serving.verdict_p50_sim_us": details.get("verdict_p50_sim_us", 0.0),
        "serving.verdict_p99_sim_us": details.get("verdict_p99_sim_us", 0.0),
        "sessions.self_s": self_s.get("sessions", 0.0),
        "sessions.evictions_per_token": _ratio(evictions, tokens),
        "sessions.restores_per_token": _ratio(restores, tokens),
        "sessions.resident_peak": probe.resident,
        "sessions.checkpoint_bytes_peak": probe.checkpoint_bytes,
        "kernels.step_rows_s": step_rows_s,
        "kernels.rows": rows,
        "kernels.ns_per_row": _ratio(step_rows_s * 1e9, rows),
        "kernels.fallbacks": fallbacks,
        "engine.infer_batch_s": infer_batch_s,
        "engine.sequences": engine_sequences,
        "engine.ns_per_sequence": _ratio(infer_batch_s * 1e9, engine_sequences),
        "response.self_s": self_s.get("response", 0.0),
        "response.verdicts": details.get("response_verdicts", 0),
        "response.escalations": details.get("response_escalations", 0),
        "response.attribution_s": incl_s.get("response.attribution", 0.0),
        "response.detect_latency_tokens_p50": (
            details.get("detect_latency_tokens_p50") or 0.0
        ),
        "audit.append_s": incl_s.get("audit", 0.0),
        "audit.records": details.get("audit_records", 0),
        "audit.verify_s": incl_s.get("audit.verify", 0.0),
        "smartssd.write_s": incl_s.get("smartssd.write", 0.0),
        "smartssd.writes": counts.get("smartssd.write", 0),
        "smartssd.bytes_blocked": details.get("smartssd_bytes_blocked", 0),
        "smartssd.bytes_cow": details.get("smartssd_bytes_cow", 0),
        "smartssd.attack_bytes_prevented": details.get(
            "attack_bytes_prevented", 0.0),
        "smartssd.benign_writes_blocked": details.get(
            "benign_writes_blocked", 0),
        "smartssd.snapshot_s": incl_s.get("smartssd.snapshot", 0.0),
        "smartssd.fetch_s": incl_s.get("smartssd.fetch", 0.0),
        "nn.fit_s": fit_s,
        "nn.batches": batches,
        "nn.s_per_batch": _ratio(fit_s, batches),
        "ransomware.scenario_s": incl_s.get("ransomware.scenario", 0.0),
        "ransomware.dataset_s": incl_s.get("ransomware.dataset", 0.0),
        "bench.self_s": self_s.get("bench", 0.0),
    }
