"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload builds its whole input schedule from ``seed`` in
:meth:`Workload.setup`, before anything is timed, and the program only
ever sees those generated inputs.  :meth:`Workload.run_pass` replays the
schedule once against fresh per-pass state (control plane, SmartSSDs,
responder) over the engines built in setup, and returns a
:class:`PassResult` with the wall time of the replay, the work done, and
a digest of the outputs.  :meth:`Workload.check` re-derives the outputs
of one pass through an independent path (``infer_batch`` on an engine
pinned to the ``reference`` oracle) and returns the problems it found.

No workload pins a kernel or training backend: ``backend`` and
``train_backend`` stay ``None`` (the library defaults) unless a test
forces one.

* ``fleet_churn`` -- session bookkeeping: tens of thousands of mostly
  cold streams on a 12-drive, 3-class :class:`ControlPlane` with
  autoscaling, two drains and ``idle_after_steps=4``.
* ``fleet_attack`` -- gate and cell math plus the response loop: 250
  api-modality scenario streams on 4 pinned drives, a trained detector,
  a :class:`FleetResponder`, and a :class:`SmartSSD` per drive taking
  every token's writes.
* ``batch_scan`` -- the offline scan: ~2k length-100 windows written to a
  SmartSSD, fetched back by P2P and classified with ``infer_batch``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.control_plane import (
    AutoscalePolicy,
    ControlPlane,
    ControlPlaneConfig,
    QosClass,
    TopologySpec,
    generate_fleet_rounds,
)
from repro.core.engine import CSDInferenceEngine
from repro.core.serving import (
    SHED_QUARANTINED,
    ServingConfig,
    TokenArrival,
    build_fleet,
)
from repro.core.sessions import (
    EVICT_CHECKPOINT_BUDGET,
    SessionConfig,
    SessionManager,
)
from repro.core.weights import HostWeights
from repro.hw.smartssd import SmartSSD, WriteRefused
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware import dataset as dataset_module
from repro.ransomware import replay as replay_module
from repro.ransomware.traces.adapters import MODALITIES
from repro.response.audit import AuditTamperError
from repro.response.policy import (
    ACTION_WRITE_BLOCK,
    ESCALATION_LADDER,
    FleetResponder,
    ResponsePolicy,
)

API_VOCAB_SIZE = MODALITIES["api"].vocabulary.size

#: Session-path verdicts use the library's default threshold.
VERDICT_THRESHOLD = 0.5

#: Windows per ``infer_batch`` call on the oracle path.
ORACLE_CHUNK = 256

#: batch_scan re-derives every this-many-th window on the oracle path.
SCAN_ORACLE_STRIDE = 4


@dataclasses.dataclass
class PassResult:
    """One replay of a workload's schedule."""

    wall_s: float
    tokens: int            # tokens offered (fleet) or classified (scan)
    sequences: int         # windows classified
    digest: str
    attempted: int
    failures: dict         # reason -> count; every entry is a failure
    policy_sheds: dict     # reason -> count; sheds the policy asked for
    details: dict          # plain-data figures for the report
    segments: list = dataclasses.field(default_factory=list)
    calibration: list = dataclasses.field(default_factory=list)
    outputs: object = None  # what :meth:`Workload.check` re-derives

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class _SegmentClock:
    """Wall time of a replay, split at each round (or chunk) boundary.

    ``lap`` runs the optional trace probe, then the optional ``calibrate``
    sampler (one host-speed sample per segment, see ``calibration.py``),
    outside the segment it closes.
    """

    def __init__(self, calibrate=None):
        self.segments: list = []
        self.calibration: list = []
        self.calibrate = calibrate
        self.wall_s = 0.0
        self._last = time.perf_counter()

    def lap(self, probe=None, plane=None) -> None:
        now = time.perf_counter()
        self.segments.append(now - self._last)
        self.wall_s += now - self._last
        if probe is not None:
            probe(plane)
        if self.calibrate is not None:
            self.calibration.append(self.calibrate())
        self._last = time.perf_counter()


def verdict_digest(sequences: dict) -> str:
    """sha256 over ``stream, window index, probability bits, label``."""
    digest = hashlib.sha256()
    for stream in sorted(sequences, key=str):
        for window_index, probability, label in sequences[stream]:
            digest.update(
                f"{stream}\t{window_index}\t{float(probability).hex()}\t"
                f"{int(bool(label))}\n".encode()
            )
    return digest.hexdigest()


def loss_digest(losses) -> str:
    """sha256 over the exact bits of a per-batch loss trajectory."""
    digest = hashlib.sha256()
    for loss in losses:
        digest.update(float(loss).hex().encode() + b"\n")
    return digest.hexdigest()


def _payload(key: str, version: int, num_bytes: int) -> bytes:
    block = hashlib.sha256(f"{key}:{version}".encode()).digest()
    return (block * (num_bytes // len(block) + 1))[:num_bytes]


def _backend_path(backend) -> dict:
    return {
        "backend": backend.name,
        "accel_tier": getattr(backend, "accel_tier", None),
        "fallbacks": dict(backend.fallback_reasons),
    }


def warm_up(engines, window: int, sessions: bool = True) -> None:
    """Throwaway step on every engine, on state the timed passes never see.

    Resolves each engine's lazily built kernel backend (and, for a
    compiled tier, its compile) inside setup rather than the first pass.
    """
    for engine in engines:
        engine.infer_batch(np.zeros((1, window), dtype=np.int64))
        if sessions:
            SessionManager(engine, SessionConfig()).step({"warm-up": 0})


def oracle_probabilities(weights: HostWeights, window: int, windows) -> np.ndarray:
    """``infer_batch`` on a fresh engine pinned to the reference oracle."""
    dims = dataclasses.replace(weights.dimensions, sequence_length=window)
    engine = CSDInferenceEngine(
        EngineConfig(dimensions=dims,
                     optimization=OptimizationLevel.FIXED_POINT,
                     backend="reference"),
        weights,
    )
    windows = np.asarray(windows, dtype=np.int64)
    return np.concatenate([
        engine.infer_batch(windows[start:start + ORACLE_CHUNK]).probabilities
        for start in range(0, len(windows), ORACLE_CHUNK)
    ])


class Workload:
    """Base class: sizes, backend selection, and the shared checks."""

    name = ""
    why = ""
    SIZES: dict = {}
    #: Setups per timed run; ``setup_s`` is their median.
    setups = 3
    #: Replays per timed run at the least, even past ``--seconds``.
    min_passes = 4
    #: Host-speed sampler run after each segment of a pass, or ``None``.
    calibrate = None

    def __init__(self, seed: int, *, backend: str | None = None,
                 train_backend: str | None = None, **sizes):
        unknown = set(sizes) - set(self.SIZES)
        if unknown:
            raise ValueError(f"unknown {self.name} sizes: {sorted(unknown)}")
        self.seed = seed
        self.backend = backend
        self.train_backend = train_backend
        self.sizes = {**self.SIZES, **sizes}
        self.window = self.sizes.get("window", 0)

    def engine_config(self, weights: HostWeights, window: int) -> EngineConfig:
        extra = {} if self.backend is None else {"backend": self.backend}
        return EngineConfig(
            dimensions=dataclasses.replace(
                weights.dimensions, sequence_length=window
            ),
            optimization=OptimizationLevel.FIXED_POINT,
            **extra,
        )

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, probe=None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> list:
        raise NotImplementedError

    def path(self) -> dict:
        raise NotImplementedError

    def all_engines(self) -> list:
        return list(self.engines)


# ----------------------------------------------------------------------
# Fleet workloads (shared result building and oracle check)
# ----------------------------------------------------------------------


class _FleetWorkload(Workload):
    def _fleet_result(self, plane, report, clock,
                      extra_failures=None, extra_details=None) -> PassResult:
        sequences = report.verdict_sequences()
        shed: dict = {}
        for reasons in report.tokens_shed.values():
            for reason, count in reasons.items():
                shed[reason] = shed.get(reason, 0) + count
        for reason, count in report.serving.tokens_shed.items():
            shed[reason] = shed.get(reason, 0) + count
        policy_sheds = {reason: count for reason, count in shed.items()
                        if reason == SHED_QUARANTINED and count}
        failures: dict = dict(extra_failures or {})
        for reason, count in shed.items():
            if reason != SHED_QUARANTINED:
                failures[f"shed_{reason}"] = count
        dropped = sum(stats["evictions"].get(EVICT_CHECKPOINT_BUDGET, 0)
                      for stats in report.serving.session_stats)
        if dropped:
            failures["checkpoint_dropped"] = dropped
        failures = {reason: n for reason, n in failures.items() if n}
        serving = report.serving
        details = {
            "tokens_offered": report.tokens_offered,
            "tokens_admitted": sum(report.tokens_admitted.values()),
            "tokens_shed": shed,
            "verdicts": report.verdict_count,
            "verdict_p50_sim_us": report.verdict_latency_percentile_us(50),
            "verdict_p99_sim_us": report.verdict_latency_percentile_us(99),
            "token_p99_sim_us": serving.token_latency_percentile_us(99),
            "shard_moves": report.shard_moves,
            "migrated_sessions": report.migrated_sessions,
            "scale_events": len(report.scale_events),
            "drains": sum(report.drains.values()),
            "peak_concurrent_sessions": report.peak_concurrent_sessions,
            "peak_resident_bytes_per_drive": report.peak_resident_bytes_per_drive,
            "simulated_us": report.duration_us,
            **(extra_details or {}),
        }
        self._last_plane = plane
        return PassResult(
            wall_s=clock.wall_s, segments=clock.segments,
            calibration=clock.calibration, tokens=report.tokens_offered,
            sequences=report.verdict_count,
            digest=verdict_digest(sequences),
            attempted=report.tokens_offered, failures=failures,
            policy_sheds=policy_sheds, details=details, outputs=sequences,
        )

    def check(self, result: PassResult) -> list:
        """Every session verdict must equal ``infer_batch`` on its window."""
        windows, expected = [], []
        for stream, entries in result.outputs.items():
            tokens = self.stream_tokens[stream]
            for window_index, probability, label in entries:
                window = tokens[window_index:window_index + self.window]
                if len(window) != self.window:
                    return [f"{stream}: verdict for window {window_index} "
                            f"past the {len(tokens)} scheduled tokens"]
                windows.append(window)
                expected.append((probability, label))
        if not windows:
            return ["no verdicts to check"]
        oracle = oracle_probabilities(self.weights, self.window, windows)
        mismatches = sum(
            1 for (probability, label), reference in zip(expected, oracle)
            if probability != reference
            or bool(label) != (reference >= VERDICT_THRESHOLD)
        )
        if mismatches:
            return [f"{mismatches} of {len(expected)} verdicts differ from "
                    f"the reference infer_batch oracle"]
        return []

    def path(self) -> dict:
        """Session backend, accel tier and fallbacks of every drive."""
        return {"drives": [_backend_path(device.sessions.backend)
                           for device in self._last_plane.server.devices]}


class FleetChurn(_FleetWorkload):
    """Control-plane churn: cold streams, evictions, autoscale, drains."""

    name = "fleet_churn"
    #: Setup takes a fraction of a second: more samples steady its median.
    setups = 9
    why = ("tens of thousands of cold streams on 12 drives: session "
           "bookkeeping, admission and the event core dominate")
    CLASSES = (
        QosClass("gold", priority=2),
        QosClass("silver", priority=1),
        QosClass("bronze", priority=0),
    )
    SIZES = {
        "racks": 2, "nodes_per_rack": 2, "drives_per_node": 3,
        "active_per_node": 2, "shards_per_drive": 4,
        "streams_per_class": 10_000, "hot_per_class": 300,
        "rounds": 20, "round_us": 5_000,
        "registration_rounds": 10, "hot_rounds": 16,
        "window": 16, "drains": ((5, 1), (9, 4)),
    }

    def setup(self) -> None:
        sizes = self.sizes
        self.topology = TopologySpec(
            racks=sizes["racks"], nodes_per_rack=sizes["nodes_per_rack"],
            drives_per_node=sizes["drives_per_node"],
            active_per_node=sizes["active_per_node"],
            shards_per_drive=sizes["shards_per_drive"],
        )
        self.weights = HostWeights.from_model(SequenceClassifier(seed=0))
        self.engines = build_fleet(
            self.weights, self.topology.total_drives,
            config=self.engine_config(self.weights, self.window),
        )
        self.rounds = [
            list(arrivals) for arrivals in generate_fleet_rounds(
                self.CLASSES, rounds=sizes["rounds"],
                round_us=sizes["round_us"],
                streams_per_class=sizes["streams_per_class"],
                hot_per_class=sizes["hot_per_class"],
                registration_rounds=sizes["registration_rounds"],
                hot_rounds=sizes["hot_rounds"], seed=self.seed,
            )
        ]
        self.stream_tokens: dict = {}
        for arrivals in self.rounds:
            for arrival in arrivals:
                self.stream_tokens.setdefault(arrival.stream, []).append(
                    arrival.token
                )
        warm_up(self.engines, self.window)

    def _plane(self) -> ControlPlane:
        window = self.window
        return ControlPlane(
            self.engines, self.topology,
            ControlPlaneConfig(
                round_us=self.sizes["round_us"], classes=self.CLASSES,
                autoscale=AutoscalePolicy(),
                serving=ServingConfig(max_batch=1024, max_wait_us=200,
                                      queue_depth=4096),
                sessions=SessionConfig(
                    stride=window, memory_budget_bytes=8 * 2**20,
                    checkpoint_budget_bytes=64 * 2**20,
                    idle_after_steps=4,
                ),
            ),
        )

    def run_pass(self, probe=None) -> PassResult:
        plane = self._plane()
        drain_at = dict(self.sizes["drains"])
        clock = _SegmentClock(self.calibrate)
        for index, arrivals in enumerate(self.rounds):
            if index in drain_at:
                plane.drain(drain_at[index])
            plane.run_round(arrivals)
            clock.lap(probe, plane)
        report = plane.finish()
        clock.lap()
        return self._fleet_result(plane, report, clock)


#: Writes within one window that mark a ransomware stream's encryption
#: pass (it writes every ~10 calls); isolated earlier writes (a dropped
#: note or config) do not.
ATTACK_BURST = 4


def attack_onset(stream, window: int) -> int:
    """Index of the first write that opens a burst of encryption writes."""
    writes = [index for index, num_bytes in enumerate(stream.write_bytes)
              if num_bytes]
    for position, index in enumerate(writes):
        burst = writes[position:position + ATTACK_BURST]
        if len(burst) == ATTACK_BURST and burst[-1] < index + window:
            return index
    raise ValueError(f"{stream.name} has no burst of {ATTACK_BURST} writes")


class _Responder(FleetResponder):
    """FleetResponder fed each verdict's exact window, recording escalations."""

    def __init__(self, policy, engine, stream_tokens: dict, window: int):
        self._tokens = stream_tokens
        self._window = window
        self._record = None
        super().__init__(policy=policy, engine=engine,
                         token_lookup=self._window_tokens)
        self.verdicts = 0
        self.escalations = 0
        self.enforced: dict = {}   # stream -> window index of write-block

    def _window_tokens(self, stream):
        start = self._record.window_index
        return self._tokens[stream][start:start + self._window]

    def __call__(self, record):
        self._record = record
        decision = super().__call__(record)
        self.verdicts += 1
        if decision.escalated:
            self.escalations += 1
            if (ESCALATION_LADDER.index(decision.action)
                    >= ESCALATION_LADDER.index(ACTION_WRITE_BLOCK)):
                self.enforced.setdefault(record.stream, record.window_index)
        return decision


class FleetAttack(_FleetWorkload):
    """Trained detector, response loop and SSD writes on a pinned fleet."""

    name = "fleet_attack"
    why = ("250 api scenario streams on 4 pinned drives with response and "
           "SSD writes: gate and cell math dominates, no evictions")
    #: Training dominates setup, and a replay takes seconds: two setups
    #: and three replays keep a run inside its budget.
    setups = 2
    min_passes = 3
    SIZES = {
        "drives": 4, "shards_per_drive": 8, "round_us": 5_000,
        "ransomware": 5, "benign": 245,
        "ransomware_tokens": 200, "benign_tokens": 80,
        "window": 60, "stride": 5,
        "user_objects": 16, "user_object_bytes": 64 * 1024,
        # bench_response.py's seeded api recipe (fixed; not the run seed)
        "dataset_scale": 0.08, "epochs": 12, "learning_rate": 0.005,
        "recipe_seed": 7,
        "threshold": 0.7, "quarantine_threshold": 0.95, "confirmations": 4,
    }

    def train(self):
        """Train the api detector with the fixed recipe; returns the model."""
        sizes = self.sizes
        seed = sizes["recipe_seed"]
        corpus = dataset_module.build_dataset(
            scale=sizes["dataset_scale"], sequence_length=self.window,
            seed=seed,
        )
        train, test = corpus.train_test_split(0.2, seed=seed)
        model = SequenceClassifier(vocab_size=API_VOCAB_SIZE, seed=seed)
        extra = ({} if self.train_backend is None
                 else {"backend": self.train_backend})
        trainer = Trainer(model, TrainingConfig(
            epochs=sizes["epochs"], eval_every=sizes["epochs"],
            learning_rate=sizes["learning_rate"], seed=seed, **extra,
        ))
        losses: list = []
        train_batch = trainer.kernel.train_batch

        def recording_train_batch(token_ids, labels):
            loss, grads = train_batch(token_ids, labels)
            losses.append(loss)
            return loss, grads

        trainer.kernel.train_batch = recording_train_batch
        start = time.perf_counter()
        trainer.fit(train.sequences, train.labels,
                    test.sequences, test.labels)
        fit_s = time.perf_counter() - start
        self.training = {
            **_backend_path(trainer.kernel),
            "batches": len(losses),
            "fit_s": fit_s,
            "loss_digest": loss_digest(losses),
            "final_loss": trainer.history.records[-1].train_loss,
            "test_accuracy": trainer.history.records[-1].test_accuracy,
        }
        return model

    def setup(self) -> None:
        self.build(self.train())

    def build(self, model) -> None:
        """Engines, scenario schedule and warm-up around a trained model."""
        sizes = self.sizes
        self.weights = HostWeights.from_model(model)
        self.topology = TopologySpec(
            racks=1, nodes_per_rack=1, drives_per_node=sizes["drives"],
            active_per_node=sizes["drives"],
            shards_per_drive=sizes["shards_per_drive"],
        )
        self.engines = build_fleet(
            self.weights, sizes["drives"],
            config=self.engine_config(self.weights, self.window),
        )
        scenario = replay_module.build_scenario(
            "api", ransomware=sizes["ransomware"], benign=sizes["benign"],
            seed=self.seed, benign_length=sizes["benign_tokens"],
        )
        self.ransomware = {s.name for s in scenario if s.is_ransomware}
        lengths = {s.name: sizes["ransomware_tokens" if s.is_ransomware
                                 else "benign_tokens"] for s in scenario}
        # A ransomware segment opens one window before its attack onset,
        # so it encrypts inside the segment however long its seeded
        # reconnaissance runs; ``onsets`` are in segment coordinates.
        starts = {s.name: 0 for s in scenario}
        self.onsets = {}
        for s in scenario:
            if s.is_ransomware:
                onset = attack_onset(s, self.window)
                starts[s.name] = max(0, min(onset - self.window,
                                            len(s.tokens) - lengths[s.name]))
                self.onsets[s.name] = onset - starts[s.name]
        self.stream_tokens = {
            s.name: list(s.tokens[starts[s.name]:
                                  starts[s.name] + lengths[s.name]])
            for s in scenario
        }
        writes = {s.name: s.write_bytes[starts[s.name]:
                                        starts[s.name] + lengths[s.name]]
                  for s in scenario}
        self.offered_attack_bytes = sum(
            sum(writes[name]) for name in self.ransomware
        )
        # Open loop: every live stream emits its next token each round,
        # in a seeded order spread evenly over the round.
        rng = np.random.default_rng([self.seed, 1])
        names = [s.name for s in scenario]
        round_us = sizes["round_us"]
        self.rounds = []
        for step in range(max(lengths.values())):
            live = [name for name in names
                    if step < len(self.stream_tokens[name])]
            order = rng.permutation(len(live))
            arrivals, round_writes = [], []
            for k, position in enumerate(order):
                name = live[position]
                arrivals.append(TokenArrival(
                    stream=name, token=int(self.stream_tokens[name][step]),
                    arrival_us=step * round_us + (k * round_us) // len(live),
                ))
                if writes[name][step]:
                    round_writes.append((name, step, int(writes[name][step])))
            self.rounds.append((round_writes, arrivals))
        warm_up(self.engines, self.window)

    def _policy(self) -> ResponsePolicy:
        sizes = self.sizes
        return ResponsePolicy(
            observe_threshold=sizes["threshold"],
            write_block_threshold=sizes["threshold"],
            quarantine_threshold=sizes["quarantine_threshold"],
            kill_threshold=None,
            confirmations=sizes["confirmations"],
        )

    def run_pass(self, probe=None) -> PassResult:
        sizes = self.sizes
        storages = []
        user_keys = [f"user-{index:04d}" for index in range(sizes["user_objects"])]
        for engine in self.engines:
            storage = SmartSSD()
            for key in user_keys:
                storage.ssd.write_object(
                    key, sizes["user_object_bytes"],
                    data=_payload(key, 0, sizes["user_object_bytes"]),
                )
            engine.attach_storage(storage)
            storages.append(storage)
        responder = _Responder(self._policy(), self.engines[0],
                               self.stream_tokens, self.window)
        plane = ControlPlane(
            self.engines, self.topology,
            ControlPlaneConfig(
                round_us=sizes["round_us"], autoscale=None,
                serving=ServingConfig(max_batch=1024, max_wait_us=200,
                                      queue_depth=4096),
                sessions=SessionConfig(stride=sizes["stride"],
                                       threshold=VERDICT_THRESHOLD),
                on_verdict=responder,
            ),
        )
        overwrite_cursor = [0] * len(storages)
        writes = blocked_attack = blocked_benign = 0
        clock = _SegmentClock(self.calibrate)
        for round_writes, arrivals in self.rounds:
            # Write first, then observe: a token's own write lands before
            # the verdict it may trigger.
            for name, step, num_bytes in round_writes:
                drive = plane.router.device_of(name)
                attack = name in self.ransomware
                if attack:
                    key = user_keys[overwrite_cursor[drive] % len(user_keys)]
                    overwrite_cursor[drive] += 1
                    data = _payload(name, step, num_bytes)
                else:
                    key, data = f"{name}-out-{step}", None
                writes += 1
                try:
                    storages[drive].stream_write(name, key, num_bytes,
                                                 data=data)
                except WriteRefused:
                    if attack:
                        blocked_attack += num_bytes
                    else:
                        blocked_benign += 1
            plane.run_round(arrivals)
            clock.lap(probe, plane)
        report = plane.finish()
        clock.lap()

        try:
            audit_ok = responder.audit.verify()
        except AuditTamperError:
            audit_ok = False
        heads = responder.audit.stream_heads()
        # Tokens from attack onset to the end of the escalating window.
        latencies = sorted(index + self.window - self.onsets[name]
                           for name, index in responder.enforced.items()
                           if name in self.ransomware)
        # Benign writes refused after a false-positive escalation are the
        # detector's output (pinned by the digest), not a failed
        # operation; they are reported in the details.
        failures = {"audit_verify": 0 if audit_ok else 1}
        result = self._fleet_result(
            plane, report, clock, extra_failures=failures,
            extra_details={
                "writes": writes,
                "attack_bytes_offered": self.offered_attack_bytes,
                "attack_bytes_blocked": blocked_attack,
                "attack_bytes_prevented": (
                    blocked_attack / self.offered_attack_bytes
                    if self.offered_attack_bytes else 0.0
                ),
                "benign_writes_blocked": blocked_benign,
                "ransomware_streams": len(self.ransomware),
                "ransomware_enforced": len(
                    self.ransomware & responder.enforced.keys()
                ),
                "benign_enforced": len(
                    responder.enforced.keys() - self.ransomware
                ),
                "detect_latency_tokens_p50": (
                    float(np.median(latencies)) if latencies else None
                ),
                "response_verdicts": responder.verdicts,
                "response_escalations": responder.escalations,
                "audit_records": len(responder.audit),
                "smartssd_writes": sum(s.allowed_writes + s.blocked_writes
                                       for s in storages),
                "smartssd_bytes_blocked": sum(s.blocked_bytes
                                              for s in storages),
                "smartssd_bytes_cow": sum(s.cow_bytes for s in storages),
            },
        )
        result.attempted += writes
        result.digest = hashlib.sha256(
            (result.digest + "".join(
                f"\n{stream}\t{heads[stream]}"
                for stream in sorted(heads, key=str)
            )).encode()
        ).hexdigest()
        return result

    def check(self, result: PassResult) -> list:
        problems = super().check(result)
        details = result.details
        if details["ransomware_enforced"] == 0:
            problems.append("no ransomware stream was write-blocked")
        if details["attack_bytes_blocked"] <= 0:
            problems.append("no ransomware bytes were prevented")
        return problems

    def path(self) -> dict:
        return {**super().path(), "training": {
            key: self.training[key]
            for key in ("backend", "accel_tier", "fallbacks")
        }}


# ----------------------------------------------------------------------
# Offline scan
# ----------------------------------------------------------------------


class BatchScan(Workload):
    """Windows written to a SmartSSD, fetched by P2P, classified in chunks."""

    name = "batch_scan"
    setups = 5
    why = ("~2k length-100 windows fetched by P2P and classified with "
           "infer_batch: batch kernels and the SSD read path, no sessions")
    SIZES = {"scale": 0.07, "window": 100, "chunk": 64}

    WRITER = "scan-corpus"

    def setup(self) -> None:
        sizes = self.sizes
        corpus = dataset_module.build_dataset(
            scale=sizes["scale"], sequence_length=self.window,
            seed=self.seed,
        )
        self.windows = np.asarray(corpus.sequences, dtype=np.int64)
        self.weights = HostWeights.from_model(
            SequenceClassifier(vocab_size=API_VOCAB_SIZE, seed=0)
        )
        self.engine = CSDInferenceEngine(
            self.engine_config(self.weights, self.window), self.weights
        )
        self.storage = SmartSSD()
        self.engine.attach_storage(self.storage)
        self.keys = [f"window-{index:06d}" for index in range(len(self.windows))]
        for key, row in zip(self.keys, self.windows):
            data = row.astype(np.int32).tobytes()
            self.storage.stream_write(self.WRITER, key, len(data), data=data)
        warm_up([self.engine], self.window, sessions=False)

    def _fetch(self, key: str) -> np.ndarray:
        self.storage.p2p_fetch(key)
        return np.frombuffer(self.storage.ssd.read_object_data(key),
                             dtype=np.int32)

    def run_pass(self, probe=None) -> PassResult:
        chunk = self.sizes["chunk"]
        window_bytes = self.window * 4
        count = len(self.keys)
        batch = np.empty((chunk, self.window), dtype=np.int64)
        probabilities = np.empty(count, dtype=np.float64)
        clock = _SegmentClock(self.calibrate)
        for low in range(0, count, chunk):
            keys = self.keys[low:low + chunk]
            for row, key in enumerate(keys):
                batch[row] = self._fetch(key)
            result = self.engine.infer_batch(batch[:len(keys)])
            probabilities[low:low + len(keys)] = result.probabilities
            self.storage.release_fpga_dram(len(keys) * window_bytes)
            clock.lap()
        return PassResult(
            wall_s=clock.wall_s, segments=clock.segments,
            calibration=clock.calibration, tokens=count * self.window, sequences=count,
            digest=hashlib.sha256(probabilities.tobytes()).hexdigest(),
            attempted=count, failures={}, policy_sheds={},
            details={"windows": count, "chunk": chunk,
                     "flagged": int((probabilities >= VERDICT_THRESHOLD).sum())},
            outputs=probabilities,
        )

    def check(self, result: PassResult) -> list:
        problems = []
        stored = np.stack([
            np.frombuffer(self.storage.ssd.read_object_data(key),
                          dtype=np.int32)
            for key in self.keys
        ])
        if not np.array_equal(stored, self.windows):
            problems.append("windows read back differ from those written")
        sample = slice(None, None, SCAN_ORACLE_STRIDE)
        oracle = oracle_probabilities(self.weights, self.window,
                                      self.windows[sample])
        mismatches = int(np.count_nonzero(oracle != result.outputs[sample]))
        if mismatches:
            problems.append(f"{mismatches} of {len(oracle)} probabilities "
                            f"differ from the reference oracle")
        return problems

    def path(self) -> dict:
        return {"engine": _backend_path(self.engine.step_backend)}

    def all_engines(self) -> list:
        return [self.engine]


WORKLOADS = {cls.name: cls for cls in (FleetChurn, FleetAttack, BatchScan)}
