"""The CSD inference engine — the paper's primary contribution.

:class:`CSDInferenceEngine` assembles the three kernels on an FPGA device
model, performs the host-program initialisation (weight ingest, optional
fixed-point quantisation, DDR placement), and executes real LSTM forward
passes while accounting simulated hardware time.

The engine is *functional*: ``infer_sequence`` computes the actual
classification the FPGA would produce (bit-faithful to the configured
arithmetic), alongside an :class:`~repro.core.timing.InferenceTiming`
report.  In fixed-point mode the numerics go through the scale-10^6
integer pipeline of :mod:`repro.fixedpoint`, so quantisation effects on
detection accuracy are measurable, not assumed.

``infer_batch`` runs the same forward pass vectorised across the batch
dimension and is bit-exact with the sequential path at every optimisation
level.  Batching accelerates the *host simulation* only: the reported
:class:`~repro.core.timing.InferenceTiming` stays the per-sequence
simulated hardware time, because the modeled FPGA processes sequences
item by item regardless of how the simulation is scheduled.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.kernels.backends import (
    FALLBACK_OVERFLOW_GUARD,
    FusedOverflow,
    resolve_backend,
)
from repro.core.kernels.gates import GatesKernel
from repro.core.kernels.hidden_state import HiddenStateKernel
from repro.core.kernels.preprocess import PreprocessKernel
from repro.core.timing import InferenceTiming, build_inference_timing
from repro.core.weights import HostWeights, QuantizedHostWeights
from repro.hw.fpga import FpgaDevice, ResourceRequest
from repro.hw.smartssd import SmartSSD


@dataclasses.dataclass(frozen=True)
class InferenceResult:
    """Outcome of one sequence inference."""

    probability: float
    timing: InferenceTiming

    @property
    def is_ransomware(self) -> bool:
        """Convenience threshold at 0.5 (the detector may re-threshold)."""
        return self.probability >= 0.5


@dataclasses.dataclass(frozen=True)
class BatchInferenceResult:
    """Outcome of one batched inference call.

    ``timing`` is the **per-sequence** simulated hardware time: the modeled
    FPGA runs sequences item by item, so each sequence in the batch costs
    the same simulated latency it would cost alone.  Batching speeds up the
    *host simulation* (one NumPy pass instead of N Python loops), which is
    a throughput claim about this reproduction, not about the hardware.
    """

    probabilities: np.ndarray
    timing: InferenceTiming

    @property
    def batch_size(self) -> int:
        return int(self.probabilities.shape[0])

    def results(self) -> Iterator[InferenceResult]:
        """Lazily yield per-sequence :class:`InferenceResult` views.

        A generator, not a list: a million-sequence batch should not
        materialise a million result objects just to stream over them.
        Use ``list(batch.results())`` to materialise, or
        :meth:`result_at` for random access.
        """
        for probability in self.probabilities:
            yield InferenceResult(
                probability=float(probability), timing=self.timing
            )

    def result_at(self, index: int) -> InferenceResult:
        """Random-access view of one sequence's result."""
        return InferenceResult(
            probability=float(self.probabilities[index]), timing=self.timing
        )


class CSDInferenceEngine:
    """LSTM inference offloaded entirely to a (simulated) CSD FPGA.

    Build with :meth:`from_model` (directly from a trained classifier) or
    :meth:`from_weight_file` (the paper's text-file deployment path).

    Parameters
    ----------
    config:
        Engine configuration; see :class:`~repro.core.config.EngineConfig`.
    weights:
        Host-layout weights, or ``None`` for a timing-only engine.
    """

    def __init__(
        self,
        config: EngineConfig,
        weights: HostWeights | None,
        telemetry=None,
    ):
        self.config = config
        self.device = FpgaDevice(
            part=config.fpga_part,
            kernel_clock_hz=config.kernel_clock_hz,
            ddr_banks_used=config.ddr_banks,
        )
        self.preprocess = PreprocessKernel(config)
        self.gates = GatesKernel(config)
        self.hidden_state = HiddenStateKernel(config)
        self._place_kernels()

        self.weights: HostWeights | None = None
        self.quantized: QuantizedHostWeights | None = None
        self.storage: SmartSSD | None = None
        self.sequences_processed = 0
        self._pool = None  # cached WorkerPool (see worker_pool)
        self._step_backend = None  # cached kernel backend (see step_backend)
        self.telemetry = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)
        if weights is not None:
            self.load_weights(weights)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        model,
        config: EngineConfig | None = None,
        sequence_length: int | None = None,
    ) -> "CSDInferenceEngine":
        """Build from a trained :class:`~repro.nn.model.SequenceClassifier`.

        ``sequence_length`` sets the pre-established item count (100 in
        the paper) when no explicit config is given.
        """
        weights = HostWeights.from_model(model)
        config = cls._config_for_weights(weights, config, sequence_length)
        return cls(config, weights)

    @classmethod
    def from_weight_file(
        cls,
        source,
        config: EngineConfig | None = None,
        sequence_length: int | None = None,
    ) -> "CSDInferenceEngine":
        """Build from the text weight file the host program ingests."""
        weights = HostWeights.from_file(source)
        config = cls._config_for_weights(weights, config, sequence_length)
        return cls(config, weights)

    @classmethod
    def build_unloaded(cls, config: EngineConfig) -> "CSDInferenceEngine":
        """Build a timing-only engine (no weights, no inference)."""
        return cls(config, weights=None)

    @staticmethod
    def _config_for_weights(
        weights: HostWeights,
        config: EngineConfig | None,
        sequence_length: int | None = None,
    ) -> EngineConfig:
        inferred = weights.dimensions
        if sequence_length is not None:
            if config is not None:
                raise ValueError("pass sequence_length or config, not both")
            inferred = dataclasses.replace(inferred, sequence_length=sequence_length)
        if config is None:
            return EngineConfig(dimensions=inferred)
        have = config.dimensions
        if (have.vocab_size, have.embedding_dim, have.hidden_size) != (
            inferred.vocab_size,
            inferred.embedding_dim,
            inferred.hidden_size,
        ):
            raise ValueError(
                f"config dimensions {have} do not match the weights "
                f"({inferred.vocab_size}, {inferred.embedding_dim}, "
                f"{inferred.hidden_size})"
            )
        return config

    # ------------------------------------------------------------------
    # Host-program initialisation
    # ------------------------------------------------------------------

    def _kernel_resources(self) -> dict:
        """Per-kernel resource estimates, scaled by model dimensions."""
        dims = self.config.dimensions
        fan_in = dims.gate_input_size
        fixed = self.config.optimization.uses_fixed_point
        if fixed:
            # Spatially-unrolled DSP mat-vec: one DSP cascade per MAC.
            gates_dsp = dims.hidden_size * fan_in
            gates_lut = 30_000
        else:
            gates_dsp = 16
            gates_lut = 15_000
        return {
            "preprocess": ResourceRequest(luts=5_000, flip_flops=8_000, dsp_slices=0, bram_blocks=4),
            "gates_cu": ResourceRequest(
                luts=gates_lut, flip_flops=2 * gates_lut, dsp_slices=gates_dsp, bram_blocks=2
            ),
            "hidden_state": ResourceRequest(
                luts=20_000,
                flip_flops=30_000,
                dsp_slices=96 if fixed else 40,
                bram_blocks=2,
            ),
        }

    def _place_kernels(self) -> None:
        """Link the design: place CUs and assign them to DDR banks."""
        resources = self._kernel_resources()
        self.device.place_kernel("kernel_preprocess", resources["preprocess"])
        cu_names = [f"kernel_gates_{i}" for i in range(self.config.num_gate_cus)]
        for cu_name in cu_names:
            self.device.place_kernel(cu_name, resources["gates_cu"])
        self.device.place_kernel("kernel_hidden_state", resources["hidden_state"])
        self.device.ddr.assign_readers(["kernel_preprocess"] + cu_names)

    def load_weights(self, weights: HostWeights) -> None:
        """Host step: ingest parameters, quantise if needed, init kernels."""
        self.weights = weights
        self._step_backend = None  # weights changed: backend math is stale
        if self.config.optimization.uses_fixed_point:
            self.quantized = weights.quantized(self.config.qformat)
        bank = self.device.ddr.banks[0]
        bank.allocate(weights.total_bytes(), label="model parameters")
        self.preprocess.load_embeddings(weights, self.quantized)
        self.gates.load_weights(weights, self.quantized)
        self.hidden_state.load_weights(weights, self.quantized)

    def attach_storage(self, smartssd: SmartSSD) -> None:
        """Pair the engine with a SmartSSD for P2P input fetches."""
        self.storage = smartssd
        if self.telemetry is not None:
            smartssd.telemetry = self.telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Enable observation: route metrics/spans to ``telemetry``.

        Propagates to the preprocess kernel's AXI port and any attached
        SmartSSD.  The contract (metric names, labels, units, the
        ``infer_batch`` span tree) is documented in
        ``docs/observability.md``; telemetry never alters numerics —
        batch results stay bit-exact with telemetry on or off.
        """
        self.telemetry = telemetry
        self.preprocess.axi.telemetry = telemetry
        if self.storage is not None:
            self.storage.telemetry = telemetry

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _require_loaded(self) -> None:
        if self.weights is None:
            raise RuntimeError(
                "engine has no weights loaded; build with from_model/"
                "from_weight_file or call load_weights"
            )

    @property
    def step_backend(self):
        """The engine's kernel backend, resolved lazily and cached.

        Selected by ``config.backend`` from the registry in
        :mod:`repro.core.kernels.backends`.  Resolution may itself
        degrade (no C compiler, unsafe bounds); the returned backend's
        ``fallback_reasons`` records why.  Rebuilt after
        :meth:`load_weights` since the fused math bakes the weights in.
        """
        if self._step_backend is None:
            self._require_loaded()
            self._step_backend = resolve_backend(self.config.backend, self)
        return self._step_backend

    def infer_sequence(self, token_ids) -> InferenceResult:
        """Classify one sequence, returning probability and timing.

        Delegates to :meth:`infer_batch` with a batch of one; each row of
        a batch is bit-exact with the same sequence classified alone at
        every optimisation level (see ``tests/core/test_batch_parity.py``).

        Parameters
        ----------
        token_ids:
            Iterable of ``sequence_length`` integer token ids.
        """
        self._require_loaded()
        tokens = np.asarray(list(token_ids), dtype=np.int64)
        expected = self.config.dimensions.sequence_length
        if tokens.shape != (expected,):
            raise ValueError(
                f"expected a fully-formed sequence of {expected} items, got "
                f"shape {tokens.shape}"
            )
        batch = self.infer_batch(tokens[np.newaxis, :])
        return InferenceResult(
            probability=float(batch.probabilities[0]), timing=batch.timing
        )

    def infer_batch(self, sequences) -> BatchInferenceResult:
        """Classify a batch of sequences in one vectorised forward pass.

        The LSTM runs once across the whole batch — a single embedding
        gather, one stacked ``(4H, H+E)`` gate matmul per timestep, and an
        element-wise cell/hidden update over ``(N, H)`` arrays — in float
        or scale-10^6 fixed-point arithmetic.  Probabilities are bit-exact
        with running :meth:`infer_sequence` on each row.

        The returned ``timing`` is the per-sequence simulated hardware
        time (identical for every sequence of the batch): batching is a
        host-simulation speedup, not a hardware claim.  AXI and
        sequence counters advance exactly as N sequential calls would.

        Parameters
        ----------
        sequences:
            Integer array of shape ``(N, sequence_length)`` with ``N >= 1``.
        """
        self._require_loaded()
        batch = np.asarray(sequences, dtype=np.int64)
        expected = self.config.dimensions.sequence_length
        if batch.ndim != 2 or batch.shape[1] != expected:
            raise ValueError(
                f"expected a (N, {expected}) batch of fully-formed sequences, "
                f"got shape {batch.shape}"
            )
        if batch.shape[0] == 0:
            raise ValueError("batch must contain at least one sequence")

        embedded = self.preprocess.run_batch(batch)  # (N, T, E)
        predictions = None
        backend = self.step_backend
        if backend.accelerates_inference():
            try:
                predictions = backend.infer_probabilities(embedded)
            except FusedOverflow:
                backend.record_fallback(FALLBACK_OVERFLOW_GUARD)
                predictions = None
        if predictions is None:
            dtype = np.int64 if self.config.optimization.uses_fixed_point else np.float64
            hidden = np.zeros((batch.shape[0], self.config.dimensions.hidden_size),
                              dtype=dtype)
            cell = hidden
            for step in range(expected):
                gate_outputs = self.gates.run_batch(hidden, embedded[:, step, :])
                hidden, cell = self.hidden_state.step_batch(gate_outputs, cell)
            predictions = self.hidden_state.classify_batch(hidden)

        timing = build_inference_timing(
            self.config,
            self.preprocess.timing(),  # charges one sequence's AXI fetch
            self.gates.timing(),
            self.hidden_state.timing(),
            self.hidden_state.classification_cycles(),
            self.device.clock,
        )
        self.preprocess.account_batch_fetches(batch.shape[0] - 1)
        self.sequences_processed += batch.shape[0]
        if self.telemetry is not None:
            self._emit_batch_telemetry(batch.shape[0], timing)
        return BatchInferenceResult(
            probabilities=np.asarray(predictions, dtype=np.float64), timing=timing
        )

    def _emit_batch_telemetry(self, batch_size: int, timing: InferenceTiming) -> None:
        """Record the documented metrics + span tree for one batch call.

        One histogram observation per *sequence* (``count=batch_size``
        folds them — every sequence of a batch shares the same simulated
        latency), and one span tree per call laying out the per-item
        kernel schedule plus the one-time FC epilogue.  See
        ``docs/observability.md`` for the exact contract; the tree shape
        below is pinned by the docs-as-contract test.
        """
        telemetry = self.telemetry
        optimization = self.config.optimization.name
        telemetry.counter("repro_batches_total").inc()
        telemetry.counter(
            "repro_sequences_processed_total", optimization=optimization
        ).inc(batch_size)
        telemetry.counter("repro_items_processed_total", optimization=optimization).inc(
            batch_size * self.config.dimensions.sequence_length
        )
        telemetry.histogram("repro_batch_size").observe(batch_size)
        for report in timing.per_item_reports:
            telemetry.histogram(
                "repro_kernel_latency_cycles", kernel=report.kernel
            ).observe(report.cycles, count=batch_size)
        total_cycles = timing.sequence_cycles + timing.classification_cycles
        telemetry.histogram("repro_sequence_latency_cycles").observe(
            total_cycles, count=batch_size
        )

        preprocess_cycles, gates_cycles, hidden_cycles = (
            report.cycles for report in timing.per_item_reports
        )
        tracer = telemetry.tracer
        root = tracer.record(
            "csd.infer_batch",
            0,
            total_cycles,
            attributes={"batch_size": batch_size, "optimization": optimization},
        )
        tracer.record("csd.preprocess", 0, preprocess_cycles, parent=root)
        gates_end = preprocess_cycles + gates_cycles
        gates_span = tracer.record(
            "csd.gates", preprocess_cycles, gates_end, parent=root
        )
        for cu_index in range(self.config.num_gate_cus):
            tracer.record(
                f"csd.gates.cu{cu_index}", preprocess_cycles, gates_end,
                parent=gates_span,
            )
        tracer.record(
            "csd.hidden_state", gates_end, gates_end + hidden_cycles, parent=root
        )
        tracer.record(
            "csd.fc_head", timing.sequence_cycles, total_cycles, parent=root
        )

    def infer_from_storage(self, key: str, token_ids) -> tuple:
        """Fetch a sequence from the attached SmartSSD via P2P, then infer.

        Returns ``(InferenceResult, transfer_seconds)``.  The sequence must
        previously have been written to the SSD under ``key``.  The FPGA
        DRAM reserved for the fetched input is released once inference
        completes, so long-running engines can fetch indefinitely.
        """
        if self.storage is None:
            raise RuntimeError("no SmartSSD attached; call attach_storage first")
        transfer_seconds = self.storage.p2p_fetch(key)
        fetched_bytes = self.storage.transfers[-1].num_bytes
        if self.telemetry is not None:
            self.telemetry.tracer.record(
                "csd.p2p_dma",
                0,
                self.device.clock.seconds_to_cycles(transfer_seconds),
                attributes={
                    "key": key, "bytes": fetched_bytes, "route": "p2p",
                    "seconds": transfer_seconds,
                },
            )
        try:
            result = self.infer_sequence(token_ids)
        finally:
            self.storage.release_fpga_dram(fetched_bytes)
        return result, transfer_seconds

    def worker_pool(self, workers: int):
        """The engine's persistent data-parallel backend (built on demand).

        The pool is cached: asking for the same worker count returns the
        live pool (forking and re-broadcasting weights per call would
        defeat the point); a different count rebuilds it.  The pool
        tracks this engine's current telemetry.  See
        :class:`repro.core.parallel.WorkerPool`.
        """
        from repro.core.parallel import WorkerPool

        self._require_loaded()
        pool = self._pool
        if pool is None or pool.workers != workers:
            if pool is not None:
                pool.close()
            pool = WorkerPool(
                self.config, self.weights, workers,
                telemetry=self.telemetry, local_engine=self,
            )
            self._pool = pool
        else:
            pool.telemetry = self.telemetry
        return pool

    def shutdown_pool(self) -> None:
        """Release the cached worker pool (processes + shared memory)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def predict_proba(
        self, sequences, chunk_size: int = 1024, workers: int = 1
    ) -> np.ndarray:
        """Probabilities for a batch of sequences, shape ``(N,)``.

        Runs :meth:`infer_batch` over ``chunk_size``-sequence slices to
        bound the float path's ``(chunk, 4H, H+E)`` broadcast temporary;
        chunking cannot change any value (rows are independent).

        With ``workers > 1`` the chunks shard across a persistent
        :class:`~repro.core.parallel.WorkerPool` of forked processes and
        merge in shard order — bit-exact with ``workers=1`` at every
        optimisation level (falls back in-process where fork or shared
        memory is unavailable).
        """
        if workers > 1:
            return self.worker_pool(workers).predict_proba(
                sequences, chunk_size=chunk_size
            )
        sequences = np.asarray(sequences)
        if sequences.ndim != 2:
            raise ValueError(f"expected (N, T) batch, got shape {sequences.shape}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if sequences.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(
            [
                self.infer_batch(sequences[start:start + chunk_size]).probabilities
                for start in range(0, sequences.shape[0], chunk_size)
            ]
        )

    def predict(
        self, sequences, threshold: float = 0.5, workers: int = 1
    ) -> np.ndarray:
        """Hard 0/1 predictions for a batch of sequences."""
        return (
            self.predict_proba(sequences, workers=workers) >= threshold
        ).astype(int)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """Operational counters for monitoring dashboards.

        Covers what an operator would chart: work done, data moved
        through the preprocess AXI master, memory and fabric occupancy.
        """
        items = self.sequences_processed * self.config.dimensions.sequence_length
        utilization = self.device.utilization()
        return {
            "sequences_processed": self.sequences_processed,
            "items_processed": items,
            "axi_bytes_read": self.preprocess.axi.bytes_transferred,
            "axi_transfers": self.preprocess.axi.transfer_count,
            "ddr_bytes_allocated": self.device.ddr.total_allocated(),
            "dsp_utilization": utilization["dsp_slices"],
            "lut_utilization": utilization["luts"],
            "optimization": self.config.optimization.name,
        }

    def per_item_microseconds(self) -> float:
        """The paper's per-forward-pass figure for this configuration."""
        return self.analytic_timing().per_item_microseconds

    def sequence_microseconds(self) -> float:
        """Whole-sequence simulated latency (pipeline overlap + FC epilogue).

        This is the per-request service time the fleet serving simulator
        charges: the modeled FPGA runs sequences item by item, so a batch
        of N occupies the device for N of these.
        """
        return self.analytic_timing().sequence_microseconds

    def analytic_timing(self) -> InferenceTiming:
        """The closed-form :class:`InferenceTiming` for this configuration."""
        return build_inference_timing(
            self.config,
            self.preprocess.timing(),
            self.gates.timing(),
            self.hidden_state.timing(),
            self.hidden_state.classification_cycles(),
            self.device.clock,
        )


def engine_at_level(
    model,
    level: OptimizationLevel,
    sequence_length: int | None = None,
    **config_overrides,
) -> CSDInferenceEngine:
    """Convenience: build an engine for ``model`` at one Fig. 3 rung."""
    weights = HostWeights.from_model(model)
    dims = weights.dimensions
    if sequence_length is not None:
        dims = dataclasses.replace(dims, sequence_length=sequence_length)
    config = EngineConfig(dimensions=dims, optimization=level, **config_overrides)
    return CSDInferenceEngine(config, weights)
