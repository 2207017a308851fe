"""``kernel_preprocess`` — embedding generation (paper Section III-B).

Functionally: for each item of the sequence, produce its embedding by the
one-hot × (M × O) matrix product — i.e. a row lookup of the flattened
embedding buffer the kernel was initialised with — and make one copy of
the embedding per ``kernel_gates`` compute unit "such that each CU has its
own copies" (Section III-C).

Timing structure:

* a DDR row fetch through the kernel's AXI master (one burst, dominated
  by read latency — this is why the kernel's Fig. 3 bar "remained fairly
  fixed" across optimisation levels: there is nothing to pipeline in a
  single burst);
* a copy loop of ``O × num_cus`` element writes, which the II pragmas
  shave slightly (unroll 4 over pure wiring has no adder-tree penalty).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels.base import Kernel, KernelTiming
from repro.core.weights import HostWeights, QuantizedHostWeights
from repro.hw.axi import AxiMasterPort
from repro.hw.hls import HlsLoop, II_OPTIMIZED_PRAGMAS, LoopNest, PragmaSet, VANILLA_PRAGMAS


def token_range_error(token_id: int, vocab_size: int) -> ValueError:
    """The error every embedding path raises for a token outside the table."""
    return ValueError(f"token id {token_id} out of range [0, {vocab_size})")


class PreprocessKernel(Kernel):
    """Embedding lookup + per-CU fan-out."""

    name = "kernel_preprocess"

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self.axi = AxiMasterPort(name=f"{self.name}/m_axi_gmem0")
        self._embedding_float: np.ndarray | None = None
        self._embedding_fixed: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Function
    # ------------------------------------------------------------------

    def load_embeddings(self, weights: HostWeights, quantized: QuantizedHostWeights | None) -> None:
        """Initialise the kernel's 1-D embedding buffer (host step).

        The paper initialises the kernel "with a 1-dimensional buffer
        consisting of the flattened embedding vector"; we retain the 2-D
        view for clarity but the contract is the same.
        """
        self._embedding_float = weights.embedding
        if self.config.optimization.uses_fixed_point:
            if quantized is None:
                raise ValueError("fixed-point mode requires quantised weights")
            self._embedding_fixed = quantized.embedding

    def run_batch(self, token_ids: np.ndarray) -> np.ndarray:
        """Embed a whole batch of sequences in one gather.

        ``token_ids`` may have any shape (typically ``(N, T)``); the result
        appends the embedding dimension: ``token_ids.shape + (E,)``.  The
        batch path needs no per-CU fan-out — the four gate affines collapse
        into one stacked matmul, so a single embedding view serves them all.
        The result is a fresh array, never a view of the table.
        """
        table = (
            self._embedding_fixed
            if self.config.optimization.uses_fixed_point
            else self._embedding_float
        )
        if table is None:
            raise RuntimeError("load_embeddings must be called before run_batch")
        tokens = np.asarray(token_ids, dtype=np.int64)
        if tokens.size:
            out_of_range = (tokens < 0) | (tokens >= table.shape[0])
            if np.any(out_of_range):
                bad = int(tokens[out_of_range].ravel()[0])
                raise token_range_error(bad, table.shape[0])
        return table[tokens]

    def account_batch_fetches(self, count: int) -> None:
        """Record AXI read traffic for ``count`` additional sequences.

        The sequential path charges one embedding-row burst per sequence
        when :meth:`timing` calls ``axi.read_cycles``; a batched call
        builds timing once for the whole batch, so the remaining
        ``count`` sequences' fetches are accounted here to keep the AXI
        byte/transfer counters identical to ``count + 1`` sequential runs.
        """
        if count <= 0:
            return
        dims = self.config.dimensions
        bytes_per_value = 8 if self.config.optimization.uses_fixed_point else 4
        num_bytes = count * dims.embedding_dim * bytes_per_value
        self.axi.bytes_transferred += num_bytes
        self.axi.transfer_count += count
        if self.axi.telemetry is not None:
            # Mirror into the telemetry counters so they stay equal to the
            # port's own counters (the per-transfer hook in read_cycles is
            # bypassed here by design).
            metrics = self.axi.telemetry.metrics
            metrics.counter(
                "repro_axi_bytes_total", port=self.axi.name, op="read"
            ).inc(num_bytes)
            metrics.counter(
                "repro_axi_transfers_total", port=self.axi.name, op="read"
            ).inc(count)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def timing(self) -> KernelTiming:
        dims = self.config.dimensions
        bytes_per_value = 8 if self.config.optimization.uses_fixed_point else 4
        fetch_cycles = self.axi.read_cycles(dims.embedding_dim * bytes_per_value)

        if self.config.optimization.uses_ii_pragmas:
            copy_pragmas = PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True)
        else:
            copy_pragmas = VANILLA_PRAGMAS
        copy_loop = HlsLoop(
            name="embedding_copy",
            trip_count=dims.embedding_dim * self.config.num_gate_cus,
            iteration_depth=4,
            pragmas=copy_pragmas,
            unroll_depth_penalty=0,  # pure data movement: no arithmetic tree
        )
        nest = LoopNest(name=self.name, loops=(copy_loop,))
        latency = nest.latency_cycles + fetch_cycles
        return KernelTiming(
            kernel=self.name,
            fill_latency_cycles=latency,
            steady_ii_cycles=latency,
        )
