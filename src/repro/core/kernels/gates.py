"""``kernel_gates`` — the i/f/o/C' gate computations (paper Section III-B).

Each of the four compute units evaluates one gate:
``act(W_g [h_{t-1}, x_t] + b_g)`` — sigmoid for i/f/o, softsign for the
candidate C' (the deployed tanh replacement).  The CUs run in parallel
(Section III-C), so the stage's duration is the *maximum* over CUs; with
fewer CUs than gates (the CU-count ablation) each CU evaluates its share
of gates back to back.

Timing structure per CU (one gate, H=32 outputs over F=H+O=40 inputs):

* **Vanilla** — the input loop is pipelined with 32 parallel partial
  accumulators, but the floating-point accumulation carries a loop
  dependency, so the achieved II is the fadd latency (8 cycles).
* **II-optimised** — ``UNROLL factor=4`` + complete ``ARRAY_PARTITION``.
  Unrolling deepens the iteration with a float adder tree, and completely
  partitioning the 1,280-element weight buffer into fabric registers
  builds mux trees wide enough that the scheduler's achieved II *worsens*
  — a well-documented HLS pathology for large complete partitions, and
  the reason the gates bar in Fig. 3 grows at the II rung.  (The paper's
  text only credits II minimisation for ``kernel_hidden_state``, which
  matches.)
* **Fixed-point** — every MAC maps onto a DSP slice with dedicated
  cascade paths (no fabric muxing), the integer accumulator has
  single-cycle latency, and the whole 32 x 40 mat-vec unrolls spatially
  across 1,280 DSPs per CU (4 x 1,280 = 5,120 of the u200's 6,840).  The
  datapath initiates every cycle, so HLS reports the per-item execution
  time as the initiation interval: one cycle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import EngineConfig, GATE_NAMES
from repro.core.kernels.base import Kernel, KernelTiming
from repro.core.weights import HostWeights, QuantizedHostWeights
from repro.fixedpoint.activations import qsigmoid, qsoftsign
from repro.fixedpoint.ops import operand_bound, qadd, qmatmul
from repro.hw.hls import DataflowRegion, FIXED_OPS, FLOAT_OPS, HlsLoop, LoopNest, PragmaSet

#: Activation used by each gate in the deployed design.
GATE_ACTIVATIONS = {"i": "sigmoid", "f": "sigmoid", "o": "sigmoid", "c": "softsign"}

#: Depth of the PLAN piecewise-linear sigmoid / softsign epilogue stage.
_FLOAT_ACTIVATION_DEPTH = 16
_FIXED_ACTIVATION_DEPTH = 4

#: Elements a complete-partitioned fabric buffer can mux per cycle; larger
#: partitions inflate the achieved II (the Fig. 3 gates regression).
_PARTITION_MUX_CAPACITY = 32


def _float_sigmoid(x: np.ndarray) -> np.ndarray:
    from repro.nn.activations import sigmoid

    return sigmoid(x)


def _float_softsign(x: np.ndarray) -> np.ndarray:
    from repro.nn.activations import softsign

    return softsign(x)


def _affine_rows(matrix: np.ndarray, rows: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Float affine ``rows @ matrix.T + bias`` with a batch-stable reduction.

    ``np.sum``'s pairwise reduction over the last axis depends only on the
    fan-in, so row ``n`` of the result is bit-identical whether computed in
    a batch of 1 or of N.  BLAS gives no such guarantee — ``matrix @ vector``
    (gemv) and ``matrix @ batch`` (gemm) round differently — so the float
    gate path routes through this helper to keep each row of
    :meth:`GatesKernel.run_batch` independent of the batch around it.
    """
    return np.sum(matrix[np.newaxis, :, :] * rows[:, np.newaxis, :], axis=2) + bias


class GatesKernel(Kernel):
    """All ``kernel_gates`` compute units of the engine."""

    name = "kernel_gates"

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self._weights: HostWeights | None = None
        self._quantized: QuantizedHostWeights | None = None
        # Stacked (4H, H+E) weight matrix / (4H,) bias in GATE_NAMES order,
        # built at load time for the batched path.
        self._stacked_float: tuple | None = None
        self._stacked_fixed: tuple | None = None
        # Static overflow-screen bound (max|W|): the weights never change
        # after load, so screening them per timestep is pure overhead.
        self._stacked_fixed_bound: float | None = None
        # Reusable [h_{t-1}, x_t] concat buffer for run_batch; reallocated
        # only when the batch shape or dtype changes.
        self._concat_batch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Function
    # ------------------------------------------------------------------

    def load_weights(self, weights: HostWeights, quantized: QuantizedHostWeights | None) -> None:
        """Receive gate matrices and biases from the host program."""
        self._weights = weights
        self._stacked_float = (
            np.concatenate([weights.gates[g].matrix for g in GATE_NAMES], axis=0),
            np.concatenate([weights.gates[g].bias for g in GATE_NAMES]),
        )
        if self.config.optimization.uses_fixed_point:
            if quantized is None:
                raise ValueError("fixed-point mode requires quantised weights")
            self._quantized = quantized
            self._stacked_fixed = (
                np.concatenate([quantized.gates[g].matrix for g in GATE_NAMES], axis=0),
                np.concatenate([quantized.gates[g].bias for g in GATE_NAMES]),
            )
            # Screen the static weight operands exactly once, here.
            self._stacked_fixed_bound = operand_bound(self._stacked_fixed[0])

    def run_batch(self, hidden_prev: np.ndarray, x_t: np.ndarray) -> dict:
        """Evaluate all four gates for one timestep of a whole batch.

        The four per-gate CU affines collapse into a single stacked
        ``(4H, H+E)`` product against the ``(N, H+E)`` concatenated inputs
        — one matmul per timestep instead of ``4 N`` mat-vecs.  Each row
        is bit-exact with the same call on that row alone: the fixed-point
        path accumulates exact int64 dot products before the single
        rescale, and the float path uses :func:`_affine_rows`' batch-
        stable reduction.

        Parameters
        ----------
        hidden_prev:
            ``h_{t-1}`` for every sequence, shape ``(N, H)``.
        x_t:
            This timestep's embeddings, shape ``(N, E)``.

        Returns
        -------
        dict
            Gate name → activated ``(N, H)`` array.
        """
        hidden_size = self.config.dimensions.hidden_size
        concatenated = self._concatenated_batch(hidden_prev, x_t)
        if self.config.optimization.uses_fixed_point:
            if self._stacked_fixed is None:
                raise RuntimeError("load_weights must be called before run_batch")
            stacked, bias = self._stacked_fixed
            fmt = self._quantized.fmt
            pre = qadd(
                qmatmul(concatenated, stacked.T, fmt,
                        b_bound=self._stacked_fixed_bound),
                bias,
            )
            activate = {"sigmoid": qsigmoid, "softsign": qsoftsign}
            return {
                gate: activate[GATE_ACTIVATIONS[gate]](
                    pre[:, index * hidden_size:(index + 1) * hidden_size], fmt
                )
                for index, gate in enumerate(GATE_NAMES)
            }
        if self._stacked_float is None:
            raise RuntimeError("load_weights must be called before run_batch")
        stacked, bias = self._stacked_float
        pre = _affine_rows(stacked, concatenated, bias)
        activate = {"sigmoid": _float_sigmoid, "softsign": _float_softsign}
        return {
            gate: activate[GATE_ACTIVATIONS[gate]](
                pre[:, index * hidden_size:(index + 1) * hidden_size]
            )
            for index, gate in enumerate(GATE_NAMES)
        }

    def _concatenated_batch(self, hidden_prev: np.ndarray, x_t: np.ndarray) -> np.ndarray:
        """``[h_{t-1}, x_t]`` written into a reused ``(N, H+E)`` buffer.

        One allocation per batch shape instead of one per timestep; the
        values are copied element-for-element, so downstream results are
        bit-identical to a fresh ``np.concatenate``.  The buffer is only
        read within the same ``run_batch`` call, never retained by
        downstream kernels.
        """
        dims = self.config.dimensions
        shape = (hidden_prev.shape[0], dims.gate_input_size)
        buffer = self._concat_batch
        if buffer is None or buffer.shape != shape or buffer.dtype != hidden_prev.dtype:
            buffer = np.empty(shape, dtype=hidden_prev.dtype)
            self._concat_batch = buffer
        buffer[:, :dims.hidden_size] = hidden_prev
        buffer[:, dims.hidden_size:] = x_t
        return buffer

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _single_gate_timing(self) -> KernelTiming:
        """Latency of one gate evaluation on one CU."""
        dims = self.config.dimensions
        fan_in = dims.gate_input_size
        opt = self.config.optimization

        if opt.uses_fixed_point:
            # Full spatial unroll across DSP slices.  The h-side and
            # x-side cascades are independent, so they sit in a DATAFLOW
            # region (Section III-C's pragma) and run concurrently; a join
            # adds the partials, rescales the product, and activates.
            # Initiates every cycle.
            def cascade(name: str, width: int) -> HlsLoop:
                tree_levels = max(1, math.ceil(math.log2(width)))
                return HlsLoop(
                    name=name,
                    trip_count=1,
                    iteration_depth=FIXED_OPS["mul"].depth
                    + tree_levels * FIXED_OPS["add"].depth,
                    pragmas=PragmaSet(pipeline=True, target_ii=1, array_partition=True),
                )

            join = HlsLoop(
                name="join_rescale_activate",
                trip_count=1,
                iteration_depth=FIXED_OPS["add"].depth
                + FIXED_OPS["div"].depth       # rescale by the scale factor
                + _FIXED_ACTIVATION_DEPTH,
                pragmas=PragmaSet(pipeline=True, target_ii=1),
            )
            nest = LoopNest(
                name=self.name,
                loops=(
                    DataflowRegion(
                        name="matvec_dataflow",
                        loops=(
                            cascade("h_cascade", dims.hidden_size),
                            cascade("x_cascade", dims.embedding_dim),
                        ),
                    ),
                    join,
                ),
            )
            return KernelTiming(
                kernel=self.name,
                fill_latency_cycles=nest.latency_cycles,
                steady_ii_cycles=1,
                reports_ii=True,
            )

        mac_depth = FLOAT_OPS["mul"].depth + FLOAT_OPS["add"].depth
        if opt.uses_ii_pragmas:
            weight_elements = dims.hidden_size * fan_in
            mux_ii = math.ceil(weight_elements / _PARTITION_MUX_CAPACITY)
            matvec = HlsLoop(
                name="matvec_stream",
                trip_count=fan_in,
                iteration_depth=mac_depth,
                pragmas=PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True),
                carried_dependency_ii=FLOAT_OPS["add"].depth,
                shared_unit_ii=mux_ii,
                unroll_depth_penalty=FLOAT_OPS["add"].depth,
            )
        else:
            matvec = HlsLoop(
                name="matvec_stream",
                trip_count=fan_in,
                iteration_depth=mac_depth,
                pragmas=PragmaSet(pipeline=True, target_ii=1),
                carried_dependency_ii=FLOAT_OPS["add"].depth,
                memory_accesses_per_iteration=2,  # h/x element reads; weights stream via AXI
            )
        activation = HlsLoop(
            name="activation",
            trip_count=1,  # all H lanes activate in parallel registers
            iteration_depth=_FLOAT_ACTIVATION_DEPTH,
        )
        nest = LoopNest(name=self.name, loops=(matvec, activation))
        return KernelTiming(
            kernel=self.name,
            fill_latency_cycles=nest.latency_cycles,
            steady_ii_cycles=matvec.steady_state_ii,
        )

    def timing(self) -> KernelTiming:
        """Stage timing: max over CUs, times the gates each CU serialises.

        With 4 CUs each runs one gate and the stage costs one gate's
        latency; with 1 CU all four gates serialise onto it.
        """
        single = self._single_gate_timing()
        serial_factor = self.config.gates_per_cu
        return KernelTiming(
            kernel=self.name,
            fill_latency_cycles=single.fill_latency_cycles * serial_factor,
            steady_ii_cycles=single.steady_ii_cycles * serial_factor,
            reports_ii=single.reports_ii,
        )
