"""``kernel_hidden_state`` — cell update, hidden state, and FC head.

Per Section III-B, this kernel receives ``i_t``, ``f_t``, ``o_t``, ``C'_t``
and produces ``h_t``, keeping the cell state ``C_t`` *entirely inside the
kernel* ("in contrast to contending with the additional overhead associated
with passing C_t to another kernel").  It also owns the fully-connected
classification layer, applied once "a static counter" shows the whole
sequence has been processed, and fans ``h_t`` out to per-CU copies for the
next item's gate computations (Section III-C).

Timing structure (H = 32 element-wise lanes):

* **Vanilla** — the update loop body contains softsign's divide, which is
  too entangled for default scheduling: the loop runs unpipelined and its
  trip count multiplies the full ~44-cycle chain.  This is the dominant
  bar of Fig. 3's vanilla stack.
* **II-optimised** — ``PIPELINE II=1`` works here (no loop-carried
  dependency between lanes), but the shared floating-point divider is not
  fully pipelined, capping the achieved II at the divider's issue rate.
  Still a ~2.5x cut — "II minimization reduced the execution time of
  kernel_hidden_state by a relatively wide margin".
* **Fixed-point** — single-cycle integer lanes, but the 10^6 decimal
  scale forces wide integer divides (product rescale + softsign
  denominator), whose issue rate now caps the II; a further ~30% cut.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels.base import Kernel, KernelTiming
from repro.core.weights import HostWeights, QuantizedHostWeights
from repro.fixedpoint.activations import qsigmoid, qsoftsign
from repro.fixedpoint.ops import operand_bound, qadd, qmatvec, qmul
from repro.hw.hls import FIXED_OPS, FLOAT_OPS, HlsLoop, LoopNest, PragmaSet, VANILLA_PRAGMAS
from repro.nn.activations import sigmoid as float_sigmoid
from repro.nn.activations import softsign as float_softsign


class HiddenStateKernel(Kernel):
    """Cell/hidden state update plus the classification epilogue."""

    name = "kernel_hidden_state"

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self._weights: HostWeights | None = None
        self._quantized: QuantizedHostWeights | None = None
        self._fc_bound: float | None = None  # static FC-weight screen bound

    # ------------------------------------------------------------------
    # Function
    # ------------------------------------------------------------------

    def load_weights(self, weights: HostWeights, quantized: QuantizedHostWeights | None) -> None:
        """Receive the FC layer parameters from the host program."""
        self._weights = weights
        if self.config.optimization.uses_fixed_point:
            if quantized is None:
                raise ValueError("fixed-point mode requires quantised weights")
            self._quantized = quantized
            self._fc_bound = operand_bound(quantized.fc_weights)

    def step_batch(self, gates: dict, cell: np.ndarray) -> tuple:
        """One cell/hidden update over caller-owned ``(N, H)`` state.

        ``gates`` holds the ``i``/``f``/``o``/``c`` outputs of
        :meth:`~repro.core.kernels.gates.GatesKernel.run_batch`.  The
        cell state is an argument and the new state is returned, so
        whole-batch inference and the streaming session layer can step
        any row subset (many streams, many partial windows) while staying
        bit-identical to the sequential update of each window: every
        operation here is element-wise per row.

        Returns
        -------
        tuple
            ``(hidden, new_cell)`` — both ``(N, H)``, freshly allocated.
        """
        if self._weights is None:
            raise RuntimeError("load_weights must be called before step_batch")
        i_t, f_t, o_t, c_bar = gates["i"], gates["f"], gates["o"], gates["c"]
        if self.config.optimization.uses_fixed_point:
            fmt = self._quantized.fmt
            new_cell = qadd(qmul(f_t, cell, fmt), qmul(i_t, c_bar, fmt))
            hidden = qmul(o_t, qsoftsign(new_cell, fmt), fmt)
        else:
            new_cell = f_t * cell + i_t * c_bar
            hidden = o_t * float_softsign(new_cell)
        return hidden, new_cell

    def classify_batch(self, hidden: np.ndarray) -> np.ndarray:
        """FC head + sigmoid over a ``(N, H)`` batch of final hidden states.

        The fixed-point path is exact by construction (int64 dot
        products), and the float path uses the same ``np.sum`` reduction
        for every batch size, so per-row results are bit-identical
        whatever the batch.
        """
        if self.config.optimization.uses_fixed_point:
            fmt = self._quantized.fmt
            logits = qadd(
                qmatvec(hidden, self._quantized.fc_weights, fmt,
                        vector_bound=self._fc_bound),
                self._quantized.fc_bias,
            )
            return np.asarray(
                fmt.dequantize(qsigmoid(np.asarray(logits, dtype=np.int64), fmt)),
                dtype=np.float64,
            )
        logits = (
            np.sum(self._weights.fc_weights * hidden, axis=-1)
            + self._weights.fc_bias
        )
        return float_sigmoid(logits)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _update_chain_depth(self, fixed: bool) -> int:
        """Critical path of one lane: f*C + i*C', softsign, o* multiply."""
        ops = FIXED_OPS if fixed else FLOAT_OPS
        softsign_depth = ops["abs"].depth if fixed else 0
        softsign_depth += ops["add"].depth + ops["div"].depth
        return ops["mul"].depth + ops["add"].depth + softsign_depth + ops["mul"].depth

    def timing(self) -> KernelTiming:
        dims = self.config.dimensions
        opt = self.config.optimization
        fixed = opt.uses_fixed_point
        ops = FIXED_OPS if fixed else FLOAT_OPS

        if opt.uses_ii_pragmas:
            update = HlsLoop(
                name="cell_update",
                trip_count=dims.hidden_size,
                iteration_depth=self._update_chain_depth(fixed),
                pragmas=PragmaSet(pipeline=True, target_ii=1, array_partition=True),
                shared_unit_ii=ops["div"].ii,  # the divider caps the II
            )
            copy_pragmas = PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True)
        else:
            update = HlsLoop(
                name="cell_update",
                trip_count=dims.hidden_size,
                iteration_depth=self._update_chain_depth(fixed),
                pragmas=PragmaSet(pipeline=False),  # divide-laden body: unpipelined
            )
            copy_pragmas = VANILLA_PRAGMAS
        copy_loop = HlsLoop(
            name="hidden_copy",
            trip_count=dims.hidden_size * self.config.num_gate_cus,
            iteration_depth=4,
            pragmas=copy_pragmas,
            unroll_depth_penalty=0,
        )
        nest = LoopNest(name=self.name, loops=(update, copy_loop))
        latency = nest.latency_cycles
        return KernelTiming(
            kernel=self.name,
            fill_latency_cycles=latency,
            steady_ii_cycles=latency,
        )

    def classification_cycles(self) -> int:
        """One-time FC epilogue cost, charged at the end of a sequence."""
        dims = self.config.dimensions
        if self.config.optimization.uses_fixed_point:
            return (
                FIXED_OPS["mul"].depth
                + 6 * FIXED_OPS["add"].depth  # adder tree over 32 lanes
                + FIXED_OPS["div"].depth
                + 4  # PLAN sigmoid
            )
        mac = HlsLoop(
            name="fc_mac",
            trip_count=dims.hidden_size,
            iteration_depth=FLOAT_OPS["mul"].depth + FLOAT_OPS["add"].depth,
            pragmas=PragmaSet(pipeline=True, target_ii=1),
            carried_dependency_ii=FLOAT_OPS["add"].depth,
        )
        return mac.latency_cycles + 16  # + PLAN sigmoid epilogue
