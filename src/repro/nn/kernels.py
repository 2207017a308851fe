"""Training kernel backends: the ``reference``/``fused`` registry.

Training time in this repo is dominated by the recurrent timestep loops in
``LSTM.forward``/``LSTM.backward`` — and inside those, by Python/NumPy
dispatch overhead: the masked two-branch ``sigmoid`` (a boolean gather and
two scatters per gate per timestep), ``sigmoid_grad`` re-running the full
sigmoid on stored pre-activations, four slab copies per step, and ~10 fresh
array allocations per batch.  This module gives :class:`~repro.nn.trainer.Trainer`
pluggable *training backends* for that hot path, mirroring the session
kernel registry in ``core/kernels/backends.py``:

* ``reference`` — ``SequenceClassifier.train_batch`` invoked exactly as
  before.  It is the bit-exactness oracle: every other backend must
  reproduce its loss and every gradient array bit for bit, so
  ``ConvergenceHistory``, golden detector scores, and the generalization
  benchmark numbers are unchanged no matter which backend trained the
  model.  Parity checks select it by name.
* ``fused`` (the default) — the same BPTT arithmetic restructured as one
  precompiled forward+backward pass per batch over persistent
  preallocated ``(B, T, H)`` buffers.  Per timestep the forward runs one
  dgemm, one ``np.exp`` over the packed ``(B, 4H)`` pre-activations, and a
  single fused element-wise kernel (gate select, softsign candidate, cell
  and hidden update); the backward runs a single fused kernel for the
  whole element-wise gradient chain and keeps the dgemms in NumPy with
  operand views identical to the reference.
  Like the session backend, the element-wise kernels run as a small C
  kernel built once per hidden size with the system compiler; without
  one, training runs the reference path.

Why the restructuring is bit-exact
----------------------------------
Every transcendental stays in NumPy: the only ``exp`` is computed as
``z = np.exp(-|pre|)`` on the packed pre-activations, and both sigmoid
branches of the reference (``1/(1+exp(-x))`` for ``x >= 0``,
``exp(x)/(1+exp(x))`` otherwise) reduce to ``1/(1+z)`` / ``z/(1+z)`` on
exactly that ``z`` — ``np.exp`` is element-wise and value-deterministic, so
hoisting it out of the masked formulation cannot change a bit.  Everything
the compiled kernels fuse is a chain of ``+ - * /`` and ``fabs`` — IEEE-754
operations with one correctly-rounded answer regardless of how they are
compiled — with FMA contraction disabled explicitly
(``-ffp-contract=off``).  ``sigmoid_grad`` on a stored pre-activation
equals ``s * (1 - s)`` on the stored gate activation, because the stored
activation *is* ``sigmoid(pre)`` bit for bit.  The dgemms
(``x @ W_x``, recurrent ``h @ W_h``, and the four gradient matmuls) keep the
exact reference operand views and run through the same BLAS, with ``out=``
targets that NumPy fills with the identical dgemm result.

On top of that construction argument, a build-time self-check runs probe
batches through the fused pass and the reference ``train_batch`` and
compares the loss and every gradient array bit for bit before the backend
is ever trusted; any mismatch degrades the kernel to the reference path —
gracefully, counted by ``repro_train_backend_fallback_total{reason=...}``.

Fallback reasons
----------------
Each is counted once, when the kernel is built; every one means the
reference path trains.

``jit_error``
    no compiled tier could be built (no C compiler, or every rung of the
    compile ladder failed).
``unsupported_activation``
    the model's cell activation is not the softsign deployment cell the
    fused kernels hardcode (e.g. the tanh ablation).
``self_check_failed``
    the compiled tier was rejected: the build-time probe found a bit
    mismatch vs the reference on this host.

See ``docs/performance.md`` ("The training pipeline") and
``docs/observability.md`` for the metric contract.
"""

from __future__ import annotations

import collections
import ctypes
import functools

import numpy as np

from repro.cbuild import FALLBACK_JIT_ERROR, FALLBACK_SELF_CHECK, load_c_library
from repro.nn.losses import binary_cross_entropy_with_logits

#: Metric names (documented in docs/observability.md).
METRIC_TRAIN_FALLBACK = "repro_train_backend_fallback_total"
METRIC_TRAIN_BATCHES = "repro_train_batches_total"

#: ``repro_train_backend_fallback_total``'s ``reason`` label values (with
#: ``FALLBACK_JIT_ERROR`` and ``FALLBACK_SELF_CHECK`` from ``repro.cbuild``).
FALLBACK_UNSUPPORTED = "unsupported_activation"

#: The default backend of :class:`~repro.nn.trainer.TrainingConfig`.
DEFAULT_TRAIN_BACKEND = "fused"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict = {}


def register_training_backend(name: str, factory) -> None:
    """Register ``factory(model, telemetry=None) -> TrainingKernel``."""
    _REGISTRY[name] = factory


def available_training_backends() -> tuple:
    """Registered training backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_training_backend(name: str, model, telemetry=None):
    """Instantiate the named backend bound to ``model``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown training backend {name!r}; available: "
            f"{', '.join(available_training_backends())}"
        )
    return factory(model, telemetry=telemetry)


class TrainingKernel:
    """Base class: how a trainer executes ``train_batch``.

    A kernel is bound to one :class:`~repro.nn.model.SequenceClassifier`
    and exposes the same ``train_batch(token_ids, labels) -> (loss, grads)``
    contract the model does, so the :class:`~repro.nn.trainer.Trainer` loop
    is backend-agnostic.
    """

    name = "abstract"

    def __init__(self, model, telemetry=None):
        self.model = model
        self.telemetry = telemetry
        #: Plain counters mirroring ``repro_train_backend_fallback_total``.
        self.fallback_reasons: dict = {}
        self._batch_counter = (
            telemetry.counter(METRIC_TRAIN_BATCHES, backend=self.name)
            if telemetry is not None
            else None
        )

    def record_fallback(self, reason: str) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.counter(METRIC_TRAIN_FALLBACK, reason=reason).inc()

    def _count_batch(self) -> None:
        if self._batch_counter is not None:
            self._batch_counter.inc()

    @property
    def accel_tier(self):
        """``"cc"`` when the compiled C tier runs, else ``None``."""
        return None

    def train_batch(self, token_ids: np.ndarray, labels: np.ndarray):
        raise NotImplementedError


class ReferenceTrainingKernel(TrainingKernel):
    """The unmodified model path — the bit-exactness oracle."""

    name = "reference"

    def train_batch(self, token_ids: np.ndarray, labels: np.ndarray):
        self._count_batch()
        return self.model.train_batch(token_ids, labels)


# ----------------------------------------------------------------------
# The fused BPTT pass
# ----------------------------------------------------------------------

_TrainSteps = collections.namedtuple("_TrainSteps", "fwd bwd")


class _TrainBuffers:
    """Persistent work/cache arrays for one ``(batch, timesteps)`` shape,
    and the compiled step pair bound to their data pointers, so a
    timestep call passes only ``t``: ``fwd(t)`` and ``bwd(t)``."""

    def __init__(self, batch: int, timesteps: int, hidden: int, input_dim: int,
                 steps: "_TrainSteps"):
        shape_bt = (batch, timesteps, hidden)
        self.pre = np.empty((batch, 4 * hidden))
        self.z = np.empty((batch, 4 * hidden))
        self.x_proj = np.empty((batch, timesteps, 4 * hidden))
        self.i = np.empty(shape_bt)
        self.f = np.empty(shape_bt)
        self.o = np.empty(shape_bt)
        self.c_bar = np.empty(shape_bt)
        self.pre_c = np.empty(shape_bt)
        # cell[:, 0] / hidden[:, 0] are the zero initial states; the loop
        # only ever writes [:, 1:], so the zeros persist across batches.
        self.cell = np.zeros((batch, timesteps + 1, hidden))
        self.hidden = np.zeros((batch, timesteps + 1, hidden))
        self.d_pre = np.empty((batch, 4 * hidden))
        self.grad_h = np.empty((batch, hidden))
        self.grad_c = np.empty((batch, hidden))
        self.tmp_wx = np.empty((input_dim, 4 * hidden))
        self.tmp_wh = np.empty((hidden, 4 * hidden))
        self.inputs: np.ndarray | None = None
        self.fwd = functools.partial(steps.fwd, *(
            array.ctypes.data for array in (
                self.pre, self.z, self.i, self.f, self.o, self.c_bar,
                self.pre_c, self.cell, self.hidden)
        ), batch, timesteps)
        self.bwd = functools.partial(steps.bwd, *(
            array.ctypes.data for array in (
                self.i, self.f, self.o, self.c_bar, self.pre_c, self.cell,
                self.grad_h, self.grad_c, self.d_pre)
        ), batch, timesteps)


class FusedTrainingKernel(TrainingKernel):
    """One precompiled BPTT pass per batch over persistent buffers."""

    name = "fused"

    def __init__(self, model, telemetry=None):
        super().__init__(model, telemetry)
        self._delegate = True
        self._buffers: dict = {}
        lstm = model.lstm
        if lstm.cell_activation_name != "softsign":
            # The fused kernels hardcode the softsign deployment cell; the
            # tanh ablation (and any future activation) trains on reference.
            self.record_fallback(FALLBACK_UNSUPPORTED)
            return
        self._steps = _build_cc_train_steps(lstm.hidden_size)
        if self._steps is None:
            self.record_fallback(FALLBACK_JIT_ERROR)
            return
        try:
            self._self_check()
        except AssertionError:
            self.record_fallback(FALLBACK_SELF_CHECK)
            return
        self._delegate = False

    @property
    def accel_tier(self):
        return None if self._delegate else "cc"

    def train_batch(self, token_ids: np.ndarray, labels: np.ndarray):
        self._count_batch()
        if self._delegate:
            return self.model.train_batch(token_ids, labels)
        return self._fused_train_batch(token_ids, labels)

    # -- build-time self-check -----------------------------------------

    def _self_check(self) -> None:
        """Compare the fused pass against ``model.train_batch`` bit for bit.

        Two probe shapes exercise the buffer management (including a
        reshape) and both sigmoid branches via random-sign pre-activations.
        Raises ``AssertionError`` on the first bit difference.
        """
        model = self.model
        vocab = model.embedding.vocab_size
        rng = np.random.default_rng(0x5EED)
        for batch, steps in ((5, 7), (3, 4)):
            tokens = rng.integers(0, vocab, size=(batch, steps))
            labels = (rng.random(batch) < 0.5).astype(np.float64)
            ref_loss, ref_grads = model.train_batch(tokens, labels)
            got_loss, got_grads = self._fused_train_batch(tokens, labels)
            assert got_loss == ref_loss, "loss mismatch"
            for key, ref in ref_grads.items():
                assert np.array_equal(got_grads[key], ref), f"{key} gradient mismatch"

    # -- the fused pass ------------------------------------------------

    def _buffers_for(self, batch: int, timesteps: int) -> _TrainBuffers:
        key = (batch, timesteps)
        buffers = self._buffers.get(key)
        if buffers is None:
            if len(self._buffers) > 8:
                self._buffers.clear()
            lstm = self.model.lstm
            buffers = _TrainBuffers(batch, timesteps, lstm.hidden_size,
                                    lstm.input_dim, self._steps)
            self._buffers[key] = buffers
        return buffers

    def _fused_train_batch(self, token_ids: np.ndarray, labels: np.ndarray):
        # Mirrors SequenceClassifier.train_batch with the LSTM forward and
        # backward swapped for the fused pass; embedding, head, and loss run
        # the unchanged layer code (they are a rounding-error share of the
        # profile, and reusing them keeps their caches/validation intact).
        model = self.model
        embedded = model.embedding.forward(token_ids)
        final_hidden, buffers = self._forward(embedded)
        logits = model.head.forward(final_hidden).reshape(-1)
        loss, grad_logits = binary_cross_entropy_with_logits(logits, labels)

        grad_hidden, head_grads = model.head.backward(grad_logits.reshape(-1, 1))
        grad_embedded, lstm_grads = self._backward(buffers, grad_hidden)
        grad_table = model.embedding.backward(grad_embedded)

        grads = {
            "embedding/table": grad_table,
            "lstm/W_x": lstm_grads["W_x"],
            "lstm/W_h": lstm_grads["W_h"],
            "lstm/b": lstm_grads["b"],
            "head/W": head_grads["W"],
            "head/b": head_grads["b"],
        }
        return loss, grads

    def _forward(self, inputs: np.ndarray):
        lstm = self.model.lstm
        inputs = np.asarray(inputs, dtype=np.float64)
        batch, timesteps, _ = inputs.shape
        buf = self._buffers_for(batch, timesteps)
        buf.inputs = inputs

        np.matmul(inputs, lstm.W_x, out=buf.x_proj)
        buf.x_proj += lstm.b

        pre, z, fwd = buf.pre, buf.z, buf.fwd
        for t in range(timesteps):
            np.matmul(buf.hidden[:, t, :], lstm.W_h, out=pre)
            pre += buf.x_proj[:, t, :]
            # The only transcendental: z = exp(-|pre|), from which both
            # sigmoid branches follow by exact arithmetic (see module doc).
            np.abs(pre, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)
            fwd(t)
        return buf.hidden[:, timesteps, :], buf

    def _backward(self, buf: _TrainBuffers, grad_h_final: np.ndarray):
        lstm = self.model.lstm
        inputs = buf.inputs
        timesteps = inputs.shape[1]

        grad_W_x = np.zeros_like(lstm.W_x)
        grad_W_h = np.zeros_like(lstm.W_h)
        grad_b = np.zeros_like(lstm.b)
        # Every [:, t] slice is assigned below, so empty is safe.
        grad_inputs = np.empty_like(inputs)

        grad_h = buf.grad_h
        np.copyto(grad_h, grad_h_final)
        grad_c = buf.grad_c
        grad_c.fill(0.0)
        d_pre, bwd = buf.d_pre, buf.bwd

        for t in range(timesteps - 1, -1, -1):
            bwd(t)
            np.matmul(inputs[:, t].T, d_pre, out=buf.tmp_wx)
            grad_W_x += buf.tmp_wx
            np.matmul(buf.hidden[:, t].T, d_pre, out=buf.tmp_wh)
            grad_W_h += buf.tmp_wh
            grad_b += d_pre.sum(axis=0)
            grad_inputs[:, t] = d_pre @ lstm.W_x.T
            np.matmul(d_pre, lstm.W_h.T, out=grad_h)

        return grad_inputs, {"W_x": grad_W_x, "W_h": grad_W_h, "b": grad_b}


# ----------------------------------------------------------------------
# The compiled C tier
# ----------------------------------------------------------------------


def _render_cc_train_steps(hidden_size: int) -> str:
    """The C step pair: the same op chains, one call per timestep.

    Gate/candidate caches are ``(B, T, H)`` and the states ``(B, T+1, H)``;
    the kernels take the base pointers plus ``t`` and handle the row stride
    internally, so the Python loop passes the persistent buffers untouched.
    Everything here is ``+ - * /``/``fabs`` — IEEE-exact however compiled —
    and :mod:`repro.cbuild` pins ``-ffp-contract=off`` so the two
    multiply-add chains (cell update, recurrent grad accumulation) cannot
    be contracted into differently-rounded FMAs.
    """
    return f'''
#include <math.h>

void repro_train_fwd_step(const double *restrict pre, const double *restrict z,
                          double *restrict gi, double *restrict gf,
                          double *restrict go, double *restrict cb,
                          double *restrict pc, double *restrict cell,
                          double *restrict hidden, long n, long steps, long t)
{{
    const long H = {hidden_size};
    for (long row = 0; row < n; ++row) {{
        const double *restrict p = pre + row * 4 * H;
        const double *restrict zz = z + row * 4 * H;
        double *restrict gir = gi + (row * steps + t) * H;
        double *restrict gfr = gf + (row * steps + t) * H;
        double *restrict gor = go + (row * steps + t) * H;
        double *restrict cbr = cb + (row * steps + t) * H;
        double *restrict pcr = pc + (row * steps + t) * H;
        const double *restrict cprev = cell + (row * (steps + 1) + t) * H;
        double *restrict cnext = cell + (row * (steps + 1) + t + 1) * H;
        double *restrict hnext = hidden + (row * (steps + 1) + t + 1) * H;
        for (long k = 0; k < H; ++k) {{
            double z_i = zz[k], z_f = zz[H + k], z_o = zz[3 * H + k];
            double s_i = (p[k] >= 0.0) ? 1.0 / (1.0 + z_i) : z_i / (1.0 + z_i);
            double s_f = (p[H + k] >= 0.0) ? 1.0 / (1.0 + z_f) : z_f / (1.0 + z_f);
            double s_o = (p[3 * H + k] >= 0.0) ? 1.0 / (1.0 + z_o) : z_o / (1.0 + z_o);
            double p_c = p[2 * H + k];
            double c_b = p_c / (fabs(p_c) + 1.0);
            double c_new = s_f * cprev[k] + s_i * c_b;
            gir[k] = s_i;
            gfr[k] = s_f;
            gor[k] = s_o;
            cbr[k] = c_b;
            pcr[k] = p_c;
            cnext[k] = c_new;
            hnext[k] = s_o * (c_new / (fabs(c_new) + 1.0));
        }}
    }}
}}

void repro_train_bwd_step(const double *restrict gi, const double *restrict gf,
                          const double *restrict go, const double *restrict cb,
                          const double *restrict pc, const double *restrict cell,
                          const double *restrict grad_h, double *restrict grad_c,
                          double *restrict d_pre, long n, long steps, long t)
{{
    const long H = {hidden_size};
    for (long row = 0; row < n; ++row) {{
        const double *restrict gir = gi + (row * steps + t) * H;
        const double *restrict gfr = gf + (row * steps + t) * H;
        const double *restrict gor = go + (row * steps + t) * H;
        const double *restrict cbr = cb + (row * steps + t) * H;
        const double *restrict pcr = pc + (row * steps + t) * H;
        const double *restrict cprev = cell + (row * (steps + 1) + t) * H;
        const double *restrict cnext = cell + (row * (steps + 1) + t + 1) * H;
        const double *restrict ghr = grad_h + row * H;
        double *restrict gcr = grad_c + row * H;
        double *restrict dp = d_pre + row * 4 * H;
        for (long k = 0; k < H; ++k) {{
            double c_t = cnext[k];
            double i_t = gir[k], f_t = gfr[k], o_t = gor[k];
            double den_c = fabs(c_t) + 1.0;
            double gh = ghr[k];
            double gc = gcr[k] + (gh * o_t) * (1.0 / (den_c * den_c));
            double g_o = gh * (c_t / den_c);
            double g_i = gc * cbr[k];
            double g_cb = gc * i_t;
            double g_f = gc * cprev[k];
            dp[k] = g_i * (i_t * (1.0 - i_t));
            dp[H + k] = g_f * (f_t * (1.0 - f_t));
            double den_p = fabs(pcr[k]) + 1.0;
            dp[2 * H + k] = g_cb * (1.0 / (den_p * den_p));
            dp[3 * H + k] = g_o * (o_t * (1.0 - o_t));
            gcr[k] = gc * f_t;
        }}
    }}
}}
'''


def _build_cc_train_steps(hidden_size: int):
    """The compiled C step pair as ``_TrainSteps`` of raw ctypes functions,
    or ``None``.

    Compiled and cached by :func:`repro.cbuild.load_c_library`; ``None``
    when the host cannot build it, in which case the caller records
    ``jit_error`` and trains on the reference path.  Both take nine data
    pointers, then ``n``, ``steps`` and ``t`` (:class:`_TrainBuffers`
    binds all but ``t`` once per buffer set).
    """
    library = load_c_library(_render_cc_train_steps(hidden_size))
    if library is None:
        return None
    fwd = library.repro_train_fwd_step
    bwd = library.repro_train_bwd_step
    for step in (fwd, bwd):
        step.restype = None
        step.argtypes = [ctypes.c_void_p] * 9 + [ctypes.c_long] * 3
    return _TrainSteps(fwd, bwd)


register_training_backend("reference", ReferenceTrainingKernel)
register_training_backend("fused", FusedTrainingKernel)
