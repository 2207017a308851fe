"""Kernel execution backends: the ``reference``/``fused`` registry.

The per-tick cost of the streaming session layer is dominated not by
arithmetic but by dispatch: deriving the open windows, gathering their
state, calling three kernels and scattering the result
(``SessionManager.step``).  This module gives the engine pluggable
*execution backends* for that hot path:

* ``reference`` — the existing NumPy kernels, invoked exactly as before.
  It is the bit-exactness oracle: every other backend must reproduce its
  results bit for bit at every :class:`~repro.core.config.OptimizationLevel`,
  and parity checks select it by name.
* ``fused`` (the default) — one compiled call per session tick.  At
  ``FIXED_POINT`` a C kernel works on the session arena in place: it
  derives each stream's open windows from ``calls_seen``, gathers their
  int64 state, checks tokens and the exactness envelope, embeds, runs the
  stacked gate matmul, the rescale, PLAN sigmoid/softsign activations and
  cell/hidden update, and only then scatters the new state, advances
  ``calls_seen`` and classifies the completed windows.  The kernel is
  built once per model shape with the system compiler; without one the
  engine runs the reference kernels (counted as ``jit_error``).
  Whole-batch inference keeps its BLAS matmul and calls the compiled
  element-wise chain per timestep.
  The float levels keep the reference kernels for the math (their
  ``np.sum`` pairwise reduction is the batch-stability contract).

Why float64 carriers are exact here
-----------------------------------
Every fixed-point value in this model is an integer of magnitude far
below 2**53, so float64 holds it exactly.  The stacked gate accumulation
``[h, x] @ W.T`` is bounded by ``fan_in * max|concat| * max|W|`` (about
2.5e13 for the paper's model — comfortably under 2**53).  Every partial
sum is bounded by the same figure, so the sums are exact integer
arithmetic in any summation order: BLAS dgemm and the compiled tick's
register-blocked loop agree bit for bit.  The rescale-with-rounding, PLAN
sigmoid segments (power-of-two slopes), and softsign division are then
reproduced with float operations whose results are *provably* equal to
the int64 reference ops inside statically-checked operand bounds; the
bounds are screened once at build time, and a runtime cell-magnitude
guard covers the one quantity that grows with stream content.  Outside
the bounds the backend degrades to ``reference`` — gracefully and
in-process, exactly like ``parallel.py``'s pool fallback — counted by
``repro_backend_fallback_total{reason=...}``.

On top of the self-check probe run at construction (the compiled chain
and session tick are compared against the reference kernels on an
adversarial batch, the rescale's half-exact edges and adversarial arenas
before they are ever trusted; once per compiled source and model for
engines sharing one ``HostWeights``), this makes "bit-exact" a
*verified* property on every host, not an assumption.

Fallback reasons
----------------
Each is counted once, when the backend is built, except
``overflow_guard``, which is counted per degraded call.

``jit_error``
    no compiled tier could be built (no C compiler, or every rung of
    the compile ladder failed); reference math.
``unsafe_bounds``
    the model/scale violates a static exactness bound; reference math.
``self_check_failed``
    the compiled tier was rejected: the build-time probe found a
    mismatch vs the reference kernels on this host; reference math.
``overflow_guard``
    a state magnitude crossed the runtime guard mid-run; nothing was
    written, and the session manager re-runs the tick on reference math
    over the same int64 arena rows.

See ``docs/performance.md`` ("The kernel backend registry") and
``docs/observability.md`` for the metric contract.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import weakref

import numpy as np

from repro.cbuild import FALLBACK_JIT_ERROR, FALLBACK_SELF_CHECK, load_c_library
from repro.core.kernels.preprocess import token_range_error
# DEFAULT_BACKEND lives beside EngineConfig.backend, its one consumer;
# it is re-exported here with the registry it names.
from repro.core.config import DEFAULT_BACKEND, GATE_NAMES  # noqa: F401

#: Metric names (documented in docs/observability.md).
METRIC_FALLBACK = "repro_backend_fallback_total"
METRIC_TICKS = "repro_backend_ticks_total"

#: ``repro_backend_fallback_total``'s ``reason`` label values (with
#: ``FALLBACK_JIT_ERROR`` and ``FALLBACK_SELF_CHECK`` from ``repro.cbuild``).
FALLBACK_UNSAFE_BOUNDS = "unsafe_bounds"
FALLBACK_OVERFLOW_GUARD = "overflow_guard"

#: Safety margin for the fused matmul rescale-by-inverse: quotients up to
#: this magnitude keep the float error (~q * 2**-52) at least three
#: decades under both the nudge epsilon and the 1/scale boundary gap.
_MAX_INV_RESCALE_QUOTIENT = 1e8
_INV_RESCALE_EPS = 1e-7

#: Window length of the session-tick self-check's arenas.
_SELF_CHECK_WINDOW = 7

#: Negative returns of the compiled session tick (see ``_render_cc_step``).
_TICK_BAD_TOKEN = -1
_TICK_OVERFLOW = -2

_NO_STREAMS = np.zeros(0, dtype=np.int64)
_NO_PROBABILITIES = np.zeros(0, dtype=np.float64)


class FusedUnavailable(Exception):
    """The fused fixed-point math cannot be built for this engine."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


class FusedOverflow(Exception):
    """A runtime state magnitude crossed the fused exactness guard."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict = {}


def register_backend(name: str, factory) -> None:
    """Register ``factory(engine) -> KernelBackend`` under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> tuple:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str, engine) -> "KernelBackend":
    """Instantiate the backend ``name`` for ``engine``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory(engine)


class KernelBackend:
    """Base class: how an engine executes its per-tick/step math.

    A backend is bound to one loaded engine.  It answers two questions:
    whether it accelerates whole-batch inference (``infer_batch``'s
    timestep loop), and how the session layer should step its slots
    (:meth:`session_stepper`, consumed by
    :class:`~repro.core.sessions.SessionManager`).
    """

    name = "abstract"

    def __init__(self, engine):
        self.engine = engine
        #: Plain counters mirroring ``repro_backend_fallback_total``.
        self.fallback_reasons: dict = {}

    def record_fallback(self, reason: str) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.counter(METRIC_FALLBACK, reason=reason).inc()

    def accelerates_inference(self) -> bool:
        return False

    def infer_probabilities(self, embedded: np.ndarray) -> np.ndarray:
        """Probabilities for an ``(N, T, E)`` embedded batch (fused only)."""
        raise NotImplementedError(f"{self.name} does not accelerate inference")

    def session_stepper(self):
        """The math a :class:`~repro.core.sessions.SessionManager` steps its arena with."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# The fused fixed-point math
# ----------------------------------------------------------------------


class _FusedFixedMath:
    """The fused fixed-point math: the compiled session tick, the compiled
    element-wise chain, and whole-batch inference.

    All quantities are exact integers carried in float64; see the module
    docstring for why the compiled operation set is bit-equal to the int64
    reference kernels inside the statically-checked bounds.  Raises
    :class:`FusedUnavailable` when the bounds fail (``unsafe_bounds``) or
    the C kernels cannot be built (``jit_error``).
    """

    def __init__(self, engine):
        config = engine.config
        quantized = engine.quantized
        if quantized is None:
            raise FusedUnavailable(
                FALLBACK_UNSAFE_BOUNDS, "engine has no quantised weights"
            )
        dims = config.dimensions
        self.hidden_size = dims.hidden_size
        self.fan_in = dims.gate_input_size
        self.scale = int(quantized.fmt.scale)

        stacked = np.concatenate(
            [quantized.gates[g].matrix for g in GATE_NAMES], axis=0
        )
        bias = np.concatenate([quantized.gates[g].bias for g in GATE_NAMES])
        self.W_T = np.ascontiguousarray(stacked.T, dtype=np.float64)  # (F, 4H)
        self.bias = bias.astype(np.float64)                           # (4H,)
        self.fc_w = quantized.fc_weights.astype(np.float64)           # (H,)
        self.fc_bias = float(quantized.fc_bias)

        self._check_static_bounds(engine)
        table = engine.preprocess._embedding_fixed
        self.table = np.ascontiguousarray(table, dtype=np.float64)    # (V, E)
        self._classify = engine.hidden_state.classify_batch

        kernels = _build_cc_step(
            self.hidden_size, dims.embedding_dim, self.scale, _INV_RESCALE_EPS
        )
        if kernels is None:
            raise FusedUnavailable(
                FALLBACK_JIT_ERROR, "the fused C kernels could not be built"
            )
        self._jit, self._tick = kernels
        self._bias_ptr = self.bias.ctypes.data
        self._model = _TickModel(
            self.table.ctypes.data, self.W_T.ctypes.data,
            self._bias_ptr, self.fc_w.ctypes.data, self.fc_bias,
            self.table.shape[0], self.scale, int(self.cell_limit),
        )
        self._model_ptr = ctypes.addressof(self._model)
        self._tick_capacity = 0   # window rows the tick buffers hold
        self._grow_tick_buffers(64)

    # -- static exactness screen ---------------------------------------

    def _check_static_bounds(self, engine) -> None:
        scale = self.scale
        half = float(scale // 2)
        two52 = float(2**52)
        if scale % 32 != 0 or scale > 2**21:
            raise FusedUnavailable(
                FALLBACK_UNSAFE_BOUNDS,
                f"scale {scale} outside the fused exactness envelope "
                "(must divide the PLAN slopes exactly and stay <= 2**21)",
            )
        max_w = float(np.max(np.abs(self.W_T))) if self.W_T.size else 0.0
        max_b = float(np.max(np.abs(self.bias))) if self.bias.size else 0.0
        table = engine.preprocess._embedding_fixed
        max_e = float(np.max(np.abs(table))) if table is not None and table.size else 0.0
        concat_max = max(float(scale), max_e)   # |h| <= scale always
        acc_bound = self.fan_in * concat_max * max_w
        quotient_bound = acc_bound / scale + 1.0
        pre_bound = quotient_bound + max_b
        fc_acc_bound = self.hidden_size * scale * float(
            np.max(np.abs(self.fc_w)) if self.fc_w.size else 0.0
        )
        if (
            acc_bound + half >= 0.5 * two52
            or quotient_bound > _MAX_INV_RESCALE_QUOTIENT
            or pre_bound * scale >= two52
            or fc_acc_bound + half >= 0.5 * two52
        ):
            raise FusedUnavailable(
                FALLBACK_UNSAFE_BOUNDS,
                "weight/embedding magnitudes exceed the float64 exactness "
                f"bounds (accumulator bound {acc_bound:.3g})",
            )
        # Runtime guard on the one unbounded quantity, the cell state:
        # below this, every product, softsign numerator, and rescale
        # division stays provably exact in float64.
        self.cell_limit = float(min(2**31, 2**51 // scale))

    # -- the compiled kernels ------------------------------------------

    def chain(self, pre: np.ndarray, c: np.ndarray) -> tuple:
        """The compiled element-wise chain over ``n`` rows.

        ``pre`` holds the raw ``(n, 4H)`` gate sums (scale**2 products,
        before the rescale and bias) and ``c`` the ``(n, H)`` cell rows,
        both float64 exact integers.  Returns fresh float64
        ``(new_h, new_c)``.

        Raises
        ------
        FusedOverflow
            if any new cell magnitude crosses the exactness guard.
        """
        n = pre.shape[0]
        pre = np.ascontiguousarray(pre, dtype=np.float64)
        c = np.ascontiguousarray(c, dtype=np.float64)
        out_h = np.empty((n, self.hidden_size), dtype=np.float64)
        out_c = np.empty((n, self.hidden_size), dtype=np.float64)
        max_cell = self._jit(pre.ctypes.data, self._bias_ptr, c.ctypes.data,
                             out_h.ctypes.data, out_c.ctypes.data, n)
        if max_cell > self.cell_limit:
            raise FusedOverflow
        return out_h, out_c

    def infer_probabilities(self, embedded: np.ndarray) -> np.ndarray:
        """Whole-sequence probabilities for an ``(N, T, E)`` embedded batch.

        Keeps BLAS for the matmul and calls the C chain per timestep,
        ping-ponging between two state buffers allocated once per batch,
        on pointers looked up once per batch.  The FC head is the
        oracle's ``classify_batch`` on the final int64 hidden rows.
        """
        n, steps, _ = embedded.shape
        H = self.hidden_size
        hidden = np.zeros((2, n, H), dtype=np.float64)
        cell = np.zeros((2, n, H), dtype=np.float64)
        concat = np.empty((n, self.fan_in), dtype=np.float64)
        pre = np.empty((n, 4 * H), dtype=np.float64)
        h_ptrs = (hidden[0].ctypes.data, hidden[1].ctypes.data)
        c_ptrs = (cell[0].ctypes.data, cell[1].ctypes.data)
        pre_ptr, bias_ptr = pre.ctypes.data, self._bias_ptr
        for step in range(steps):
            src = step & 1
            dst = src ^ 1
            concat[:, :H] = hidden[src]
            concat[:, H:] = embedded[:, step, :]
            np.matmul(concat, self.W_T, out=pre)
            max_cell = self._jit(pre_ptr, bias_ptr, c_ptrs[src],
                                 h_ptrs[dst], c_ptrs[dst], n)
            if max_cell > self.cell_limit:
                raise FusedOverflow
        return self._classify(hidden[steps & 1].astype(np.int64))

    def session_tick(self, arena, rows: np.ndarray,
                     token_ids: np.ndarray) -> tuple:
        """One compiled session tick over ``arena`` (a
        :class:`~repro.core.sessions.SessionArena`), in place.

        ``rows`` and ``token_ids`` hold one entry per stepped stream.
        Returns ``(stepped, done, probabilities)``: window rows stepped,
        the indexes into ``rows`` whose window completed, and their
        probabilities.  A bad token raises the embedding kernel's
        ``ValueError`` and a state outside the exactness envelope raises
        :class:`FusedOverflow`; either way nothing was written.
        """
        n = len(rows)
        if n * arena.ring_capacity > self._tick_capacity:
            self._grow_tick_buffers(n * arena.ring_capacity)
        view = arena.kernel_view
        if view is None:
            view = arena.kernel_view = _arena_view(arena)
        ints = self._tick_ints
        ints[:n] = rows
        ints[n:2 * n] = token_ids
        stepped = self._tick(self._model_ptr, view[0], n,
                             self._tick_ints_ptr, self._tick_floats_ptr)
        if stepped < 0:
            if stepped == _TICK_BAD_TOKEN:
                raise token_range_error(
                    int(token_ids[ints.item(2 * n)]), self.table.shape[0]
                )
            raise FusedOverflow
        done = ints.item(2 * n)
        if not done:
            return stepped, _NO_STREAMS, _NO_PROBABILITIES
        return (stepped, ints[2 * n + 1:2 * n + 1 + done].copy(),
                self._tick_floats[:done].copy())

    def _grow_tick_buffers(self, capacity: int) -> None:
        """Work buffers for ``capacity`` window rows (layout: see the C source)."""
        capacity = max(capacity, 2 * self._tick_capacity)
        self._tick_ints = np.empty(1 + 7 * capacity, dtype=np.int64)
        self._tick_floats = np.empty((2 * self.hidden_size + 1) * capacity,
                                     dtype=np.float64)
        self._tick_ints_ptr = self._tick_ints.ctypes.data
        self._tick_floats_ptr = self._tick_floats.ctypes.data
        self._tick_capacity = capacity

    def self_check_key(self) -> bytes:
        """Digest of what the self-check's verdict depends on: the C
        source of the compiled tier, the scale and every weight the fused
        math reads."""
        digest = hashlib.sha256()
        digest.update(_render_cc_step(
            self.hidden_size, self.table.shape[1], self.scale,
            _INV_RESCALE_EPS,
        ).encode())
        digest.update(repr((self.scale, self.fc_bias)).encode())
        for array in (self.W_T, self.bias, self.fc_w, self.table):
            digest.update(array.tobytes())
        return digest.digest()


class _TickModel(ctypes.Structure):
    """The model operands of the compiled session tick (``struct repro_model``)."""

    _fields_ = [
        ("table", ctypes.c_void_p),
        ("w_t", ctypes.c_void_p),
        ("bias", ctypes.c_void_p),
        ("fc_w", ctypes.c_void_p),
        ("fc_bias", ctypes.c_double),
        ("vocab", ctypes.c_int64),
        ("scale", ctypes.c_int64),
        ("cell_limit", ctypes.c_int64),
    ]


class _TickArena(ctypes.Structure):
    """A session arena as the compiled tick sees it (``struct repro_arena``)."""

    _fields_ = [
        ("calls", ctypes.c_void_p),
        ("h", ctypes.c_void_p),
        ("c", ctypes.c_void_p),
        ("stride", ctypes.c_int64),
        ("window", ctypes.c_int64),
        ("ring", ctypes.c_int64),
    ]


def _arena_view(arena) -> tuple:
    """``(address, struct)`` of a :class:`_TickArena` over ``arena``'s arrays."""
    view = _TickArena(
        arena.calls.ctypes.data, arena.h.ctypes.data, arena.c.ctypes.data,
        arena.stride, arena.window_length, arena.ring_capacity,
    )
    return ctypes.addressof(view), view


def _render_cc_step(hidden_size: int, embedding_dim: int, scale: int,
                    eps: float) -> str:
    """The C kernels: the element-wise chain and the whole session tick.

    ``repro_fused_step`` is the element-wise chain over BLAS-computed
    pre-activations (whole-batch inference).  ``repro_session_tick`` is a
    whole session tick on the arena, one call from Python.

    Per row, the chain runs five flat loops (rescale+bias, PLAN sigmoid,
    softsign, cell update, hidden update) instead of one fused scalar
    loop: straight-line branchless float64 bodies that the compiler turns
    into SIMD.  Each loop computes the int64 reference op it replaces
    (``_rounded_scale_division``, ``qsigmoid``, ``qsoftsign``, ``qmul``)
    in float64, in a form proven equal on the fused operand ranges:

    * the matmul rescale multiplies by the inverse scale and nudges by
      ``eps`` (quotients screened statically below
      ``_MAX_INV_RESCALE_QUOTIENT``, so the nudge absorbs the
      inverse-multiply rounding without crossing a 1/scale gap);
    * the PLAN segment select uses arithmetic masks with exact
      power-of-two slope deltas and integer intercept deltas (``scale``
      divisible by 32, screened statically);
    * the state-product rescale replaces the true division by a
      reciprocal-multiply guess corrected with exact integer products
      (operands < 2**53, so the correction comparisons are exact and the
      result equals the floored true quotient).

    The sign/zero handling folds into ``half + copysign(r - half, x)``:
    for ``x == 0`` the magnitude path yields exactly ``half``, so no
    zero branch is needed.  The self-check feeds the rescale's half-exact
    edges through the chain, where a rounding bug would hide from random
    inputs.  The tick's gate matmul accumulates 32 output
    columns in registers per row (``BLOCK``); under the static
    accumulator screen every partial sum is an exact integer, so it
    equals BLAS in any order.
    """
    half = float(scale // 2)
    fscale = float(scale)
    inv = 1.0 / fscale
    q1, q2, q3 = fscale, 2.375 * fscale, 5.0 * fscale
    i1, i2, i3 = 0.5 * fscale, 0.625 * fscale, 0.84375 * fscale
    block = math.gcd(4 * hidden_size, 32)
    # Window rows per chunk: an even count whose stack buffers stay near
    # 64 KiB (32 at the paper's H = 32).
    row_doubles = 6 * hidden_size + embedding_dim
    chunk = max(2, min(32, 8192 // row_doubles) & ~1)
    return f'''
#include <math.h>
#include <stdint.h>

#define H {hidden_size}
#define E {embedding_dim}
#define F (H + E)
#define G (4 * H)
#define BLOCK {block}
#define CHUNK {chunk}
#define TICK_BAD_TOKEN ({_TICK_BAD_TOKEN})
#define TICK_OVERFLOW ({_TICK_OVERFLOW})

/* One row of the chain: raw pre-activations p (4H sums of scale**2
   products) and cell row cr -> hidden row hr and cell row ocr.
   Returns the row's largest new |cell|.  Kept out of line (as is
   gate_pair): inlined into both callers it compiles slower and runs no
   faster. */
__attribute__((noinline)) static double chain_row(const double *restrict p,
                                          const double *restrict bias,
                                          const double *restrict cr,
                                          double *restrict hr,
                                          double *restrict ocr)
{{
    double max_cell = 0.0;
    double v[G];
    double g[G];
    for (int64_t k = 0; k < G; ++k) {{
        double t = floor((fabs(p[k]) + {half!r}) * {inv!r} + {eps!r});
        v[k] = copysign(t, p[k]) + bias[k];
    }}
    for (int64_t k = 0; k < 3 * H; ++k) {{
        double m = fabs(v[k]);
        double b1 = (double)(m >= {q1!r});
        double b2 = (double)(m >= {q2!r});
        double b3 = (double)(m >= {q3!r});
        double slope = 0.25 - 0.125 * b1 - 0.09375 * b2 - 0.03125 * b3;
        double icept = {i1!r} + {i2 - i1!r} * b1 + {i3 - i2!r} * b2
                       + {fscale - i3!r} * b3;
        double r = floor(m * slope + 0.5) + icept;
        g[k] = {half!r} + copysign(r - {half!r}, v[k]);
    }}
    for (int64_t k = 0; k < H; ++k) {{
        double x = v[3 * H + k];
        double num = x * {fscale!r};
        double den = fabs(x) + {fscale!r};
        double mag = fabs(num);
        double q = floor(mag / den);
        double r = mag - q * den;
        q += (double)(r >= den - floor(den * 0.5));
        g[3 * H + k] = copysign(q, x);
    }}
    for (int64_t k = 0; k < H; ++k) {{
        double a = g[H + k] * cr[k];
        double na = fabs(a) + {half!r};
        double qa = floor(na * {inv!r});
        qa += (double)((qa + 1.0) * {fscale!r} <= na);
        qa -= (double)(qa * {fscale!r} > na);
        double b = g[k] * g[3 * H + k];
        double nb = fabs(b) + {half!r};
        double qb = floor(nb * {inv!r});
        qb += (double)((qb + 1.0) * {fscale!r} <= nb);
        qb -= (double)(qb * {fscale!r} > nb);
        double nc = copysign(qa, a) + copysign(qb, b);
        max_cell = fmax(max_cell, fabs(nc));
        ocr[k] = nc;
        v[k] = nc;
    }}
    for (int64_t k = 0; k < H; ++k) {{
        double x = v[k];
        double num = x * {fscale!r};
        double den = fabs(x) + {fscale!r};
        double mag = fabs(num);
        double q = floor(mag / den);
        double r = mag - q * den;
        q += (double)(r >= den - floor(den * 0.5));
        double o = g[2 * H + k] * copysign(q, x);
        double no = fabs(o) + {half!r};
        double qo = floor(no * {inv!r});
        qo += (double)((qo + 1.0) * {fscale!r} <= no);
        qo -= (double)(qo * {fscale!r} > no);
        hr[k] = copysign(qo, o);
    }}
    return max_cell;
}}

double repro_fused_step(const double *restrict pre, const double *restrict bias,
                        const double *restrict c, double *restrict out_h,
                        double *restrict out_c, int64_t n)
{{
    double max_cell = 0.0;
    for (int64_t row = 0; row < n; ++row)
        max_cell = fmax(max_cell, chain_row(pre + row * G, bias, c + row * H,
                                            out_h + row * H, out_c + row * H));
    return max_cell;
}}

struct repro_model {{
    const double *table;    /* (vocab, E) embedding rows, exact integers */
    const double *w_t;      /* (F, G) stacked gate weights, transposed */
    const double *bias;     /* (G) */
    const double *fc_w;     /* (H) */
    double fc_bias;
    int64_t vocab;
    int64_t scale;          /* input envelope: |h| <= scale */
    int64_t cell_limit;     /* input envelope and guard: |c| <= cell_limit */
}};

/* FC head + PLAN sigmoid of one hidden row, as a probability. */
static double classify_row(const struct repro_model *m,
                           const double *restrict hr)
{{
    double dot = 0.0;
    for (int64_t k = 0; k < H; ++k)
        dot += hr[k] * m->fc_w[k];
    double logit = copysign(floor((fabs(dot) + {half!r}) / {fscale!r}), dot)
                   + m->fc_bias;
    double mag = fabs(logit);
    double r;
    if (mag < {q1!r})
        r = floor(mag * 0.25 + 0.5) + {i1!r};
    else if (mag < {q2!r})
        r = floor(mag * 0.125 + 0.5) + {i2!r};
    else if (mag < {q3!r})
        r = floor(mag * 0.03125 + 0.5) + {i3!r};
    else
        r = {fscale!r};
    if (logit < 0)
        r = {fscale!r} - r;
    if (logit == 0)
        r = {half!r};
    return r / {fscale!r};
}}

/* The arena of one session manager: calls (rows,), h/c (rows, ring, H). */
struct repro_arena {{
    int64_t *calls;
    int64_t *h;
    int64_t *c;
    int64_t stride;
    int64_t window;
    int64_t ring;
}};

/* Gate matmul accumulate.  Every product and partial sum is an exact
   integer below 2**53 (the static accumulator screen), so a fused
   multiply-add rounds nothing either, and both forms give BLAS's sums. */
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
#define MAC(acc, x, w) fma((x), (w), (acc))
#else
#define MAC(acc, x, w) ((acc) + (x) * (w))
#endif

/* pre[r] = concat[r] . W^T for rows r and r + 1, BLOCK output columns
   at a time, the accumulators in registers. */
__attribute__((noinline)) static void gate_pair(const double *restrict w_t,
                                        const double *restrict x0,
                                        const double *restrict x1,
                                        double *restrict p0,
                                        double *restrict p1)
{{
    for (int64_t j0 = 0; j0 < G; j0 += BLOCK) {{
        double a0[BLOCK], a1[BLOCK];
        for (int64_t j = 0; j < BLOCK; ++j)
            a0[j] = a1[j] = 0.0;
        for (int64_t k = 0; k < F; ++k) {{
            const double *restrict wk = w_t + k * G + j0;
            for (int64_t j = 0; j < BLOCK; ++j) {{
                a0[j] = MAC(a0[j], x0[k], wk[j]);
                a1[j] = MAC(a1[j], x1[k], wk[j]);
            }}
        }}
        for (int64_t j = 0; j < BLOCK; ++j) {{
            p0[j0 + j] = a0[j];
            p1[j0 + j] = a1[j];
        }}
    }}
}}

/* One session tick: the n streams ints[0, n) of arena a receive the
   tokens ints[n, 2n).  Returns the number of window rows stepped, or
   TICK_BAD_TOKEN (ints[2n] = the first bad stream) or TICK_OVERFLOW; on
   a negative return nothing was written to the arena.

   ints (1 + 7 n ring int64): rows, tokens, then [2n] the completed
   windows' count, their streams (n) and window rows (n), then per window
   row its ring slot, stream and freshness.  floats ((2H + 1) n ring
   double): [0, n) the completed windows' probabilities, then new h and
   new c per window row. */
int64_t repro_session_tick(const struct repro_model *m,
                           const struct repro_arena *a, int64_t n,
                           int64_t *restrict ints, double *restrict floats)
{{
    const int64_t stride = a->stride, window = a->window, ring = a->ring;
    int64_t *restrict calls = a->calls;
    int64_t *restrict h = a->h;
    int64_t *restrict c = a->c;
    const int64_t cap = n * ring;
    const int64_t *restrict rows = ints;
    const int64_t *restrict tokens = ints + n;
    int64_t *restrict done = ints + 2 * n + 1;
    int64_t *restrict done_at = done + n;
    int64_t *restrict slot = done_at + n;
    int64_t *restrict owner = slot + cap;
    int64_t *restrict fresh = owner + cap;
    double *restrict prob = floats;
    double *restrict new_h = floats + n;
    double *restrict new_c = new_h + cap * H;

    for (int64_t i = 0; i < n; ++i) {{
        if (tokens[i] < 0 || tokens[i] >= m->vocab) {{
            ints[2 * n] = i;
            return TICK_BAD_TOKEN;
        }}
    }}

    /* Window layout: the starts are multiples of stride; window start
       s lives in ring slot (s / stride) % ring, oldest first. */
    int64_t live = 0, completed = 0;
    for (int64_t i = 0; i < n; ++i) {{
        const int64_t row = rows[i], seen = calls[row];
        const int64_t newest = seen / stride;
        const int64_t oldest = newest - ring + 1 > 0 ? newest - ring + 1 : 0;
        for (int64_t index = oldest; index <= newest; ++index) {{
            const int64_t filled = seen - index * stride;
            if (filled >= window)
                continue;
            if (filled == window - 1) {{
                done[completed] = i;
                done_at[completed++] = live;
            }}
            slot[live] = row * ring + index % ring;
            owner[live] = i;
            fresh[live++] = filled == 0;
        }}
    }}

    /* Gather (fresh windows start from zero), check the input envelope,
       embed, matmul and chain, CHUNK window rows at a time. */
    const int64_t scale = m->scale, limit = m->cell_limit;
    double max_cell = 0.0;
    for (int64_t base = 0; base < live; base += CHUNK) {{
        const int64_t count = live - base < CHUNK ? live - base : CHUNK;
        double concat[CHUNK + 1][F];   /* + a zero row pairing an odd tail */
        double cell[CHUNK][H];
        double pre[CHUNK + 1][G];
        for (int64_t r = 0; r < count; ++r) {{
            const int64_t w = base + r;
            const int64_t keep = !fresh[w];
            const int64_t *restrict hs = h + slot[w] * H;
            const int64_t *restrict cs = c + slot[w] * H;
            int64_t outside = 0;
            for (int64_t k = 0; k < H; ++k) {{
                const int64_t hv = keep ? hs[k] : 0;
                const int64_t cv = keep ? cs[k] : 0;
                outside |= (hv > scale) | (hv < -scale)
                           | (cv > limit) | (cv < -limit);
                concat[r][k] = (double)hv;
                cell[r][k] = (double)cv;
            }}
            if (outside)
                return TICK_OVERFLOW;
            const double *restrict x = m->table + tokens[owner[w]] * E;
            for (int64_t e = 0; e < E; ++e)
                concat[r][H + e] = x[e];
        }}
        for (int64_t k = 0; k < F; ++k)
            concat[count][k] = 0.0;
        for (int64_t r = 0; r < count; r += 2)
            gate_pair(m->w_t, concat[r], concat[r + 1], pre[r], pre[r + 1]);
        for (int64_t r = 0; r < count; ++r)
            max_cell = fmax(max_cell,
                            chain_row(pre[r], m->bias, cell[r],
                                      new_h + (base + r) * H,
                                      new_c + (base + r) * H));
    }}
    if (max_cell > (double)limit)
        return TICK_OVERFLOW;

    /* Every check passed: scatter, advance, classify. */
    for (int64_t w = 0; w < live; ++w) {{
        int64_t *restrict hs = h + slot[w] * H;
        int64_t *restrict cs = c + slot[w] * H;
        for (int64_t k = 0; k < H; ++k) {{
            hs[k] = (int64_t)new_h[w * H + k];
            cs[k] = (int64_t)new_c[w * H + k];
        }}
    }}
    for (int64_t i = 0; i < n; ++i)
        calls[rows[i]] += 1;
    for (int64_t d = 0; d < completed; ++d)
        prob[d] = classify_row(m, new_h + done_at[d] * H);
    ints[2 * n] = completed;
    return live;
}}
'''


def _build_cc_step(hidden_size: int, embedding_dim: int, scale: int,
                   eps: float):
    """The compiled ``(step, tick)`` ctypes functions, or ``None``.

    Compiled once per ``(hidden_size, embedding_dim, scale)`` and cached
    by :func:`repro.cbuild.load_c_library`, which pins
    ``-ffp-contract=off`` at every rung.  The build-time self-check
    verifies both kernels against the reference on the live weights.
    Both take raw data pointers (``ndarray.ctypes.data``), so callers
    look them up once per buffer.  ``None`` when the host cannot build
    them; the engine then records ``jit_error`` and runs reference math.
    """
    library = load_c_library(
        _render_cc_step(hidden_size, embedding_dim, scale, eps)
    )
    if library is None:
        return None
    step = library.repro_fused_step
    step.restype = ctypes.c_double
    step.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64]
    tick = library.repro_session_tick
    tick.restype = ctypes.c_int64
    tick.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
    return step, tick


# ----------------------------------------------------------------------
# Build-time self-check
# ----------------------------------------------------------------------


#: Self-check keys (:meth:`_FusedFixedMath.self_check_key`) that passed,
#: per ``HostWeights`` object.  A fleet builds one engine per drive from
#: one weights object (``build_fleet``), and the verdict depends only on
#: the compiled source and the model, so the fleet checks once.
_PASSED_SELF_CHECKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _self_check_once(engine, math_impl: _FusedFixedMath) -> None:
    """:func:`_self_check`, skipped when the same key already passed for
    the engine's weights object."""
    passed = _PASSED_SELF_CHECKS.setdefault(engine.weights, set())
    key = math_impl.self_check_key()
    if key not in passed:
        _self_check(engine, math_impl)
        passed.add(key)


def _self_check(engine, math_impl: _FusedFixedMath) -> None:
    """Verify the compiled kernels against the reference kernels on this host.

    Runs an adversarial batch (boundary-hugging cells, random hiddens,
    random tokens) through the BLAS matmul and :meth:`_FusedFixedMath.chain`
    and through the reference ``gates.run_batch`` +
    ``hidden_state.step_batch``, then the rescale edge probe
    (:func:`_self_check_rescale_edges`) and the session tick
    (:func:`_self_check_tick`); any bit difference raises
    ``AssertionError``.
    """
    dims = engine.config.dimensions
    H = dims.hidden_size
    scale = math_impl.scale
    rng = np.random.default_rng(0xC0FFEE)
    n = 48
    h = rng.integers(-scale, scale + 1, size=(n, H), dtype=np.int64)
    c = rng.integers(-60 * scale, 60 * scale + 1, size=(n, H), dtype=np.int64)
    limit = int(math_impl.cell_limit)
    c[0] = limit - scale
    c[1] = -(limit - scale)
    c[2] = 0
    tokens = rng.integers(0, dims.vocab_size, size=n, dtype=np.int64)

    embedded = engine.preprocess.run_batch(tokens)
    ref_gates = engine.gates.run_batch(h, embedded)
    ref_h, ref_c = engine.hidden_state.step_batch(ref_gates, c)

    pre = np.concatenate([h, embedded], axis=1).astype(np.float64) @ math_impl.W_T
    got_h, got_c = math_impl.chain(pre, c)
    assert np.array_equal(got_h, ref_h.astype(np.float64)), "hidden mismatch"
    assert np.array_equal(got_c, ref_c.astype(np.float64)), "cell mismatch"

    _self_check_rescale_edges(engine, math_impl)
    _self_check_tick(engine, math_impl)


def _self_check_rescale_edges(engine, math_impl: _FusedFixedMath) -> None:
    """Feed the rescale's half-exact edges through the compiled chain.

    A rounding-mode bug hides from random inputs, so the probe builds
    ``pre`` rows from the values ``k*scale ± half`` (and their
    neighbours): every edge lands in every gate column, which covers the
    matmul rescale.  A second block pins the i/f/o gates at exactly one
    half and holds odd cells, so the state products ``f*c`` (and many
    ``i*c'`` and ``o*softsign(c)``) are half-exact too, which covers the
    product rescale.  The expected rows come from the int64 reference
    ops: ``_rounded_scale_division`` plus the bias, ``qsigmoid`` and
    ``qsoftsign`` per gate, and ``hidden_state.step_batch`` (``qmul``).
    """
    from repro.core.kernels.gates import GATE_ACTIVATIONS
    from repro.fixedpoint.activations import qsigmoid, qsoftsign
    from repro.fixedpoint.ops import _rounded_scale_division

    H = math_impl.hidden_size
    scale = math_impl.scale
    half = scale // 2
    ks = np.array([0, 1, 2, 3, 7, 1000, 10**7], dtype=np.int64)
    edges = np.concatenate([
        ks * scale - half, ks * scale + half, ks * scale + half - 1,
        -(ks * scale - half), -(ks * scale + half), ks,
    ])
    odd = np.concatenate([2 * ks + 1, -(2 * ks + 1)])
    rows = np.arange(len(edges))[:, None]
    pre = edges[(rows + np.arange(4 * H)) % len(edges)]
    cell = odd[(rows + np.arange(H)) % len(odd)]
    bias = math_impl.bias.astype(np.int64)
    halves = pre.copy()
    halves[:, :3 * H] = -bias[:3 * H] * scale   # rescales to -bias: gate = half
    pre = np.concatenate([pre, halves])
    cell = np.concatenate([cell, cell])

    fmt = engine.quantized.fmt
    rescaled = _rounded_scale_division(pre, scale) + bias
    activate = {"sigmoid": qsigmoid, "softsign": qsoftsign}
    gates = {
        gate: activate[GATE_ACTIVATIONS[gate]](rescaled[:, k * H:(k + 1) * H], fmt)
        for k, gate in enumerate(GATE_NAMES)
    }
    ref_h, ref_c = engine.hidden_state.step_batch(gates, cell)
    got_h, got_c = math_impl.chain(pre.astype(np.float64), cell)
    assert np.array_equal(got_h, ref_h.astype(np.float64)), "rescale edge hidden mismatch"
    assert np.array_equal(got_c, ref_c.astype(np.float64)), "rescale edge cell mismatch"


def _self_check_tick(engine, math_impl: _FusedFixedMath) -> None:
    """Verify the compiled session tick against the oracle's tick.

    One adversarial arena per stride in ``(1, 3, window)``: streams with a
    fresh first window, a completing first window, and wrapped rings
    (``calls_seen`` many ring lengths in, some completing a window).
    Every ring slot holds arbitrary in-envelope state that fresh windows
    must ignore, and two wrapped streams hold cells at
    ±(``cell_limit`` − scale).
    Both ticks must return the same results and leave every arena byte
    equal; any difference raises ``AssertionError``.

    The tick takes the window layout at run time, so a short window
    exercises the same code as the engine's and keeps the oracle's work
    (and every engine build) small; stride 1 still spans two chunks.
    """
    from repro.core.sessions import ReferenceStepper, SessionArena

    dims = engine.config.dimensions
    window = _SELF_CHECK_WINDOW
    H = math_impl.hidden_size
    scale = math_impl.scale
    edge = int(math_impl.cell_limit) - scale
    rng = np.random.default_rng(0x7C1C)
    oracle = ReferenceStepper(engine)
    for stride in sorted({1, 3, window}):
        lap = -(-window // stride) * stride   # tokens per ring wraparound
        seen = [
            0, 1, window - 1, 5 * lap + 1, 5 * lap + window - 1,
            9 * lap + 2 * stride + window - 1, int(rng.integers(12 * window)),
        ]
        n = len(seen)
        arenas = [SessionArena(window, stride, H, np.int64) for _ in range(2)]
        shape = (n,) + arenas[0].h.shape[1:]
        h = rng.integers(-scale, scale + 1, size=shape, dtype=np.int64)
        c = rng.integers(-60 * scale, 60 * scale + 1, size=shape,
                         dtype=np.int64)
        c[3], c[4] = edge, -edge
        tokens = rng.integers(0, dims.vocab_size, size=n, dtype=np.int64)
        for arena in arenas:
            rows = np.array([arena.new_row(calls) for calls in seen],
                            dtype=np.int64)
            arena.h[rows] = h
            arena.c[rows] = c
        got = math_impl.session_tick(arenas[0], rows, tokens)
        want = oracle.step_rows(arenas[1], rows, tokens)
        assert got[0] == want[0], "session tick row count mismatch"
        assert np.array_equal(got[1], want[1]), "session tick done mismatch"
        assert np.array_equal(got[2], want[2]), "session tick probability mismatch"
        for name in ("calls", "h", "c"):
            assert np.array_equal(getattr(arenas[0], name),
                                  getattr(arenas[1], name)), (
                f"session tick {name} mismatch"
            )


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class ReferenceBackend(KernelBackend):
    """The existing NumPy kernels, exactly as the session layer shipped."""

    name = "reference"

    def session_stepper(self):
        from repro.core.sessions import ReferenceStepper

        return ReferenceStepper(self.engine)


class FusedBackend(KernelBackend):
    """One compiled call per session tick over the session arena.

    At ``FIXED_POINT`` the math is the compiled float64 pass (bit-exact
    by static bounds + build-time self-check + runtime envelope and cell
    guards).  At the float levels the reference kernels keep doing the
    math — their pairwise-sum reduction *is* the batch-stability
    contract.  A missing compiler or any exactness obstacle degrades to
    reference math in-process, counted once in
    ``repro_backend_fallback_total``.
    """

    name = "fused"

    def __init__(self, engine):
        super().__init__(engine)
        self._math: _FusedFixedMath | None = None
        if not engine.config.optimization.uses_fixed_point:
            return  # float levels: reference math
        try:
            math_impl = _FusedFixedMath(engine)
        except FusedUnavailable as unavailable:
            self.record_fallback(unavailable.reason)
            return
        try:
            _self_check_once(engine, math_impl)
        except AssertionError:
            self.record_fallback(FALLBACK_SELF_CHECK)
            return
        self._math = math_impl

    @property
    def fused_math(self) -> _FusedFixedMath | None:
        return self._math

    @property
    def accel_tier(self) -> str | None:
        """``cc`` when the compiled kernels run, ``None`` on reference math."""
        return "cc" if self._math is not None else None

    def accelerates_inference(self) -> bool:
        return self._math is not None

    def infer_probabilities(self, embedded: np.ndarray) -> np.ndarray:
        """Fused timestep loop over an ``(N, T, E)`` embedded batch."""
        if self._math is None:
            raise RuntimeError(
                "fused inference unavailable; check accelerates_inference()"
            )
        return self._math.infer_probabilities(embedded)

    def session_stepper(self):
        from repro.core.sessions import FusedStepper, ReferenceStepper

        if self._math is None:
            # Float levels, or degraded at build: the reference math.
            return ReferenceStepper(self.engine)
        return FusedStepper(self._math)


register_backend(ReferenceBackend.name, ReferenceBackend)
register_backend(FusedBackend.name, FusedBackend)
