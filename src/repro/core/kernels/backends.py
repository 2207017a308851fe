"""Kernel execution backends: the ``reference``/``fused`` registry.

The per-tick cost of the streaming session layer is dominated not by
arithmetic but by Python dispatch: building per-slot row lists, stacking
them, and calling three kernels per tick (``SessionManager.step``).  This
module gives the engine pluggable *execution backends* for that hot path:

* ``reference`` — the existing NumPy kernels, invoked exactly as before.
  It is the bit-exactness oracle: every other backend must reproduce its
  results bit for bit at every :class:`~repro.core.config.OptimizationLevel`,
  and parity checks select it by name.
* ``fused`` (the default) — one precompiled step per tick.  At
  ``FIXED_POINT`` the embedding lookup, stacked gate matmul, rescale,
  PLAN sigmoid/softsign activations, cell/hidden update, and FC head all
  execute as a single fused pass over ``(N, H)`` float64 state rows
  gathered from the session arena — no per-kernel dispatch, no int64
  temporaries.  The element-wise chain runs as a
  small C kernel built once per model shape with the system compiler,
  else as a vectorised NumPy formulation of the same arithmetic (still
  fused, still bit-exact).  The float levels keep the reference kernels
  for the math (their ``np.sum`` pairwise reduction is the
  batch-stability contract).

Why float64 carriers are exact here
-----------------------------------
Every fixed-point value in this model is an integer of magnitude far
below 2**53, so float64 holds it exactly.  The stacked gate accumulation
``[h, x] @ W.T`` is bounded by ``fan_in * max|concat| * max|W|`` (about
2.5e13 for the paper's model — comfortably under 2**53), so BLAS dgemm
sums are exact integer arithmetic.  The rescale-with-rounding, PLAN
sigmoid segments (power-of-two slopes), and softsign division are then
reproduced with float operations whose results are *provably* equal to
the int64 reference ops inside statically-checked operand bounds; the
bounds are screened once at build time, and a runtime cell-magnitude
guard covers the one quantity that grows with stream content.  Outside
the bounds the backend degrades to ``reference`` — gracefully and
in-process, exactly like ``parallel.py``'s pool fallback — counted by
``repro_backend_fallback_total{reason=...}``.

On top of the self-check probe run at construction (the fused tick is
compared against the reference kernels on an adversarial batch before it
is ever trusted), this makes "bit-exact" a *verified* property on every
host, not an assumption.

Fallback reasons
----------------
``jit_error``
    the C step could not be built, or it failed the self-check; the
    NumPy fused path runs instead (still fused, still fast — a
    degradation of degree only).
``unsafe_bounds``
    the model/scale violates a static exactness bound; reference math.
``self_check_failed``
    the build-time probe found a mismatch vs the reference kernels on
    this host; reference math.
``overflow_guard``
    a state magnitude crossed the runtime guard mid-run; the session
    manager converts its state and continues on reference math.

See ``docs/performance.md`` ("The kernel backend registry") and
``docs/observability.md`` for the metric contract.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.cbuild import load_c_library
# DEFAULT_BACKEND lives beside EngineConfig.backend, its one consumer;
# it is re-exported here with the registry it names.
from repro.core.config import DEFAULT_BACKEND, GATE_NAMES  # noqa: F401

#: Metric names (documented in docs/observability.md).
METRIC_FALLBACK = "repro_backend_fallback_total"
METRIC_TICKS = "repro_backend_ticks_total"

#: ``repro_backend_fallback_total``'s ``reason`` label values.
FALLBACK_JIT_ERROR = "jit_error"
FALLBACK_UNSAFE_BOUNDS = "unsafe_bounds"
FALLBACK_SELF_CHECK = "self_check_failed"
FALLBACK_OVERFLOW_GUARD = "overflow_guard"

#: Safety margin for the fused matmul rescale-by-inverse: quotients up to
#: this magnitude keep the float error (~q * 2**-52) at least three
#: decades under both the nudge epsilon and the 1/scale boundary gap.
_MAX_INV_RESCALE_QUOTIENT = 1e8
_INV_RESCALE_EPS = 1e-7


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
    """The precompiled fixed-point tick over ``(n, H)`` float64 rows.

    All quantities are exact integers carried in float64; see the module
    docstring for why the operation set below is bit-equal to the int64
    reference kernels inside the statically-checked bounds.
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
        fmt = quantized.fmt
        self.scale = int(fmt.scale)
        self.fscale = float(self.scale)
        self.half = float(self.scale // 2)
        self.inv_scale = 1.0 / self.fscale

        stacked = np.concatenate(
            [quantized.gates[g].matrix for g in GATE_NAMES], axis=0
        )
        bias = np.concatenate([quantized.gates[g].bias for g in GATE_NAMES])
        self.W_T = np.ascontiguousarray(stacked.T, dtype=np.float64)  # (F, 4H)
        self.bias = bias.astype(np.float64)                           # (4H,)
        self.fc_w = quantized.fc_weights.astype(np.float64)           # (H,)
        self.fc_bias = float(quantized.fc_bias)

        self._check_static_bounds(engine)

        # PLAN sigmoid constants (power-of-two slopes; exact products).
        s = self.fscale
        self.q1, self.q2, self.q3 = s, 2.375 * s, 5.0 * s
        self.i1, self.i2, self.i3 = 0.5 * s, 0.625 * s, 0.84375 * s
        f32 = np.float32
        self.f32_q1, self.f32_q2, self.f32_q3 = f32(self.q1), f32(self.q2), f32(self.q3)
        self.f32_i1, self.f32_i2, self.f32_i3 = f32(self.i1), f32(self.i2), f32(self.i3)
        self.f32_one, self.f32_half = f32(s), f32(self.half)

        self._concat: dict = {}  # batch size -> (n, F) work buffer
        self._jit = _build_cc_step(
            self.hidden_size, self.scale, _INV_RESCALE_EPS
        )
        self.accel_tier = "cc" if self._jit is not None else None

    # -- static exactness screen ---------------------------------------

    def _check_static_bounds(self, engine) -> None:
        scale = self.scale
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
            acc_bound + self.half >= 0.5 * two52
            or quotient_bound > _MAX_INV_RESCALE_QUOTIENT
            or pre_bound * scale >= two52
            or fc_acc_bound + self.half >= 0.5 * two52
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

    # -- primitive ops (each bit-equal to its int64 reference op) ------

    def _frdiv_inv(self, x: np.ndarray) -> np.ndarray:
        """Rescale by multiply-with-inverse (matmul results only).

        Valid for quotients up to ``_MAX_INV_RESCALE_QUOTIENT`` (screened
        statically): the epsilon nudge absorbs the inverse-multiply
        rounding without ever crossing a 1/scale boundary gap.
        """
        t = np.abs(x)
        t += self.half
        t *= self.inv_scale
        t += _INV_RESCALE_EPS
        np.floor(t, out=t)
        return np.copysign(t, x, out=t)

    def _frdiv_div(self, x: np.ndarray) -> np.ndarray:
        """Rescale with true division (state products, FC head)."""
        t = np.abs(x)
        t += self.half
        t /= self.fscale
        np.floor(t, out=t)
        return np.copysign(t, x, out=t)

    def _sigmoid_f32(self, x: np.ndarray) -> np.ndarray:
        """PLAN sigmoid in float32 (gate pre-activations are f32-exact)."""
        x32 = x.astype(np.float32)
        mag = np.abs(x32)
        f32 = np.float32
        s1 = np.floor(mag * f32(0.25) + f32(0.5)) + self.f32_i1
        s2 = np.floor(mag * f32(0.125) + f32(0.5)) + self.f32_i2
        s3 = np.floor(mag * f32(0.03125) + f32(0.5)) + self.f32_i3
        res = np.where(
            mag < self.f32_q1, s1,
            np.where(mag < self.f32_q2, s2,
                     np.where(mag < self.f32_q3, s3, self.f32_one)),
        )
        res = np.where(x32 < 0, self.f32_one - res, res)
        return np.where(x32 == 0, self.f32_half, res)

    def _sigmoid_f64(self, x: np.ndarray) -> np.ndarray:
        """PLAN sigmoid in float64 (FC head)."""
        mag = np.abs(x)
        s1 = np.floor(mag * 0.25 + 0.5) + self.i1
        s2 = np.floor(mag * 0.125 + 0.5) + self.i2
        s3 = np.floor(mag * 0.03125 + 0.5) + self.i3
        res = np.where(
            mag < self.q1, s1,
            np.where(mag < self.q2, s2, np.where(mag < self.q3, s3, self.fscale)),
        )
        res = np.where(x < 0, self.fscale - res, res)
        return np.where(x == 0, self.half, res)

    def _softsign(self, x: np.ndarray) -> np.ndarray:
        """Fixed-point softsign ``x*S / (|x| + S)`` with remainder rounding."""
        num = x * self.fscale
        den = np.abs(x) + self.fscale
        mag = np.abs(num)
        quotient = np.floor(mag / den)
        remainder = mag - quotient * den
        quotient += remainder >= den - np.floor(den * 0.5)
        return np.copysign(quotient, x)

    # -- the fused tick ------------------------------------------------

    def _concat_buffer(self, n: int) -> np.ndarray:
        buffer = self._concat.get(n)
        if buffer is None:
            if len(self._concat) > 16:
                self._concat.clear()
            buffer = np.empty((n, self.fan_in), dtype=np.float64)
            self._concat[n] = buffer
        return buffer

    def step_rows(self, h: np.ndarray, c: np.ndarray,
                  x_rows: np.ndarray) -> tuple:
        """One LSTM step over ``(n, H)`` state rows.

        Parameters
        ----------
        h, c:
            Hidden/cell rows, float64 ``(n, H)`` exact integers.
        x_rows:
            Embedded tokens, int64 ``(n, E)`` (one row per state row).

        Returns
        -------
        tuple
            ``(new_h, new_c)`` — fresh float64 ``(n, H)`` arrays.

        Raises
        ------
        FusedOverflow
            if any new cell magnitude crosses the exactness guard; the
            inputs are left unmodified so the caller can re-run the tick
            on the reference path.
        """
        H = self.hidden_size
        n = h.shape[0]
        concat = self._concat_buffer(n)
        concat[:, :H] = h
        concat[:, H:] = x_rows
        pre = concat @ self.W_T                        # raw scale**2 products
        if self._jit is not None:
            out_h = np.empty((n, H), dtype=np.float64)
            out_c = np.empty((n, H), dtype=np.float64)
            max_cell = self._jit(pre, self.bias, c, out_h, out_c)
            if max_cell > self.cell_limit:
                raise FusedOverflow
            return out_h, out_c
        pre = self._frdiv_inv(pre)
        pre += self.bias
        act = self._sigmoid_f32(pre[:, : 3 * H])       # i/f/o gates, f32 ints
        c_bar = self._softsign(pre[:, 3 * H:])
        new_c = self._frdiv_div(act[:, H: 2 * H] * c)
        new_c += self._frdiv_div(act[:, :H] * c_bar)
        if float(np.max(np.abs(new_c), initial=0.0)) > self.cell_limit:
            raise FusedOverflow
        new_h = self._frdiv_div(act[:, 2 * H:] * self._softsign(new_c))
        return new_h, new_c

    def classify_rows(self, h: np.ndarray) -> np.ndarray:
        """FC head + PLAN sigmoid over ``(n, H)`` hidden rows."""
        logits = self._frdiv_div(h @ self.fc_w)
        logits += self.fc_bias
        return self._sigmoid_f64(logits) / self.fscale

    def disable_jit(self) -> None:
        self._jit = None
        self.accel_tier = None


def _render_cc_step(hidden_size: int, scale: int, eps: float) -> str:
    """The C tick chain: same ops, formulated for auto-vectorisation.

    Per row, five flat loops (rescale+bias, PLAN sigmoid, softsign, cell
    update, hidden update) instead of one fused scalar loop: straight-line
    branchless float64 bodies that the compiler turns into SIMD.  Two
    formulations differ *syntactically* from the NumPy path but are
    proven equal on the fused operand ranges:

    * the PLAN segment select uses arithmetic masks with exact
      power-of-two slope deltas and integer intercept deltas (``scale``
      divisible by 32, screened statically);
    * ``frd_div`` replaces the true division by a reciprocal-multiply
      guess corrected with exact integer products (operands < 2**53, so
      the correction comparisons are exact and the result equals the
      floored true quotient).

    The sign/zero handling folds into ``half + copysign(r - half, x)``:
    for ``x == 0`` the magnitude path yields exactly ``half``, so no
    zero branch is needed.
    """
    half = float(scale // 2)
    fscale = float(scale)
    inv = 1.0 / fscale
    q1, q2, q3 = fscale, 2.375 * fscale, 5.0 * fscale
    i1, i2, i3 = 0.5 * fscale, 0.625 * fscale, 0.84375 * fscale
    return f'''
#include <math.h>

double repro_fused_step(const double *restrict pre, const double *restrict bias,
                        const double *restrict c, double *restrict out_h,
                        double *restrict out_c, long n)
{{
    const long H = {hidden_size};
    double max_cell = 0.0;
    double v[4 * {hidden_size}];
    double g[4 * {hidden_size}];
    for (long row = 0; row < n; ++row) {{
        const double *restrict p = pre + row * 4 * H;
        const double *restrict cr = c + row * H;
        double *restrict hr = out_h + row * H;
        double *restrict ocr = out_c + row * H;
        for (long k = 0; k < 4 * H; ++k) {{
            double t = floor((fabs(p[k]) + {half!r}) * {inv!r} + {eps!r});
            v[k] = copysign(t, p[k]) + bias[k];
        }}
        for (long k = 0; k < 3 * H; ++k) {{
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
        for (long k = 0; k < H; ++k) {{
            double x = v[3 * H + k];
            double num = x * {fscale!r};
            double den = fabs(x) + {fscale!r};
            double mag = fabs(num);
            double q = floor(mag / den);
            double r = mag - q * den;
            q += (double)(r >= den - floor(den * 0.5));
            g[3 * H + k] = copysign(q, x);
        }}
        for (long k = 0; k < H; ++k) {{
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
        for (long k = 0; k < H; ++k) {{
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
    }}
    return max_cell;
}}
'''


def _build_cc_step(hidden_size: int, scale: int, eps: float):
    """The compiled C tick chain as a Python callable, or ``None``.

    Compiled once per ``(hidden_size, scale)`` and cached by
    :func:`repro.cbuild.load_c_library`, which pins ``-ffp-contract=off``
    at every rung.  The C step replicates the fused arithmetic op for op
    in IEEE float64, so a successful compile is bit-equal by
    construction — and the build-time self-check probe verifies it on
    the live weights anyway.  ``None`` when the host cannot build it;
    the caller then records ``jit_error`` and runs the vectorised NumPy
    fused path.
    """
    library = load_c_library(_render_cc_step(hidden_size, scale, eps))
    if library is None:
        return None
    raw = library.repro_fused_step
    raw.restype = ctypes.c_double
    raw.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_long]

    def step(pre, bias, c, out_h, out_c):
        pre = np.ascontiguousarray(pre)
        c = np.ascontiguousarray(c)
        return raw(
            pre.ctypes.data, bias.ctypes.data, c.ctypes.data,
            out_h.ctypes.data, out_c.ctypes.data, pre.shape[0],
        )

    return step


# ----------------------------------------------------------------------
# Build-time self-check
# ----------------------------------------------------------------------


def _self_check(engine, math_impl: _FusedFixedMath) -> None:
    """Verify the fused tick against the reference kernels on this host.

    Runs an adversarial batch (boundary-hugging cells, random hiddens,
    random tokens) through :meth:`_FusedFixedMath.step_rows` and the
    reference ``gates.run_batch`` + ``hidden_state.step_batch`` +
    ``classify_batch`` chain; any bit difference raises ``AssertionError``.
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
    ref_p = engine.hidden_state.classify_batch(ref_h)

    got_h, got_c = math_impl.step_rows(
        h.astype(np.float64), c.astype(np.float64), embedded
    )
    got_p = math_impl.classify_rows(got_h)
    assert np.array_equal(got_h, ref_h.astype(np.float64)), "hidden mismatch"
    assert np.array_equal(got_c, ref_c.astype(np.float64)), "cell mismatch"
    assert np.array_equal(got_p, ref_p), "classification mismatch"

    # Primitive rescale check on half-exact boundary values, where a
    # rounding-mode bug would hide from random inputs.
    from repro.fixedpoint.ops import _rounded_scale_division

    ks = np.array([0, 1, 2, 3, 7, 1000, 10**7], dtype=np.int64)
    half = scale // 2
    edges = np.concatenate([
        ks * scale - half, ks * scale + half, ks * scale + half - 1,
        -(ks * scale - half), -(ks * scale + half), ks,
    ])
    expected = _rounded_scale_division(edges, scale).astype(np.float64)
    for op in (math_impl._frdiv_inv, math_impl._frdiv_div):
        got = op(edges.astype(np.float64))
        assert np.array_equal(got, expected), "rescale primitive mismatch"


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
    """One precompiled step per tick over the session arena's rows.

    At ``FIXED_POINT`` the math is the fused float64 pass (bit-exact by
    static bounds + build-time self-check + runtime cell guard).  At the
    float levels the reference kernels keep doing the math — their
    pairwise-sum reduction *is* the batch-stability contract.  Any
    exactness obstacle degrades to reference behaviour in-process and is
    counted in ``repro_backend_fallback_total``.
    """

    name = "fused"

    def __init__(self, engine):
        super().__init__(engine)
        self._math: _FusedFixedMath | None = None
        self.degraded_reason: str | None = None
        if not engine.config.optimization.uses_fixed_point:
            return  # float levels: reference math
        try:
            math_impl = _FusedFixedMath(engine)
        except FusedUnavailable as unavailable:
            self.degraded_reason = unavailable.reason
            self.record_fallback(unavailable.reason)
            return
        if math_impl._jit is None:
            # Degradation of degree only: the NumPy fused path runs.
            self.record_fallback(FALLBACK_JIT_ERROR)
        try:
            _self_check(engine, math_impl)
        except AssertionError:
            if math_impl._jit is not None:
                # Give the NumPy formulation a chance before giving up.
                math_impl.disable_jit()
                self.record_fallback(FALLBACK_JIT_ERROR)
                try:
                    _self_check(engine, math_impl)
                except AssertionError:
                    self.degraded_reason = FALLBACK_SELF_CHECK
                    self.record_fallback(FALLBACK_SELF_CHECK)
                    return
            else:
                self.degraded_reason = FALLBACK_SELF_CHECK
                self.record_fallback(FALLBACK_SELF_CHECK)
                return
        self._math = math_impl

    @property
    def fused_math(self) -> _FusedFixedMath | None:
        return self._math

    @property
    def accel_tier(self) -> str | None:
        """Which tier compiled the tick: ``cc``, or ``None`` (NumPy)."""
        return self._math.accel_tier if self._math is not None else None

    def accelerates_inference(self) -> bool:
        return self._math is not None

    def infer_probabilities(self, embedded: np.ndarray) -> np.ndarray:
        """Fused timestep loop over an ``(N, T, E)`` embedded batch."""
        math_impl = self._math
        if math_impl is None:
            raise RuntimeError(
                "fused inference unavailable; check accelerates_inference()"
            )
        n, steps, _ = embedded.shape
        H = math_impl.hidden_size
        h = np.zeros((n, H), dtype=np.float64)
        c = np.zeros((n, H), dtype=np.float64)
        for step in range(steps):
            h, c = math_impl.step_rows(h, c, embedded[:, step, :])
        return math_impl.classify_rows(h)

    def session_stepper(self):
        from repro.core.sessions import FusedStepper, ReferenceStepper

        if self._math is None:
            # Float levels, or degraded at build: the reference math.
            return ReferenceStepper(self.engine)
        return FusedStepper(self.engine, self._math)


register_backend(ReferenceBackend.name, ReferenceBackend)
register_backend(FusedBackend.name, FusedBackend)
