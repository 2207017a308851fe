"""Host-speed calibration for the timed runs.

The benchmark shares its cores with other load, and the speed of such a
host drifts by tens of percent within seconds (a fixed pure-Python loop
measured here ran from 19 to 33 ms within 40 s, in CPU time as in wall
time).  To measure the program rather than the host, a fixed kernel --
dictionary lookups in the interpreter plus small NumPy matrix products,
the two kinds of work the workloads do -- is timed after every segment
of a timed replay, and each segment's wall time is scaled by
``REFERENCE_S / sample``: the time the segment would have taken on a host
where the kernel takes ``REFERENCE_S``.  The kernel is the benchmark's
own and never calls the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.  Raw wall-clock rates are
printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time on the reference host: a 2-vCPU Intel Xeon VM (Python
#: 3.11, NumPy 2.4, one BLAS thread) in its faster state.
REFERENCE_S = 1.0e-3

_RNG = np.random.default_rng(20240601)
_TABLE = {int(key): index for index, key in
          enumerate(_RNG.integers(0, 2**40, 65_536))}
_KEYS = list(_TABLE)[::16]
_LEFT = _RNG.standard_normal((64, 128))
_RIGHT = _RNG.standard_normal((128, 256))


def _kernel() -> float:
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    for _ in range(6):
        np.tanh(_LEFT @ _RIGHT)
    return total


def sample(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside a ``kernel_s`` sample, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
