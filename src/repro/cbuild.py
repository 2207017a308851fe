"""Compile and load the generated C kernels of the fused backends.

Both fused backends — the inference step in
:mod:`repro.core.kernels.backends` and the BPTT step pair in
:mod:`repro.nn.kernels` — render a small C source per model shape and
load it through :mod:`ctypes`.  This module is their one compile ladder.

Every rung passes ``-ffp-contract=off``: without it the compiler may fuse
a multiply and an add into one FMA, which rounds once instead of twice
and changes result bits.  ``-fno-math-errno -fno-trapping-math`` only
drop errno stores and FP-status ordering (``floor``/``fabs``/``copysign``
set neither), so results stay IEEE-exact.  ``-march=native`` is tried
first and dropped if the compiler rejects it.

The build directory is removed as soon as the shared object is loaded
(the loaded mapping outlives the file), and loaded libraries are cached
per source text for the process lifetime: compiling costs ~100 ms and
tests build many engines of identical shape.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
import tempfile

#: Flags that keep compiled float arithmetic bit-equal to NumPy's.
EXACT_FLAGS = ("-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")

#: Optimisation rungs, tried in order until one compiles.
FLAG_LADDER = (
    ("-O3", "-march=native", *EXACT_FLAGS),
    ("-O3", *EXACT_FLAGS),
    ("-O2", *EXACT_FLAGS),
)

#: Loaded libraries by source text; ``None`` caches a failed build.
_LIBRARIES: dict = {}


def load_c_library(source: str):
    """Compile ``source`` into a shared object and load it, or ``None``.

    Any failure — no compiler, a compile error on every rung, a load
    error — returns ``None`` so the caller can run its NumPy
    formulation instead.
    """
    if source in _LIBRARIES:
        return _LIBRARIES[source]
    library = None
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is not None:
        try:
            with tempfile.TemporaryDirectory(prefix="repro-cc-") as build_dir:
                source_path = f"{build_dir}/kernel.c"
                library_path = f"{build_dir}/kernel.so"
                with open(source_path, "w") as handle:
                    handle.write(source)
                base = ["-fPIC", "-shared", "-o", library_path, source_path,
                        "-lm"]
                for flags in FLAG_LADDER:
                    result = subprocess.run([compiler, *flags, *base],
                                            capture_output=True, timeout=120)
                    if result.returncode == 0:
                        library = ctypes.CDLL(library_path)
                        break
        except (OSError, subprocess.SubprocessError):
            library = None
    _LIBRARIES[source] = library
    return library
