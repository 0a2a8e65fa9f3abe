"""The compiled library `_kernel.c`: built on first use, cached, self-checked.

`load_kernel` hands out the one library both of its users call: the
sampling loop (`sampler.run`, through `sa_advance`) and the HRS bisection
(`DeviceSurface.hrs_for_mu`, through `sa_hrs_bisect`). Either falls back to
its Python form when the library does not load. Importing this module
compiles and loads nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 60
_P = ctypes.c_void_p
_KERNEL_ARGTYPES = (ctypes.c_int64, _P, _P, _P, ctypes.c_int64) + (_P,) * 13 + (ctypes.c_int64, _P)
_BISECT_ARGTYPES = (ctypes.c_int64, _P, _P, _P) + (ctypes.c_double,) * 4 + (ctypes.c_int64, _P)
# the self-check grid: erf over the range the device activation reaches,
# exp at the integer arguments the logistic activation passes it
_ERF_GRID = tuple(k * 0.011718 + 1e-9 * k * k for k in range(-700, 701))
_EXP_GRID = tuple(float(k) for k in range(-800, 500)) + _ERF_GRID
# the squeeze table's grid in _kernel.c: (SQ_LO, SQ_INV_STEP, SQ_CELLS)
_SQUEEZE_GRID = (-16.0, 256.0, 8192)

_kernel = None  # the loaded library; False once loading has failed
_kernel_lock = threading.Lock()


def load_kernel():
    """The compiled library, or None when its callers must use their Python forms.

    The first call compiles `_kernel.c` with the system `cc` into a private
    per-user cache (a temporary directory if that cache is not private),
    loads it with ctypes and checks that its `erf` and `exp` equal
    `math.erf` and `math.exp` bit for bit. It then fills the kernel's squeeze
    table and checks that the table is nondecreasing and equal to Python's
    `0.5 * (1.0 + math.erf(g))` at every grid point, bit for bit. Any failure
    (no compiler, a compile error, a failed self-check) is logged once and
    gives None. One thread loads at a time, and the library is handed out
    only after the check, so no call reads a partly filled table.
    """
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            try:
                _kernel = _build_kernel()
            except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
                log.warning("compiled kernel unavailable, using the Python loop and the "
                            "numpy bisection: %s", exc)
                _kernel = False
    return _kernel or None


def _build_kernel():
    """Compile (or find in the cache), load and self-check the kernel library."""
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler `cc` on PATH")
    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_KERNEL_FLAGS).encode(), sys.platform.encode(),
         platform.machine().encode()]
    )).hexdigest()[:24]
    so_name = f"_kernel-{key}.so"
    cache = _private_cache_dir()
    if cache is not None:
        lib = _compile_and_load(cc, source, cache / so_name)
    else:
        # the loaded library stays mapped after its file is removed
        with tempfile.TemporaryDirectory(prefix="stochanneal-") as tmp:
            lib = _compile_and_load(cc, source, Path(tmp) / so_name)
    for fn in (lib.sa_erf, lib.sa_exp):
        fn.restype = ctypes.c_double
        fn.argtypes = (ctypes.c_double,)
    checks = (("erf", lib.sa_erf, math.erf, _ERF_GRID), ("exp", lib.sa_exp, math.exp, _EXP_GRID))
    for name, ours, ref, grid in checks:
        for z in grid:
            if ours(z).hex() != ref(z).hex():
                raise RuntimeError(f"self-check failed: C {name}({z!r}) = {ours(z)!r}, "
                                   f"Python gives {ref(z)!r}")
    _check_squeeze_table(lib)
    lib.sa_advance.restype = ctypes.c_int64
    lib.sa_advance.argtypes = _KERNEL_ARGTYPES
    lib.sa_hrs_bisect.restype = None
    lib.sa_hrs_bisect.argtypes = _BISECT_ARGTYPES
    return lib


def _check_squeeze_table(lib) -> None:
    """Fill the kernel's squeeze table and check it against `math.erf`, or raise."""
    lo, inv_step, cells = _SQUEEZE_GRID
    lib.sa_squeeze_init.restype = ctypes.c_int64
    lib.sa_squeeze_init.argtypes = ()
    got = lib.sa_squeeze_init()
    if got != cells:
        raise RuntimeError(f"self-check failed: the squeeze table has {got} cells, "
                           f"expected {cells}")
    table = np.ctypeslib.as_array((ctypes.c_double * (cells + 1)).in_dll(lib, "sa_squeeze_table"))
    falls = np.flatnonzero(~(table[:-1] <= table[1:]))
    if falls.size:
        raise RuntimeError(f"self-check failed: the squeeze table decreases at cell {falls[0] + 1}")
    want = np.array([0.5 * (1.0 + math.erf(lo + j / inv_step)) for j in range(cells + 1)])
    wrong = np.flatnonzero(table.view(np.uint64) != want.view(np.uint64))
    if wrong.size:
        j = int(wrong[0])
        raise RuntimeError(f"self-check failed: squeeze table cell {j} = {float(table[j])!r}, "
                           f"Python gives {float(want[j])!r}")


def _private_cache_dir() -> Optional[Path]:
    """`${XDG_CACHE_HOME:-~/.cache}/stochanneal` if it is private to this user."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base, "stochanneal")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.lstat()
    except OSError as exc:
        log.warning("kernel cache %s unusable (%s); compiling into a temporary directory",
                    path, exc)
        return None
    if not (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and stat.S_IMODE(st.st_mode) == 0o700):
        log.warning("kernel cache %s is not a directory of mode 0700 owned by this user; "
                    "compiling into a temporary directory", path)
        return None
    return path


def _compile_and_load(cc: str, source: bytes, so: Path):
    if not so.exists():
        # compile beside the target and rename, so concurrent workers never
        # load a half-written library
        fd, tmp = tempfile.mkstemp(dir=so.parent, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *_KERNEL_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True, timeout=_COMPILE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                err = proc.stderr.decode(errors="replace").strip()
                raise RuntimeError(f"{cc} exited with {proc.returncode}: {err[:500]}")
            os.replace(tmp, so)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(so))
