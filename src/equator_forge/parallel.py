"""The ordered map of the equator meshes, and BLAS thread control.

:func:`tmap` maps on the calling thread.  :func:`_one_blas_thread` runs dense
linear algebra on one OpenBLAS thread: at the package's matrix sizes a second
BLAS thread saves no wall time, and after each call its worker busy-waits for
about 0.13 s of CPU.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

# symbol patterns of OpenBLAS builds: plain, scipy's, and numpy's 64-bit-int one
_OPENBLAS_SYMBOLS = ("openblas_{}", "scipy_openblas_{}", "scipy_openblas_{}64_")
# (len(sys.modules) at the last scan, [(get_num_threads, set_num_threads), ...])
_blas_controls: list = [None, []]


def tmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread.

    Kept only as the seam that the benchmark tracer patches by name
    (``analysis.tmap``); the benchmark's next revision deletes it (ROADMAP item 3).
    """
    return [fn(item) for item in items]


def _openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:  # no /proc: not Linux
        return []


def _openblas_controls() -> list:
    """Thread-count getter and setter of each loaded OpenBLAS.

    Libraries load only on import, so the scan is redone only when
    ``sys.modules`` has changed size since the last one.
    """
    if _blas_controls[0] != len(sys.modules):
        import ctypes

        controls = []
        for path in _openblas_paths():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for pattern in _OPENBLAS_SYMBOLS:
                get = getattr(lib, pattern.format("get_num_threads"), None)
                put = getattr(lib, pattern.format("set_num_threads"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
        _blas_controls[:] = [len(sys.modules), controls]
    return _blas_controls[1]


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of every loaded OpenBLAS; restore the counts after.

    Re-entrant, and a no-op where no OpenBLAS or no known symbol is found.
    """
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)
