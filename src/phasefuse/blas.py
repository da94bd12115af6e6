"""Single-threaded BLAS for all of phasefuse's linear algebra.

Every public function that calls BLAS or LAPACK runs inside
``single_threaded``. numpy and scipy each bundle their own OpenBLAS, and each
sizes its worker pool to the cores. When one pool's threads still spin after
a call, the other pool's small calls stall behind them (an N = 30 ``eigh``
took up to 150 ms instead of 0.15 ms on a 2-core machine). The matrices here
are small (N <= a few hundred), where worker threads save little even
without that contention. Threads can change the last bits: on Fisher
instances with M = 4, ``sdp.solve`` with scipy's OpenBLAS on 2 threads
returned byte-identical grams at N = 30 (6 instances) but different ones at
N = 100 (3 of 3) and N = 200 (6 of 6); numpy's OpenBLAS on 2 threads
changed none. At N = 800 a threaded eigensolve sums in another order and can
differ in the last bits. ``single_threaded`` sets the OpenBLAS builds
bundled with numpy and scipy to one thread on the outermost entry and
restores their counts on the outermost exit, also when the body raises. A
lock-guarded depth count lets decorated functions call each other and lets
callers' threads nest the scope. Where no bundled OpenBLAS is found it does
nothing. phasefuse's LAPACK calls (``phasefuse.lapack``) run on scipy's
OpenBLAS; its matrix products run on numpy's.

Nor do Python threads pay for the small solves. scipy's wrapper of
``?heevr`` (``eigh``) holds the GIL while LAPACK runs: two threads making
20 ``eigh`` calls each at N = 100 took 0.104 s, against 0.100 s for the 40
calls on one thread, and a pool of trial threads was removed for that.
``montecarlo.run_sweep`` runs trials in parallel in forked worker
processes instead; each worker inherits this scope, set to one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np
import scipy

# (getter, setter) symbol names, by integer-width variant of the bundled builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _libraries() -> tuple[tuple[object, object], ...]:
    """(get, set) thread-count functions of each OpenBLAS bundled beside
    numpy and scipy. The libraries are already loaded (numpy's by numpy,
    scipy's by ``phasefuse.lapack`` loading scipy's LAPACK wrapper), so
    dlopen returns the live instance."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
            lib = ctypes.CDLL(str(path))
            for get_name, set_name in _SYMBOLS:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
    return tuple(found)


class _ThreadLimit(contextlib.ContextDecorator):
    """Process-wide scope: OpenBLAS thread counts are process state."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[object, int]] = []

    def __enter__(self) -> "_ThreadLimit":
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for get, set_ in _libraries()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_LIMIT = _ThreadLimit()


def single_threaded() -> _ThreadLimit:
    """Context manager and decorator: run the body with OpenBLAS on one thread."""
    return _LIMIT
