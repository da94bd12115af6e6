# phasefuse/lapack.py
"""Every LAPACK call phasefuse makes, straight from scipy's compiled wrappers.

scipy ships its LAPACK wrappers as one extension module,
``scipy/linalg/_flapack<EXT_SUFFIX>``. Reaching it through ``scipy.linalg``
runs that package's ``__init__``, which imports ``scipy._lib._array_api`` and
with it ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about 0.3 s, more
than the rest of phasefuse's start-up. This module loads the extension file
itself, so ``scipy.linalg`` is never imported. ``import scipy`` still runs
(scipy's distributor init), and loading ``_flapack`` loads scipy's OpenBLAS,
which ``blas.single_threaded`` then finds already in memory. The extension
is registered under the name scipy gives it, ``scipy.linalg._flapack``, so a
later ``import scipy.linalg`` reuses it.

Each function makes the call its ``scipy.linalg`` counterpart makes for a
2-D double matrix: the same routine, chosen by dtype as ``get_lapack_funcs``
does (``d*`` for float64, ``z*`` for complex128; other dtypes are computed in
one of these two), the same arguments and the same workspace size, so the
results are bit-identical. Every positive definite solve goes through the
lower Cholesky factor (``cho_factor`` then ``cho_solve``). Workspace queries
are cached per routine and order N: at N <= a few hundred ``scipy.linalg``'s
per-call wrapper (validation, a fresh workspace query, batching) cost about
as much as LAPACK itself. scipy's checks are kept: a NaN or inf raises
``ValueError`` (here its subclass ``NonFiniteError``, so callers can catch
that case alone), and a matrix that is not positive definite or an
eigensolver failure raises ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sysconfig
from pathlib import Path

import numpy as np
import scipy


def _load_flapack():
    name = "scipy.linalg._flapack"  # the name scipy itself loads it under
    path = Path(scipy.__file__).parent / "linalg" / (
        "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK wrapper not found at {path}", path=str(path))
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()

# The routines used, by their complex name, for float64 ("d") and complex128
# ("z") input.
_ROUTINES = {
    kind: {
        name: getattr(_FLAPACK, kind + (name if kind == "z" else name.replace("he", "sy", 1)))
        for name in ("heevr", "heevr_lwork", "hegvx", "hegvx_lwork",
                     "potrf", "potrs")
    }
    for kind in "dz"
}
# Names of the ?heevr / ?syevr workspace sizes, in the order the query returns them.
_EVR_WORKSPACE = {"d": ("lwork", "liwork"), "z": ("lwork", "lrwork", "liwork")}


def _kind(a: np.ndarray, b: np.ndarray | None = None) -> str:
    # Spelled out: a generator over the arguments cost 1 us a call.
    complex_ = a.dtype.kind == "c" or (b is not None and b.dtype.kind == "c")
    return "z" if complex_ else "d"


class NonFiniteError(ValueError):
    """An input array holds a NaN or an inf."""


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteError("array must not contain infs or NaNs")


def _workspace(sizes) -> tuple[int, ...]:
    *sizes, info = sizes
    if info:
        raise ValueError(f"workspace query failed: info={info}")
    return tuple(int(s.real) for s in sizes)


@functools.cache
def _evr_workspace(kind: str, n: int) -> dict[str, int]:
    sizes = _workspace(_ROUTINES[kind]["heevr_lwork"](n, lower=1))
    return dict(zip(_EVR_WORKSPACE[kind], sizes))


@functools.cache
def _gvx_workspace(kind: str, n: int) -> int:
    return _workspace(_ROUTINES[kind]["hegvx_lwork"](n, uplo="L"))[0]


def _evr(a: np.ndarray, compute_v: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    _check_finite(a)
    kind = _kind(a)
    w, v, _, _, info = _ROUTINES[kind]["heevr"](
        a, compute_v=compute_v, lower=1, **_evr_workspace(kind, a.shape[0]))
    if info:
        raise np.linalg.LinAlgError(f"eigensolve failed: info={info}")
    return w, v


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of Hermitian ``a`` from its lower
    triangle, as ``scipy.linalg.eigh(a)``."""
    return _evr(a, 1)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian ``a`` from its lower triangle, as
    ``scipy.linalg.eigvalsh(a)``."""
    return _evr(a, 0)[0]


def pencil_min_eigenvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian pencil (``a``, ``b``), ``b``
    positive definite, as ``scipy.linalg.eigh(a, b, eigvals_only=True,
    subset_by_index=[0, 0])[0]``."""
    a, b = np.asarray(a), np.asarray(b)
    _check_finite(a, b)
    kind = _kind(a, b)
    w, _, _, _, info = _ROUTINES[kind]["hegvx"](
        a, b, itype=1, jobz="N", range="I", uplo="L", il=1, iu=1,
        lwork=_gvx_workspace(kind, a.shape[0]),
    )
    if info:
        raise np.linalg.LinAlgError(f"generalized eigensolve failed: info={info}")
    return float(w[0])


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of Hermitian positive definite ``a`` (upper
    triangle left as input), as ``scipy.linalg.cho_factor(a, lower=True)[0]``."""
    a = np.asarray(a)
    _check_finite(a)
    c, info = _ROUTINES[_kind(a)]["potrf"](a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with a ``cho_factor`` factor, as ``scipy.linalg.cho_solve((c, True), b)``."""
    c, b = np.asarray(c), np.asarray(b)
    _check_finite(b, c)
    x, info = _ROUTINES[_kind(c, b)]["potrs"](c, b, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x
