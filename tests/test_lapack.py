"""phasefuse.lapack against scipy.linalg: the same bits and errors, the same
bits after a later ``scipy.linalg`` import, and no ``scipy.linalg`` import of
its own."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from phasefuse import lapack

DTYPES = [np.float64, np.complex128]


def hermitian(gen, n, dtype):
    g = gen.standard_normal((n, n))
    if dtype == np.complex128:
        g = g + 1j * gen.standard_normal((n, n))
    return g + g.conj().T


def positive_definite(gen, n, dtype):
    # Left as the product gives it (Hermitian only up to rounding), so a
    # routine reading the other triangle would show.
    g = hermitian(gen, n, dtype)
    return g @ g.conj().T + n * np.eye(n)


# name -> (phasefuse.lapack call, scipy.linalg call), each on (a, b) with a
# the positive definite operand.
PAIRS = {
    "eigh": (lambda a, b: lapack.eigh(a), lambda a, b: sla.eigh(a)),
    "eigvalsh": (lambda a, b: lapack.eigvalsh(a), lambda a, b: sla.eigvalsh(a)),
    "cho_factor": (lambda a, b: lapack.cho_factor(a),
                   lambda a, b: sla.cho_factor(a, lower=True)),
    "cho_solve": (lambda a, b: lapack.cho_solve(a, b),
                  lambda a, b: sla.cho_solve((a, True), b)),
    "solve_triangular": (lambda a, b: lapack.solve_triangular(a, b),
                         lambda a, b: sla.solve_triangular(a, b, lower=True)),
    "pencil_min_eigenvalue": (
        lambda a, b: lapack.pencil_min_eigenvalue(b, a),
        lambda a, b: sla.eigh(b, a, eigvals_only=True, subset_by_index=[0, 0])),
}


READS_B = ("cho_solve", "solve_triangular", "pencil_min_eigenvalue")


def arrays(result) -> list:
    """A call's result as a list of arrays: a float becomes a 1-vector, and
    scipy's ``cho_factor`` flag ``lower`` is dropped."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.atleast_1d(x) for x in parts if not isinstance(x, bool)]


@pytest.mark.parametrize("n", [2, 10, 30, 60])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", PAIRS)
def test_same_bits_as_scipy(name, dtype, n):
    gen = np.random.default_rng(n)
    a, b = positive_definite(gen, n, dtype), hermitian(gen, n, dtype)
    ours, theirs = (arrays(call(a, b)) for call in PAIRS[name])
    assert len(ours) == len(theirs) >= 1
    for x, y in zip(ours, theirs):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raises_value_error_as_scipy(name, dtype, bad):
    gen = np.random.default_rng(4)
    a, b = positive_definite(gen, 5, dtype), hermitian(gen, 5, dtype)
    for operand in ("a", "b") if name in READS_B else ("a",):
        args = {"a": a.copy(), "b": b.copy()}
        args[operand][1, 2] = bad
        for call in PAIRS[name]:
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(args["a"], args["b"])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["cho_factor", "pencil_min_eigenvalue"])
def test_not_positive_definite_raises_linalg_error_as_scipy(name, dtype):
    gen = np.random.default_rng(5)
    a, b = hermitian(gen, 5, dtype) - 20.0 * np.eye(5), hermitian(gen, 5, dtype)
    for call in PAIRS[name]:
        with pytest.raises(np.linalg.LinAlgError):
            call(a, b)


def test_missing_wrapper_raises_import_error_naming_path(monkeypatch, tmp_path):
    monkeypatch.setattr(lapack.scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "linalg"))):
        lapack._load_flapack()


def run_fresh(code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_phasefuse_never_imports_scipy_linalg():
    # The extension module alone is registered, under the name scipy gives
    # it, so that a later scipy.linalg import reuses it. Also checks blas._libraries()'s premise: every bundled OpenBLAS is
    # already in memory (RTLD_NOLOAD fails otherwise) once phasefuse is imported.
    seen = run_fresh("""
import ctypes, json, os, sys
from pathlib import Path
import numpy, scipy
import phasefuse, phasefuse.cli
libs = [p for pkg in (numpy, scipy)
        for p in (Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs")
        .glob("*openblas*.so*")]
loaded = []
for p in libs:
    try:
        ctypes.CDLL(str(p), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        loaded.append(True)
    except OSError:
        loaded.append(False)
rc = phasefuse.cli.main(["selftest"])
print(json.dumps({"rc": rc, "loaded": loaded,
                  "linalg": sorted(m for m in sys.modules if m.startswith("scipy.linalg")
                                   and m != "scipy.linalg._flapack")}))
""")
    assert seen["rc"] == 0
    assert seen["linalg"] == []
    assert all(seen["loaded"])


def test_scipy_linalg_imported_after_phasefuse_agrees():
    seen = run_fresh("""
import json
import numpy as np
from phasefuse import lapack
gen = np.random.default_rng(0)
g = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
a, b = g @ g.conj().T + 8 * np.eye(8), g + g.conj().T
ours = [lapack.eigh(b)[1], lapack.cho_solve(lapack.cho_factor(a), b)]
import scipy.linalg as sla
theirs = [sla.eigh(b)[1], sla.cho_solve(sla.cho_factor(a, lower=True), b)]
ours_again = [lapack.eigh(b)[1], lapack.cho_solve(lapack.cho_factor(a), b)]
print(json.dumps([x.tobytes() == y.tobytes() == z.tobytes()
                  for x, y, z in zip(ours, theirs, ours_again)]))
""")
    assert seen == [True, True]
