"""The environment record written with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]

# OpenBLAS thread-count getters, by symbol-name variant of the bundled builds.
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(package) -> dict[str, int]:
    """Thread count of each OpenBLAS bundled beside ``package``.

    The libraries are already loaded, so dlopen returns the live instance."""
    libs = Path(package.__file__).resolve().parents[1] / f"{package.__name__}.libs"
    out = {}
    for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for sym in _GETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[path.name] = int(fn())
                break
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the program's sources, to identify a checkout that is not
    a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            "numpy": _openblas_threads(np),
            "scipy": _openblas_threads(scipy),
        },
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PHASEFUSE_THREADS": os.environ.get("PHASEFUSE_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
