import sys
import threading

import numpy as np
import pytest

import phasefuse.sdp
from phasefuse import blas
from phasefuse.errors import ConvergenceError
from phasefuse.phase_opt import SDP_RELAXATION, PhaseStrategy, optimize_phases
from phasefuse.rng import RngStream
from phasefuse.sdp import SdpProblem, solve

pytestmark = pytest.mark.skipif(
    not blas._libraries(), reason="no OpenBLAS bundled with numpy or scipy"
)

PRIOR = 2  # a count above 1, so a scope that does nothing is caught


def counts():
    return [get() for get, _ in blas._libraries()]


@pytest.fixture(autouse=True)
def prior_threads():
    saved = counts()
    for _, set_ in blas._libraries():
        set_(PRIOR)
    yield
    for (_, set_), count in zip(blas._libraries(), saved):
        set_(count)


def random_psd(gen, n):
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return g @ g.conj().T


def test_optimize_phases_runs_single_threaded(monkeypatch):
    seen = []
    original = phasefuse.sdp.solve

    def recording_solve(*args, **kwargs):
        seen.append(counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(phasefuse.sdp, "solve", recording_solve)
    b = random_psd(np.random.default_rng(0), 6)
    optimize_phases(b, PhaseStrategy(SDP_RELAXATION), RngStream(0, 0))
    assert seen == [[1] * len(blas._libraries())]
    assert counts() == [PRIOR] * len(blas._libraries())


def test_restored_after_convergence_error():
    b = random_psd(np.random.default_rng(9), 8)
    with pytest.raises(ConvergenceError) as info:
        solve(SdpProblem(objective=b), max_iter=2)
    assert counts() == [PRIOR] * len(blas._libraries())
    best = info.value.best_solution
    assert best is not None and best.iterations == 2
    assert np.allclose(np.diag(best.gram), 1.0, rtol=0.0, atol=1e-10)


def test_concurrent_nested_scopes():
    errors = []

    def worker():
        for _ in range(200):
            with blas.single_threaded():
                with blas.single_threaded():
                    if counts() != [1] * len(blas._libraries()):
                        errors.append(counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert counts() == [PRIOR] * len(blas._libraries())


def test_no_library_is_a_no_op(monkeypatch):
    found = blas._libraries()
    monkeypatch.setattr(blas, "_libraries", lambda: ())
    with blas.single_threaded():
        assert [get() for get, _ in found] == [PRIOR] * len(found)
