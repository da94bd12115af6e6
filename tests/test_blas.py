import dataclasses
import sys
import threading

import numpy as np
import pytest

import phasefuse.sdp
from phasefuse import blas, channel, estimator, lapack, montecarlo, phase_opt
from phasefuse.errors import ConvergenceError, PhasefuseError
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


def test_restored_after_convergence_error(monkeypatch):
    # An instance without a certified rank-one optimum, so the IPM runs.
    b = random_psd(np.random.default_rng(1), 8)
    b = SdpProblem(b).objective
    assert phasefuse.sdp._rank_one_certificate(b, phasefuse.sdp._psd_factor(b)) is None
    monkeypatch.setattr(phasefuse.sdp, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        solve(SdpProblem(objective=b))
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


def instance(n=6, m=3, fc_noise_power=0.1):
    scenario = channel.sample_scenario(
        channel.ScenarioConfig(n_sensors=n, n_antennas=m), RngStream(5, 0))
    scenario = dataclasses.replace(scenario, fc_noise_power=fc_noise_power)
    return scenario, channel.generate_channel(scenario, RngStream(5, 1))


def fisher(n=6, m=3):
    scenario, chan = instance(n, m)
    return estimator.fisher_matrix(chan, scenario)


def record(monkeypatch, target, name):
    """Replace ``target.name`` with a wrapper that records the thread counts
    on each call. A phasefuse callee is unwrapped first, so that its own
    scope cannot stand in for its caller's."""
    seen = []
    original = getattr(target, name)
    if original.__module__.startswith("phasefuse"):
        original = getattr(original, "__wrapped__", original)

    def recording(*args, **kwargs):
        seen.append(counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, recording)
    return seen


def _call_fisher(n, m):
    scenario, chan = instance(n, m)
    return lambda: estimator.fisher_matrix(chan, scenario)


def _call_fisher_factor():
    scenario, chan = instance(6, 3)
    return lambda: estimator.fisher_factor(chan, scenario)


def _call_ml_estimate():
    scenario, chan = instance()
    a = np.ones(scenario.n_sensors, dtype=complex)
    y = channel.synthesize_received_signal(scenario, chan, a, RngStream(5, 2))
    return lambda: estimator.ml_estimate(y, chan, scenario, a)


def _call_estimator_variance():
    b = fisher()
    return lambda: estimator.estimator_variance(np.ones(len(b), dtype=complex), b)


def _call_variance_lower_bound():
    b = fisher()
    return lambda: estimator.variance_lower_bound(b)


def _call_synthesize():
    scenario, chan = instance()
    a = np.ones(scenario.n_sensors, dtype=complex)
    return lambda: channel.synthesize_received_signal(scenario, chan, a, RngStream(5, 2))


def _call_eigenvector_rounding():
    b = fisher()
    return lambda: phase_opt.eigenvector_rounding(b)


def _call_feedback_round():
    scenario, chan = instance()
    strategy = PhaseStrategy(phase_opt.ALL_ONES)
    return lambda: phase_opt.feedback_round(chan, scenario, strategy, RngStream(5, 2))


def _call_extract_rank_one():
    problem = SdpProblem(objective=fisher())
    solution = solve(problem)
    return lambda: phasefuse.sdp.extract_rank_one(solution, problem, RngStream(5, 2))


def _call_solve_bare_objective():
    # Without a factor, solve derives one from eigh(B) before the certificate.
    problem = SdpProblem(objective=fisher(3, 6))
    return lambda: solve(problem)


def small_sweep(**overrides):
    fields = dict(sweep=montecarlo.SENSOR_SWEEP, sweep_values=(3, 4), fixed_count=2,
                  trials=2, strategies=(PhaseStrategy(phase_opt.ALL_ONES),))
    return montecarlo.ExperimentConfig(**{**fields, **overrides})


def _call_run_sweep():
    config = small_sweep()
    return lambda: montecarlo.run_sweep(config)


def _call_verify_unbiasedness():
    scenario, chan = instance()
    a = np.ones(scenario.n_sensors, dtype=complex)
    return lambda: montecarlo.verify_unbiasedness(scenario, chan, a, 100, RngStream(5, 2))


def _call_verify_concentration():
    config = montecarlo.ConcentrationConfig(values=(8, 16), n_draws=2)
    return lambda: montecarlo.verify_diagonal_concentration(config)


# (scoped function, callee module, callee name, builder of the call). Each
# callee runs inside the scoped function's BLAS or LAPACK work.
SCOPED = [
    ("fisher_matrix", estimator, "noise_covariance", lambda: _call_fisher(6, 3)),
    ("fisher_matrix_m_gt_n", lapack, "cho_solve", lambda: _call_fisher(3, 6)),
    ("fisher_factor", lapack, "solve_triangular", _call_fisher_factor),
    ("ml_estimate", estimator, "noise_covariance", _call_ml_estimate),
    ("estimator_variance", estimator, "_quadratic_form", _call_estimator_variance),
    ("variance_lower_bound", lapack, "eigvalsh", _call_variance_lower_bound),
    ("synthesize_received_signal", channel, "complex_gaussian", _call_synthesize),
    ("eigenvector_rounding", lapack, "eigh", _call_eigenvector_rounding),
    ("feedback_round", phase_opt, "fisher_matrix", _call_feedback_round),
    ("extract_rank_one", phasefuse.sdp, "phase_normalize", _call_extract_rank_one),
    ("solve_bare_objective", lapack, "eigh", _call_solve_bare_objective),
    ("run_sweep", montecarlo, "fisher_matrix", _call_run_sweep),
    ("verify_unbiasedness", montecarlo, "noise_covariance", _call_verify_unbiasedness),
    ("verify_diagonal_concentration", montecarlo, "generate_channel",
     _call_verify_concentration),
]


@pytest.mark.parametrize("target,name,make_call", [case[1:] for case in SCOPED],
                         ids=[case[0] for case in SCOPED])
def test_linear_algebra_runs_single_threaded(monkeypatch, target, name, make_call):
    call = make_call()
    seen = record(monkeypatch, target, name)
    call()
    assert seen and seen == [[1] * len(blas._libraries())] * len(seen)
    assert counts() == [PRIOR] * len(blas._libraries())


def test_noise_covariance_runs_single_threaded():
    seen = []

    class RecordingMatrix(np.ndarray):
        def __matmul__(self, other):
            seen.append(counts())
            return np.asarray(self) @ np.asarray(other)

    scenario, chan = instance()
    chan = dataclasses.replace(chan, matrix=chan.matrix.view(RecordingMatrix))
    estimator.noise_covariance(chan, scenario)
    assert seen == [[1] * len(blas._libraries())]
    assert counts() == [PRIOR] * len(blas._libraries())


def _raise_extract_rank_one():
    # A factor with fewer rows than B has cannot make a candidate pool.
    problem = SdpProblem(objective=fisher())
    solution = dataclasses.replace(solve(problem), factor=np.ones((5, 1), dtype=complex))
    phasefuse.sdp.extract_rank_one(solution, problem, RngStream(5, 2))


def _raise_verify_unbiasedness():
    scenario, chan = instance(fc_noise_power=0.0)
    montecarlo.verify_unbiasedness(
        scenario, chan, np.ones(scenario.n_sensors, dtype=complex), 10, RngStream(5, 2))


# Channel gains d^-alpha that underflow to 0: B = 0 ends a sweep at
# variance_lower_bound, and the concentration check finds a zero diagonal.
# Both raise inside the scope, after their configs are built.
UNDERFLOWING_GAINS = dict(distance_range=(1e200, 1e201), path_loss_exp=2.0)

RAISING = {
    "fisher_matrix": lambda: estimator.fisher_matrix(*instance(fc_noise_power=0.0)[::-1]),
    "fisher_factor": lambda: estimator.fisher_factor(*instance(fc_noise_power=0.0)[::-1]),
    "noise_covariance": lambda: estimator.noise_covariance(
        *instance(fc_noise_power=0.0)[::-1]),
    "ml_estimate": lambda: estimator.ml_estimate(
        np.zeros(3, dtype=complex), *instance(fc_noise_power=0.0)[::-1], np.ones(6)),
    "estimator_variance": lambda: estimator.estimator_variance(np.full(6, 2.0), fisher()),
    "variance_lower_bound": lambda: estimator.variance_lower_bound(np.zeros((4, 4))),
    "synthesize_received_signal": lambda: channel.synthesize_received_signal(
        *instance(), np.ones(5), RngStream(5, 2)),
    "eigenvector_rounding": lambda: phase_opt.eigenvector_rounding(np.full((4, 4), np.nan)),
    "feedback_round": lambda: phase_opt.feedback_round(
        *instance(fc_noise_power=0.0)[::-1], PhaseStrategy(phase_opt.ALL_ONES),
        RngStream(5, 2)),
    "extract_rank_one": _raise_extract_rank_one,
    "run_sweep": lambda: montecarlo.run_sweep(small_sweep(**UNDERFLOWING_GAINS)),
    "verify_unbiasedness": _raise_verify_unbiasedness,
    "verify_diagonal_concentration": lambda: montecarlo.verify_diagonal_concentration(
        montecarlo.ConcentrationConfig(values=(8,), **UNDERFLOWING_GAINS)),
}


@pytest.mark.parametrize("call", RAISING.values(), ids=RAISING.keys())
def test_restored_after_raise(call):
    with pytest.raises((PhasefuseError, ValueError)):
        call()
    assert counts() == [PRIOR] * len(blas._libraries())
