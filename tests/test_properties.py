"""Property tests of the relaxation's invariants on random PSD objectives
B = G G^H (N in 2..8, rank 1..N), of its certified rank-one optima, of
the certificate's factor path on Fisher instances with M < N (N up to 40),
and of weak duality against ``solve``'s result on Fisher instances.
Examples are capped and derandomized so the suite stays fast and
deterministic and writes no example database."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasefuse.channel import ScenarioConfig, generate_channel, sample_scenario
from phasefuse.estimator import fisher_factor, fisher_matrix, variance_lower_bound
from phasefuse.phase_opt import SDP_RELAXATION, PhaseStrategy, optimize_phases, optimize_phases_n2
from phasefuse.rng import RngStream
from phasefuse import lapack, sdp
from phasefuse.sdp import SdpProblem, solve

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
OBJECTIVE_RTOL = 1e-8


@st.composite
def instances(draw, sizes=st.integers(2, 8)):
    """(B, generator) with B = G G^H of the drawn size and rank; the
    generator, seeded alongside G, draws each test's transformation."""
    n = draw(sizes)
    rank = draw(st.integers(1, n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = gen.standard_normal((n, rank)) + 1j * gen.standard_normal((n, rank))
    return g @ g.conj().T, gen


@st.composite
def fisher_instances(draw):
    """(B, F) of a sampled Fisher instance with M <= N + 4: F is
    ``fisher_factor``'s, B = F^H F, when M < N, and None otherwise."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, n + 4))
    stream = RngStream(draw(st.integers(0, 2**32 - 1)), 0)
    scenario = sample_scenario(ScenarioConfig(n_sensors=n, n_antennas=m), stream.child(0))
    channel = generate_channel(scenario, stream.child(1))
    return fisher_matrix(channel, scenario), fisher_factor(channel, scenario)


def unitary_diagonal(gen, n):
    return np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, n))


def rotate(b, d):
    """D^H B D for D = diag(d)."""
    return d.conj()[:, np.newaxis] * b * d[np.newaxis, :]


def relaxation_value(b):
    return solve(SdpProblem(objective=b)).objective_value


def assert_objective_close(actual, desired):
    # solve stops at a duality gap of 1e-9 * max(1, |objective|), so below an
    # objective of 1 its accuracy is absolute, not relative.
    assert abs(actual - desired) <= OBJECTIVE_RTOL * max(1.0, abs(desired))


@SETTINGS
@given(instances())
def test_sandwich(instance):
    b, _ = instance
    report = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), RngStream(0))
    relax_bound = 1.0 / report.relaxation_value
    assert report.lower_bound <= relax_bound * (1 + 1e-8)
    assert relax_bound <= report.achieved_variance * (1 + 1e-8)


@SETTINGS
@given(instances())
def test_diagonal_unitary_invariance(instance):
    b, gen = instance
    rotated = rotate(b, unitary_diagonal(gen, b.shape[0]))
    assert_objective_close(relaxation_value(rotated), relaxation_value(b))
    np.testing.assert_allclose(variance_lower_bound(rotated), variance_lower_bound(b),
                               rtol=1e-12)


@SETTINGS
@given(instances(sizes=st.just(2)))
def test_closed_form_rotates_with_diagonal_unitary(instance):
    b, gen = instance
    d = unitary_diagonal(gen, 2)
    ratio = optimize_phases_n2(rotate(b, d)) / (d.conj() * optimize_phases_n2(b))
    np.testing.assert_allclose(ratio, ratio[0], rtol=0.0, atol=1e-12)


@SETTINGS
@given(instances())
def test_permutation_invariance(instance):
    b, gen = instance
    perm = gen.permutation(b.shape[0])
    assert_objective_close(relaxation_value(b[np.ix_(perm, perm)]), relaxation_value(b))


@SETTINGS
@given(instances(), st.floats(0.01, 100.0))
def test_positive_scale_covariance(instance, scale):
    b, _ = instance
    assert_objective_close(relaxation_value(scale * b), scale * relaxation_value(b))


@SETTINGS
@given(instances())
def test_certified_optimum_matches_interior_point(instance):
    # A certified rank-one optimum (``factor`` set) has the value the IPM
    # reaches from X = I; uncertified instances run the IPM in both calls.
    b, _ = instance
    problem = SdpProblem(objective=b)
    certified = solve(problem).objective_value
    ipm = sdp._interior_point(problem.objective)
    assert abs(certified - ipm.objective_value) <= 1e-7 * abs(ipm.objective_value)


@SETTINGS
@given(fisher_instances())
def test_factor_path_agrees_with_dense(instance):
    # lambda_max(B) from F F^H is that of B, and a solve given fisher_factor's
    # F and one that derives its factor from B certify alike. A solve is
    # certified exactly when its factor has one column.
    b, f = instance
    lam = float(lapack.eigvalsh(b)[-1])
    assert abs(1.0 / (b.shape[0] * variance_lower_bound(b, f)) - lam) <= 1e-13 * lam
    got, derived = solve(SdpProblem(b, f)), solve(SdpProblem(b))
    certified = derived.factor.shape[1] == 1
    assert (got.factor.shape[1] == 1) == certified
    if certified:
        assert abs(got.objective_value - derived.objective_value) \
            <= 1e-12 * derived.objective_value
        assert got.duality_gap <= sdp.GAP_TOL * max(1.0, got.objective_value)
        # The reported bound, value plus gap, holds: its dual point y + lift e
        # dominates B, checked here with a dense eigensolve.
        a = got.factor[:, 0]
        y = np.real(a.conj() * (b @ a))
        lift = (got.objective_value + got.duality_gap - y.sum()) / len(y)
        assert lapack.eigvalsh(np.diag(y + lift) - b)[0] >= -1e-12 * lam


def dual_function(f, s):
    """g(S) = 2 sum_i sqrt(f_i^H S f_i) - tr S over the columns f_i of F, the
    Lagrange dual of the relaxation's dual min sum(y), Diag(y) >= F^H F. For
    every PSD S it is at most the relaxation's optimum (weak duality)."""
    quad = np.real(np.einsum("ki,kl,li->i", f.conj(), s, f))
    return 2.0 * float(np.sum(np.sqrt(np.maximum(quad, 0.0)))) - float(np.real(np.trace(s)))


def scaled_dual_value(f, s):
    """lambda sum(y) for y_i = sqrt(f_i^H S f_i) and lambda = lambda_max(F
    Diag(1/y) F^H): lambda y is feasible for min sum(y), Diag(y) >= F^H F
    (the Schur form of sum_i f_i f_i^H / y_i <= I), so for every S with all
    y_i > 0 it is at least the relaxation's optimum (weak duality)."""
    y = np.sqrt(np.real(np.einsum("ki,kl,li->i", f.conj(), s, f)))
    return float(lapack.eigvalsh((f / y) @ f.conj().T)[-1]) * float(np.sum(y))


@SETTINGS
@given(fisher_instances(), st.integers(0, 2**32 - 1))
def test_weak_duality(instance, seed):
    # g(S) <= optimum <= tr(B A*) + gap for any PSD S, here at the best
    # scale of a random S of each rank. At M = 1 every such S attains the
    # optimum (sum |f_i|)^2; over 40 instances and 20 S each, g(S) stayed
    # 1.0e-9 relative (the gap) below the bound. At a certified a, the
    # rank-one S = (F a)(F a)^H gives g(S) >= a^H B a, as sum |(B a)_i| >=
    # a^H B a, so it meets the bound: measured 5.1e-16 relative below a^H B a
    # at worst.
    b, f = instance
    sol = solve(SdpProblem(b, f))
    if f is None:  # F with F^H F = B, from the eigenpairs of B
        w, u = np.linalg.eigh(b)
        f = (u * np.sqrt(np.maximum(w, 0.0))).conj().T
    upper = sol.objective_value + sol.duality_gap
    slack = 1e-10 * max(1.0, abs(sol.objective_value))
    tight = 1e-12 * max(1.0, abs(sol.objective_value))
    gen = np.random.default_rng(seed)
    for rank in range(1, f.shape[0] + 1):
        w = gen.standard_normal((f.shape[0], rank)) + 1j * gen.standard_normal((f.shape[0], rank))
        s = w @ w.conj().T
        root = np.sqrt(np.real(np.einsum("ki,kl,li->i", f.conj(), s, f)))
        s *= (np.sum(root) / np.real(np.trace(s))) ** 2  # maximizes g(t S) over t > 0
        assert dual_function(f, s) <= upper + slack
        assert scaled_dual_value(f, s) >= sol.objective_value - tight
    if sol.factor.shape[1] == 1:  # a certified rank-one optimum a a^H
        fa = f @ sol.factor[:, 0]
        s = np.outer(fa, fa.conj())
        assert sol.objective_value - slack <= dual_function(f, s) <= upper + slack
        assert sol.objective_value - tight <= scaled_dual_value(f, s) <= upper + slack
