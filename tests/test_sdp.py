import numpy as np
import pytest
import scipy.linalg as sla

from phasefuse.channel import ScenarioConfig, generate_channel, sample_scenario
from phasefuse.errors import ConfigurationError, ConvergenceError
from phasefuse.estimator import (
    fisher_factor,
    fisher_matrix,
    noise_covariance,
    variance_lower_bound,
)
from phasefuse.phase_opt import ALL_ONES, PhaseStrategy, optimize_phases, optimize_phases_n2
from phasefuse.rng import RngStream
from phasefuse import lapack, sdp
from phasefuse.sdp import (
    SdpProblem,
    extract_rank_one,
    phase_normalize,
    solve,
)

PI3_B = np.array([
    [1.0, 0.5 * np.exp(1j * np.pi / 3)],
    [0.5 * np.exp(-1j * np.pi / 3), 1.0],
])


def random_psd(gen, n):
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return g @ g.conj().T


def quad(a, b):
    return float(np.real(np.vdot(a, b @ a)))


def certificate(problem):
    """The rank-one certificate ``solve`` tries, with the factor it uses."""
    b = problem.objective
    return sdp._rank_one_certificate(
        b, sdp._psd_factor(b) if problem.factor is None else problem.factor)


def certificate_declines(problem):
    """True when ``solve`` goes on to the interior-point method."""
    return certificate(problem) is None


def assert_certified(sol, problem):
    """``sol`` is the certified rank-one optimum, reached in power steps."""
    cert = certificate(problem)
    assert cert is not None
    np.testing.assert_array_equal(sol.gram, cert.gram)
    assert 1 <= sol.iterations == cert.iterations <= sdp.POWER_MAX_STEPS


def assert_interior_point(sol, problem):
    """``sol`` is the interior-point method's solution."""
    ipm = sdp._interior_point(problem.objective)
    np.testing.assert_array_equal(sol.gram, ipm.gram)
    assert sol.iterations == ipm.iterations > 0


class TestSolve:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ConfigurationError):
            SdpProblem(objective=np.array([[1.0, 2.0], [3.0, 1.0]]))

    @pytest.mark.parametrize("call", [
        SdpProblem,
        variance_lower_bound,
        lambda b: optimize_phases(b, PhaseStrategy(ALL_ONES), RngStream(0)),
    ], ids=["sdp_problem", "variance_lower_bound", "optimize_phases"])
    def test_empty_objective_rejected(self, call):
        with pytest.raises(ConfigurationError, match="non-empty square"):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            SdpProblem(objective=np.array([[1.0, bad], [bad, 1.0]]))

    def test_workspace_cache_across_sizes(self):
        gen = np.random.default_rng(11)
        b30, b2 = random_psd(gen, 30), random_psd(gen, 2)
        lapack._evr_workspace.cache_clear()
        lapack._gvx_workspace.cache_clear()
        fresh = solve(SdpProblem(b30))
        solve(SdpProblem(b2))
        again = solve(SdpProblem(b30))
        assert again.gram.tobytes() == fresh.gram.tobytes()
        assert (again.objective_value, again.duality_gap, again.iterations) \
            == (fresh.objective_value, fresh.duality_gap, fresh.iterations)

    def test_gap_tolerance_absolute_below_objective_one(self):
        # The IPM stops at gap <= GAP_TOL * max(1, |objective|). Scaled by
        # 0.01 the objective is 0.53, so the tolerance is absolute and the
        # relative gap stays above GAP_TOL. The instance has no certified
        # rank-one optimum, so both solves run the IPM.
        b = random_psd(np.random.default_rng(25), 4)
        assert certificate_declines(SdpProblem(b))
        assert certificate_declines(SdpProblem(0.01 * b))
        big, small = solve(SdpProblem(b)), solve(SdpProblem(0.01 * b))
        assert big.objective_value > 1.0 > small.objective_value
        assert big.duality_gap <= sdp.GAP_TOL * big.objective_value
        assert small.duality_gap <= sdp.GAP_TOL
        assert small.duality_gap > sdp.GAP_TOL * small.objective_value

    # Fisher instances on which the step-length eigensolve once raised
    # LinAlgError ("leading minor ... not positive definite") at GAP_TOL 1e-10.
    @pytest.mark.parametrize("seed,key,n", [(7, 0, 16), (9, 0, 20), (9, 1, 20)])
    def test_lost_definiteness_still_certified(self, seed, key, n, monkeypatch):
        rng = RngStream(seed, key)
        scenario = sample_scenario(ScenarioConfig(n_sensors=n, n_antennas=4), rng.child(0))
        b = fisher_matrix(generate_channel(scenario, rng.child(1)), scenario)
        monkeypatch.setattr(sdp, "GAP_TOL", 1e-10)
        sol = solve(SdpProblem(b))
        assert sol.duality_gap <= 1e-9 * max(1.0, abs(sol.objective_value))
        assert sol.diag_residual <= 1e-8
        assert sol.min_eigenvalue >= -1e-8

    def test_nan_gap_fails_certificate(self, monkeypatch):
        # A NaN lambda_max(B) makes the starting dual slack, hence every gap,
        # NaN; with no iterations the final gap is NaN and must not pass.
        # The instance has no certified rank-one optimum, so the IPM runs.
        problem = SdpProblem(random_psd(np.random.default_rng(25), 4))
        assert certificate_declines(problem)
        eigvalsh = lapack.eigvalsh
        monkeypatch.setattr(lapack, "eigvalsh", lambda a: np.full(len(a), np.nan)
                            if a is problem.objective else eigvalsh(a))
        monkeypatch.setattr(sdp, "MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as err:
            solve(problem)
        assert np.isnan(err.value.best_solution.duality_gap)

    def test_nan_inside_loop_fails_certificate(self):
        # With the default MAX_ITER the NaN reaches the first NT scaling's
        # eigensolve, which rejects it; the loop ends as on a lost
        # definiteness and the final check raises ConvergenceError.
        problem = SdpProblem(random_psd(np.random.default_rng(25), 4))
        assert certificate_declines(problem)
        eigvalsh = lapack.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lapack, "eigvalsh", lambda a: np.full(len(a), np.nan)
                       if a is problem.objective else eigvalsh(a))
            with pytest.raises(ConvergenceError) as err:
                solve(problem)
        best = err.value.best_solution
        assert np.isnan(best.duality_gap)
        assert best.iterations == 0

    def test_other_value_error_in_loop_propagates(self, monkeypatch):
        # Only a NaN or inf ends the loop quietly; any other ValueError
        # (a shape bug, say) surfaces instead of becoming a ConvergenceError.
        problem = SdpProblem(random_psd(np.random.default_rng(25), 4))
        assert certificate_declines(problem)

        def broken(a):
            raise ValueError("shapes do not match")

        monkeypatch.setattr(lapack, "cho_factor", broken)
        with pytest.raises(ValueError, match="shapes do not match"):
            solve(problem)

    def test_n1(self):
        sol = solve(SdpProblem(objective=np.array([[2.5]])))
        assert sol.gram[0, 0] == 1.0
        assert sol.objective_value == 2.5
        assert sol.duality_gap == 0.0

    def test_diagonal_objective(self):
        b = np.diag([3.0, 1.0, 0.5]).astype(complex)
        sol = solve(SdpProblem(objective=b))
        assert sol.objective_value == pytest.approx(4.5, abs=1e-6)

    def test_pi3_instance_value(self):
        sol = solve(SdpProblem(objective=PI3_B))
        assert sol.objective_value == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_certificates(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 12))
        b = random_psd(gen, n)
        sol = solve(SdpProblem(objective=b))
        lam_max_gram = float(np.max(np.linalg.eigvalsh(sol.gram)))
        assert sol.diag_residual <= 1e-8
        assert sol.min_eigenvalue >= -1e-8 * max(1.0, lam_max_gram)
        assert sol.duality_gap <= 1e-7 * max(1.0, abs(sol.objective_value))

    @pytest.mark.parametrize("seed", range(8))
    def test_upper_bounded_by_n_lambda_max(self, seed):
        gen = np.random.default_rng(100 + seed)
        n = int(gen.integers(2, 10))
        b = random_psd(gen, n)
        sol = solve(SdpProblem(objective=b))
        n_lam = n * float(np.max(np.linalg.eigvalsh(b)))
        assert sol.objective_value <= n_lam + 1e-8 * max(1.0, n_lam)


def fisher_instance(n, m, seed):
    """(B, channel, scenario) of a sampled Fisher instance."""
    rng = RngStream(seed, 0)
    scenario = sample_scenario(ScenarioConfig(n_sensors=n, n_antennas=m), rng.child(0))
    channel = generate_channel(scenario, rng.child(1))
    return fisher_matrix(channel, scenario), channel, scenario


class TestRankOneCertificate:
    """``solve`` returns a certified rank-one optimum a a^H, with
    ``iterations`` counting its power steps, when the dual bound from a
    meets a^H B a."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (10, 1), (30, 2), (100, 3)])
    def test_single_antenna_is_co_phasing(self, n, seed):
        # M = 1: B = h^H h / c with c the scalar noise covariance, so the
        # optimum co-phases the sensors, a_i = conj(h_i) / |h_i|, with value
        # (sum |h_i|)^2 / c.
        b, channel, scenario = fisher_instance(n, 1, seed)
        h = channel.matrix[0]
        c = float(np.real(noise_covariance(channel, scenario)[0, 0]))
        problem = SdpProblem(b)
        sol = solve(problem)
        assert_certified(sol, problem)
        assert sol.objective_value == pytest.approx(np.sum(np.abs(h)) ** 2 / c, rel=1e-12)
        a = extract_rank_one(sol, problem, RngStream(0, 0))
        ratio = a / phase_normalize(h.conj())
        np.testing.assert_allclose(ratio, ratio[0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["fisher", "random"])
    def test_two_sensors_match_closed_form(self, kind, seed):
        b = fisher_instance(2, 4, seed)[0] if kind == "fisher" else \
            random_psd(np.random.default_rng(seed), 2)
        problem = SdpProblem(b)
        sol = solve(problem)
        best = quad(optimize_phases_n2(b), b)
        assert_certified(sol, problem)
        assert sol.objective_value == pytest.approx(best, rel=1e-12)
        a = extract_rank_one(sol, problem, RngStream(seed, 0))
        assert quad(a, b) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n,m,seed", [(4, 4, 0), (6, 4, 1), (10, 4, 2), (30, 1, 3),
                                          (5, 16, 4)])
    def test_certified_dual_is_feasible(self, n, m, seed):
        # With fisher_factor's F (M < N only) or the one derived from
        # eigh(B), the certificate lifts y by each coordinate's share of the
        # gap budget, so the least lift is at most that share.
        b, channel, scenario = fisher_instance(n, m, seed)
        for problem in (SdpProblem(b), SdpProblem(b, fisher_factor(channel, scenario))):
            sol = solve(problem)
            assert_certified(sol, problem)
            a = sol.gram[:, 0]  # a conj(a_0): a up to a global phase
            y = np.real(a.conj() * (b @ a))
            lam_min = float(np.min(np.linalg.eigvalsh(np.diag(y) - b)))
            obj = quad(a, b)
            tol = sdp.GAP_TOL * max(1.0, abs(obj))
            assert lam_min >= -tol / n
            assert np.sum(y) + n * max(0.0, -lam_min) >= obj
            assert sol.duality_gap <= tol
            assert sol.diag_residual <= 1e-12
            assert sol.min_eigenvalue >= -1e-12 * n

    @pytest.mark.parametrize("seed", range(6))
    def test_dual_bound_holds_for_any_phases(self, seed):
        # Weak duality: for any unit-modulus a, sum(y) + N max(0,
        # -lambda_min(Diag(y) - B)) bounds the relaxation from above.
        gen = np.random.default_rng(500 + seed)
        n = int(gen.integers(3, 12))
        b = random_psd(gen, n)
        value = solve(SdpProblem(b)).objective_value
        a = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, n))
        y = np.real(a.conj() * (b @ a))
        bound = np.sum(y) + n * max(0.0, -float(np.min(np.linalg.eigvalsh(np.diag(y) - b))))
        assert bound >= value * (1 - 1e-9)

    def test_declined_on_loose_relaxation(self):
        # A Fisher instance at N = 30, M = 4 whose relaxation has no
        # certified rank-one optimum: the IPM runs.
        problem = SdpProblem(fisher_instance(30, 4, 0)[0])
        assert certificate_declines(problem)
        assert_interior_point(solve(problem), problem)

    def test_declined_with_factor_leaves_the_interior_point_bits(self):
        # The factor feeds only the certificate: the IPM starts from its own
        # eigvalsh(B) and returns the same gram, byte for byte.
        b, channel, scenario = fisher_instance(30, 4, 0)
        factored = SdpProblem(b, fisher_factor(channel, scenario))
        assert certificate_declines(factored)
        assert solve(factored).gram.tobytes() == solve(SdpProblem(b)).gram.tobytes()

    @pytest.mark.parametrize("factor,match", [
        (np.ones((1, 3)), "N columns"),
        (np.full((1, 2), np.nan), "N columns"),
        (np.ones(2), "N columns"),
        (np.full((1, 2), 2.0), "diag"),
    ], ids=["columns", "nan", "vector", "diagonal"])
    def test_bad_factor_rejected(self, factor, match):
        with pytest.raises(ConfigurationError, match=match):
            SdpProblem(PI3_B, factor)

    def test_nan_certificate_falls_through_to_ipm(self, monkeypatch):
        # The certificate's only eigvalsh call is its dual test, the first
        # call; a NaN there must send solve on to the IPM.
        problem = SdpProblem(fisher_instance(6, 1, 0)[0])
        certified = solve(problem)
        assert_certified(certified, problem)
        eigvalsh, calls = lapack.eigvalsh, []

        def nan_first(a):
            calls.append(a)
            return np.full(len(a), np.nan) if len(calls) == 1 else eigvalsh(a)

        monkeypatch.setattr(lapack, "eigvalsh", nan_first)
        sol = solve(problem)
        assert_interior_point(sol, problem)
        assert sol.duality_gap <= sdp.GAP_TOL * max(1.0, abs(sol.objective_value))
        assert sol.objective_value == pytest.approx(certified.objective_value, rel=1e-7)


class TestIndefiniteObjective:
    """Without a factor the certificate works from B's PSD part F^H F >= B,
    so its bound holds for any Hermitian B, indefinite or zero."""

    def test_zero_is_certified(self):
        sol = solve(SdpProblem(np.zeros((3, 3))))
        assert sol.factor.shape == (3, 1)
        assert sol.objective_value == 0.0
        assert 0.0 <= sol.duality_gap <= sdp.GAP_TOL

    @pytest.mark.parametrize("b", [-np.eye(3), np.diag([1.0, -1.0])],
                             ids=["minus_identity", "diag_1_minus_1"])
    def test_negative_part_declined(self, b):
        problem = SdpProblem(b)
        assert certificate_declines(problem)
        assert_interior_point(solve(problem), problem)

    def test_certified_bound_holds(self):
        # G G^H of rank r <= n less s I, s from 1e-14 to 1: indefinite for
        # r < n, and certified when s is small enough.
        indefinite = 0
        for seed in range(40):
            gen = np.random.default_rng(900 + seed)
            n = int(gen.integers(2, 9))
            r = int(gen.integers(1, n + 1))
            g = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
            problem = SdpProblem(g @ g.conj().T - 10.0 ** gen.uniform(-14, 0) * np.eye(n))
            b = problem.objective
            sol = certificate(problem)
            if sol is None:
                continue
            indefinite += np.linalg.eigvalsh(b)[0] < 0
            a = sol.factor[:, 0]
            assert abs(sol.objective_value - quad(a, b)) <= 1e-12 * max(1.0, abs(quad(a, b)))
            ipm = sdp._interior_point(b)
            assert sol.objective_value + sol.duality_gap \
                >= ipm.objective_value - ipm.duality_gap
        assert indefinite > 0


def reference_extract_rank_one(solution, problem, rng, num_candidates=100):
    """The rounding before ``SdpSolution`` carried a factor: it
    eigendecomposes the gram itself and scores each candidate with a
    three-operand einsum."""
    b = problem.objective
    n = problem.dimension
    w, u = lapack.eigh(solution.gram)
    w = np.where(w < sdp.EIG_CLIP_REL * max(w[-1], 0.0), 0.0, w)
    gen = rng.generator()
    candidates = [phase_normalize(u[:, -1]), np.ones(n, dtype=complex)]
    thetas = gen.uniform(0.0, 2.0 * np.pi, size=(num_candidates, n))
    r = np.exp(1j * thetas)
    candidates.append(phase_normalize((u * np.sqrt(w)[np.newaxis, :]) @ r.T))
    pool = np.column_stack(candidates)
    vals = np.real(np.einsum("ik,ij,jk->k", pool.conj(), b, pool))
    return pool[:, int(np.argmax(vals))]


# Fisher instances (N, M = 4, seed) that the certificate declines.
IPM_INSTANCES = [(10, 4), (10, 8), (30, 0), (30, 1), (30, 4), (30, 5)]


class TestFactor:
    """``SdpSolution.factor`` V carries gram = V V^H, and the rounding draws
    its candidates from it without an eigendecomposition of its own."""

    @pytest.mark.parametrize("n,m,seed", [(2, 4, 0), (10, 4, 1), (30, 1, 3), (100, 1, 3)])
    def test_certified_factor_is_a(self, n, m, seed):
        problem = SdpProblem(fisher_instance(n, m, seed)[0])
        sol = solve(problem)
        assert_certified(sol, problem)
        assert sol.factor.shape == (n, 1)
        assert sol.min_eigenvalue == 0.0
        a = sol.factor[:, 0]
        np.testing.assert_array_equal(sol.gram, np.outer(a, a.conj()))
        eps = np.finfo(float).eps
        np.testing.assert_allclose(sol.factor @ sol.factor.conj().T, sol.gram,
                                   rtol=0.0, atol=4 * eps)

    @pytest.mark.parametrize("n,seed", IPM_INSTANCES)
    def test_interior_point_factor_up_to_clipped_part(self, n, seed):
        problem = SdpProblem(fisher_instance(n, 4, seed)[0])
        assert certificate_declines(problem)
        sol = solve(problem)
        assert sol.factor.shape == (n, n)
        w = lapack.eigh(sol.gram)[0]
        assert sol.min_eigenvalue == w[0]
        # V V^H drops the eigenvalues below EIG_CLIP_REL * lambda_max.
        clipped = w[w < sdp.EIG_CLIP_REL * w[-1]]
        bound = np.max(np.abs(clipped), initial=0.0) + 16 * n * np.finfo(float).eps * w[-1]
        assert np.abs(sol.factor @ sol.factor.conj().T - sol.gram).max() <= bound

    def test_rounding_makes_no_eigensolve(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(lapack, name)
            monkeypatch.setattr(lapack, name, lambda a, name=name, real=real:
                                (calls.append(name), real(a))[1])
        ipm_problem = SdpProblem(fisher_instance(30, 4, 0)[0])
        ipm = solve(ipm_problem)
        problem = SdpProblem(fisher_instance(100, 1, 3)[0])
        calls.clear()
        certified = solve(problem)
        # The derived factor, the certificate's start and its dual test.
        assert calls == ["eigh", "eigh", "eigvalsh"]
        extract_rank_one(certified, problem, RngStream(0, 0))
        extract_rank_one(ipm, ipm_problem, RngStream(0, 0))
        assert calls == ["eigh", "eigh", "eigvalsh"]

    @pytest.mark.parametrize("n,seed", IPM_INSTANCES)
    def test_interior_point_rounding_matches_reference(self, n, seed):
        b = fisher_instance(n, 4, seed)[0]
        problem = SdpProblem(b)
        assert certificate_declines(problem)
        sol = solve(problem)
        for k in range(4):
            value = quad(extract_rank_one(sol, problem, RngStream(seed, k)), b)
            expected = quad(reference_extract_rank_one(sol, problem, RngStream(seed, k)), b)
            assert value == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestDirectLapack:
    """The IPM's LAPACK calls (``phasefuse.lapack``) give scipy.linalg's
    results bit for bit, for real and complex input."""

    @staticmethod
    def hermitian(gen, n):
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        return g + g.conj().T

    @pytest.mark.parametrize("n", [2, 10, 30, 60])
    def test_eigh_matches_scipy(self, n):
        gen = np.random.default_rng(n)
        for c in (self.hermitian(gen, n), random_psd(gen, n)):
            for a in (c, c.real.copy()):
                w, v = lapack.eigh(a)
                w_ref, v_ref = sla.eigh(a)
                assert (w.dtype, v.dtype) == (w_ref.dtype, v_ref.dtype)
                assert w.tobytes() == w_ref.tobytes()
                assert v.tobytes() == v_ref.tobytes()
                assert lapack.eigvalsh(a).tobytes() == sla.eigvalsh(a).tobytes()

    @pytest.mark.parametrize("n", [2, 10, 30, 60])
    def test_step_length_matches_scipy(self, n):
        gen = np.random.default_rng(100 + n)
        x, dx = random_psd(gen, n) + np.eye(n), self.hermitian(gen, n)
        lam = sla.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lam < 0
        step = np.float64(sdp._max_step(x, dx))
        assert step.tobytes() == np.float64(-1.0 / lam).tobytes()

    @pytest.mark.parametrize("n", [2, 10, 30, 60])
    def test_cholesky_solve_matches_scipy(self, n):
        gen = np.random.default_rng(200 + n)
        g = gen.standard_normal((n, n))
        real = g @ g.T + n * np.eye(n), gen.standard_normal(n)
        cplx = random_psd(gen, n) + n * np.eye(n), self.hermitian(gen, n)[:, :3]
        for a, rhs in (real, cplx):
            c = lapack.cho_factor(a)
            c_ref = sla.cho_factor(a, lower=True)
            assert c.dtype == c_ref[0].dtype and c.tobytes() == c_ref[0].tobytes()
            x, x_ref = lapack.cho_solve(c, rhs), sla.cho_solve(c_ref, rhs)
            assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
            x = lapack.solve_triangular(c, rhs)
            x_ref = sla.solve_triangular(c, rhs, lower=True)
            assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()

    def test_non_pd_raises_linalg_error(self):
        gen = np.random.default_rng(3)
        x, dx = self.hermitian(gen, 6), self.hermitian(gen, 6)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._max_step(x - 20.0 * np.eye(6), dx)
        with pytest.raises(np.linalg.LinAlgError):
            lapack.cho_factor(-np.eye(6))

    def test_non_finite_raises_value_error(self):
        gen = np.random.default_rng(4)
        x, dx = random_psd(gen, 6) + np.eye(6), self.hermitian(gen, 6)
        bad = dx.copy()
        bad[2, 3] = np.nan
        for call in (lambda: sdp._max_step(x, bad), lambda: sdp._max_step(bad, dx),
                     lambda: lapack.eigh(bad), lambda: lapack.cho_factor(np.real(bad)),
                     lambda: lapack.cho_solve(np.eye(6), np.full(6, np.inf))):
            with pytest.raises(ValueError, match="infs or NaNs"):
                call()


class TestExtractRankOne:
    def test_exact_rank_one_recovery(self):
        gen = np.random.default_rng(3)
        n = 5
        a_true = np.exp(1j * gen.uniform(0, 2 * np.pi, n))
        gram = np.outer(a_true, a_true.conj())
        b = random_psd(gen, n)
        problem = SdpProblem(objective=b)
        from phasefuse.sdp import SdpSolution
        sol = SdpSolution(gram=gram, factor=a_true[:, None], objective_value=quad(a_true, b),
                          duality_gap=0.0, diag_residual=0.0,
                          min_eigenvalue=0.0, iterations=0)
        a = extract_rank_one(sol, problem, RngStream(0, 0))
        # equal up to one global rotation
        rot = a_true[0] / a[0]
        assert np.allclose(a * rot, a_true, atol=1e-10)
        assert quad(a, b) == pytest.approx(quad(a_true, b), rel=1e-10)

    def test_pi3_instance(self):
        problem = SdpProblem(objective=PI3_B)
        sol = solve(problem)
        a = extract_rank_one(sol, problem, RngStream(1, 0))
        assert quad(a, PI3_B) == pytest.approx(3.0, abs=1e-6)

    def test_unit_modulus_exact(self):
        gen = np.random.default_rng(4)
        problem = SdpProblem(objective=random_psd(gen, 6))
        sol = solve(problem)
        a = extract_rank_one(sol, problem, RngStream(2, 0))
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12

    def test_never_worse_than_all_ones(self, monkeypatch):
        gen = np.random.default_rng(5)
        monkeypatch.setattr(sdp, "NUM_CANDIDATES", 1)
        for k in range(20):
            b = random_psd(gen, 5)
            problem = SdpProblem(objective=b)
            sol = solve(problem)
            a = extract_rank_one(sol, problem, RngStream(3, k))
            assert quad(a, b) >= quad(np.ones(5), b) - 1e-12

    def test_deterministic_given_stream(self):
        gen = np.random.default_rng(6)
        problem = SdpProblem(objective=random_psd(gen, 5))
        sol = solve(problem)
        a1 = extract_rank_one(sol, problem, RngStream(4, 7))
        a2 = extract_rank_one(sol, problem, RngStream(4, 7))
        assert np.array_equal(a1, a2)

    def test_global_phase_invariance(self):
        gen = np.random.default_rng(7)
        b = random_psd(gen, 4)
        a = np.exp(1j * gen.uniform(0, 2 * np.pi, 4))
        for phi in (0.3, 1.5, 5.0):
            assert quad(a * np.exp(1j * phi), b) == pytest.approx(quad(a, b),
                                                                  rel=1e-12)

    def test_relaxation_sandwich(self):
        gen = np.random.default_rng(8)
        for k in range(20):
            n = int(gen.integers(2, 8))
            b = random_psd(gen, n)
            problem = SdpProblem(objective=b)
            sol = solve(problem)
            a = extract_rank_one(sol, problem, RngStream(5, k))
            n_lam = n * float(np.max(np.linalg.eigvalsh(b)))
            slack = 1e-8 * max(1.0, n_lam)
            assert quad(a, b) <= sol.objective_value + slack
            assert sol.objective_value <= n_lam + slack


class TestPhaseNormalize:
    def test_zeros_map_to_one(self):
        out = phase_normalize(np.array([0.0 + 0.0j, 3.0 + 4.0j]))
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.6 + 0.8j)
