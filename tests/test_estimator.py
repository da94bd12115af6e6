import numpy as np
import pytest

from phasefuse import estimator
from phasefuse.channel import ChannelRealization, Scenario
from phasefuse.errors import ConfigurationError, DegenerateInstanceError
from phasefuse.estimator import (
    estimator_variance,
    fisher_factor,
    fisher_matrix,
    ml_estimate,
    ml_weights,
    noise_covariance,
    variance_lower_bound,
)
from phasefuse.phase_opt import ALL_ONES, PhaseStrategy, optimize_phases
from phasefuse.rng import RngStream


def scenario_of(h, sv, fc, alpha=0.0):
    m, n = h.shape
    return Scenario(
        n_sensors=n, n_antennas=m, path_loss_exp=alpha, fc_noise_power=fc,
        distances=np.ones(n), sensor_noise_powers=np.asarray(sv, dtype=float),
    )


def channel_of(h):
    return ChannelRealization(matrix=np.asarray(h, dtype=complex))


def random_instance(gen, n, m, sv_range=(0.001, 0.01), fc=0.1):
    h = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
    sv = gen.uniform(*sv_range, n)
    return channel_of(h), scenario_of(h, sv, fc)


PI3_B = np.array([
    [1.0, 0.5 * np.exp(1j * np.pi / 3)],
    [0.5 * np.exp(-1j * np.pi / 3), 1.0],
])


class TestNoiseCovariance:
    def test_zero_channel(self):
        h = np.zeros((3, 2))
        c = noise_covariance(channel_of(h), scenario_of(h, [0.01, 0.01], 0.1))
        assert np.allclose(c, 0.1 * np.eye(3))

    def test_scalar_example(self):
        h = np.array([[0.5]])
        c = noise_covariance(channel_of(h), scenario_of(h, [0.01], 0.1))
        assert c[0, 0] == pytest.approx(0.1025, abs=1e-15)

    def test_gram_structure_psd(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            ch, scn = random_instance(gen, 5, 3)
            c = noise_covariance(ch, scn)
            resid = c - scn.fc_noise_power * np.eye(3)
            assert np.min(np.linalg.eigvalsh(resid)) >= -1e-12


class TestFisherMatrix:
    def test_scalar_example(self):
        h = np.array([[0.5]])
        b = fisher_matrix(channel_of(h), scenario_of(h, [0.01], 0.1))
        assert b[0, 0] == pytest.approx(0.25 / 0.1025, rel=1e-14)

    def test_zero_sensor_noise(self):
        gen = np.random.default_rng(1)
        h = gen.standard_normal((3, 4)) + 1j * gen.standard_normal((3, 4))
        b = fisher_matrix(channel_of(h), scenario_of(h, np.zeros(4), 0.2))
        assert np.allclose(b, h.conj().T @ h / 0.2, rtol=1e-12)

    @pytest.mark.parametrize("n,m", [(4, 6), (6, 4), (2, 8), (8, 2), (1, 5), (10, 16),
                                     (4, 128)])
    def test_dual_formula_identity(self, n, m):
        # Independent oracle: the matrix-inversion-lemma expansion, computed
        # with plain numpy inverses.
        gen = np.random.default_rng(n * 10 + m)
        for _ in range(25):
            ch, scn = random_instance(gen, n, m)
            h, sv, s = ch.matrix, scn.sensor_noise_powers, scn.fc_noise_power
            g = h.conj().T @ h
            oracle = g / s - g @ np.linalg.inv(np.diag(1.0 / sv) + g / s) @ g / s**2
            b = fisher_matrix(ch, scn)
            err = np.linalg.norm(b - oracle) / max(1.0, np.linalg.norm(oracle))
            assert err < 1e-10

    @pytest.mark.parametrize("n,m,sv", [(2, 4, 0.01), (4, 2, 0.01), (4, 2, 0.0)],
                             ids=["lemma", "direct", "direct-noiseless-sensors"])
    def test_overflow_is_degenerate(self, n, m, sv):
        # H^H H (or C) overflows; with noiseless sensors C = s I is finite
        # and B = H^H H / s overflows instead.
        h = 1e200 * np.ones((m, n))
        with pytest.raises(DegenerateInstanceError, match="overflows"):
            fisher_matrix(channel_of(h), scenario_of(h, np.full(n, sv), 0.1))

    @pytest.mark.parametrize("n,m", [(2, 1), (6, 4), (8, 2), (30, 1), (40, 16)])
    def test_factor_reproduces_b(self, n, m):
        gen = np.random.default_rng(n * 10 + m)
        for _ in range(10):
            ch, scn = random_instance(gen, n, m)
            b, f = fisher_matrix(ch, scn), fisher_factor(ch, scn)
            assert f.shape == (m, n)
            np.testing.assert_allclose(f.conj().T @ f, b, rtol=0.0,
                                       atol=1e-13 * np.abs(b).max())
            assert variance_lower_bound(b, f) == pytest.approx(variance_lower_bound(b),
                                                               rel=1e-13)

    @pytest.mark.parametrize("call", [
        variance_lower_bound,
        lambda b, f: optimize_phases(b, PhaseStrategy(ALL_ONES), RngStream(0), f),
    ], ids=["variance_lower_bound", "optimize_phases"])
    @pytest.mark.parametrize("n_other,match", [
        (5, r"^factor has shape \(2, 5\), expected \(M, 6\)"),
        (6, r"^factor F must satisfy diag\(F\^H F\) = diag\(B\)"),
    ], ids=["columns", "other_channel"])
    def test_factor_of_another_channel_rejected(self, call, n_other, match):
        # Either factor would give lambda_max of another B, a wrong bound.
        gen = np.random.default_rng(5)
        b = fisher_matrix(*random_instance(gen, 6, 2))
        with pytest.raises(ConfigurationError, match=match):
            call(b, fisher_factor(*random_instance(gen, n_other, 2)))

    @pytest.mark.parametrize("n,m", [(4, 4), (4, 6), (1, 5)])
    def test_no_factor_unless_fewer_antennas_than_sensors(self, n, m):
        assert fisher_factor(*random_instance(np.random.default_rng(n), n, m)) is None

    def test_factor_of_overflowing_covariance_is_degenerate(self):
        h = 1e200 * np.ones((2, 4))
        with pytest.raises(DegenerateInstanceError, match="overflows"):
            fisher_factor(channel_of(h), scenario_of(h, np.full(4, 0.01), 0.1))

    def test_hermitian_psd(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            ch, scn = random_instance(gen, 5, 4)
            b = fisher_matrix(ch, scn)
            assert np.abs(b - b.conj().T).max() <= 1e-12 * np.abs(b).max()
            ev = np.linalg.eigvalsh(b)
            assert ev[0] >= -1e-10 * ev[-1]

    def test_scale_covariance(self):
        gen = np.random.default_rng(3)
        ch, scn = random_instance(gen, 4, 3)
        t = 3.7
        scaled = scenario_of(ch.matrix, scn.sensor_noise_powers * t,
                             scn.fc_noise_power * t)
        b = fisher_matrix(ch, scn)
        bt = fisher_matrix(ch, scaled)
        assert np.allclose(bt, b / t, rtol=1e-12)
        a = np.exp(1j * gen.uniform(0, 2 * np.pi, 4))
        assert estimator_variance(a, bt) == pytest.approx(
            t * estimator_variance(a, b), rel=1e-12)
        assert variance_lower_bound(bt) == pytest.approx(
            t * variance_lower_bound(b), rel=1e-12)


# Each public call that builds or factors C, at M < N and M > N: the
# lemma path of fisher_matrix, the M >= N None of fisher_factor.
NOISE_MODEL_CALLS = {
    "noise_covariance": noise_covariance,
    "fisher_matrix": fisher_matrix,
    "fisher_factor": fisher_factor,
    "ml_weights": lambda ch, scn: ml_weights(ch, scn, np.ones(scn.n_sensors)),
}


class TestNoiseModel:
    @pytest.mark.parametrize("n,m", [(4, 2), (2, 4)])
    @pytest.mark.parametrize("call", NOISE_MODEL_CALLS.values(), ids=NOISE_MODEL_CALLS.keys())
    def test_channel_checked_once_per_call(self, monkeypatch, call, n, m):
        seen = []

        def counting(channel, scenario):
            seen.append(channel)
            return channel.matrix

        ch, scn = random_instance(np.random.default_rng(0), n, m)
        monkeypatch.setattr(estimator, "channel_matrix", counting)
        call(ch, scn)
        assert seen == [ch]

    @pytest.mark.parametrize("n,m", [(4, 2), (2, 2), (2, 4)])
    @pytest.mark.parametrize("call", NOISE_MODEL_CALLS.values(), ids=NOISE_MODEL_CALLS.keys())
    def test_zero_fc_noise_rejected_at_every_m(self, call, n, m):
        # With sensor noise but none at the FC, C may be singular.
        ch, scn = random_instance(np.random.default_rng(1), n, m, fc=0.0)
        with pytest.raises(ConfigurationError,
                           match="^fc_noise_power must be positive for estimation$"):
            call(ch, scn)

    @pytest.mark.parametrize("n,m", [(4, 2), (3, 3), (2, 5)])
    def test_noiseless_weights_are_the_matched_filter(self, n, m):
        gen = np.random.default_rng(n + m)
        ch, scn = random_instance(gen, n, m, sv_range=(0.0, 0.0), fc=0.0)
        a = np.exp(1j * gen.uniform(0, 2 * np.pi, n))
        g, q = ml_weights(ch, scn, a)
        ha = ch.matrix @ a
        assert np.array_equal(g, ha)
        assert q == float(np.real(np.vdot(ha, ha)))
        theta = 0.8 - 0.6j
        assert ml_estimate(ha * theta, ch, scn, a) == pytest.approx(theta, abs=1e-15)

    def test_noiseless_zero_channel_degenerate(self):
        h = np.zeros((2, 3))
        with pytest.raises(DegenerateInstanceError, match="vanishes"):
            ml_weights(channel_of(h), scenario_of(h, np.zeros(3), 0.0), np.ones(3))


class TestMlEstimate:
    def test_noiseless_consistency(self):
        gen = np.random.default_rng(4)
        ch, scn = random_instance(gen, 4, 3)
        theta = 1.3 - 0.4j
        a = np.exp(1j * gen.uniform(0, 2 * np.pi, 4))
        y = ch.matrix @ (a * theta)
        assert ml_estimate(y, ch, scn, a) == pytest.approx(theta, abs=1e-12)

    def test_linearity_in_y(self):
        gen = np.random.default_rng(5)
        ch, scn = random_instance(gen, 3, 3)
        a = np.ones(3, dtype=complex)
        y = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        kappa = 2.0 + 0.7j
        est = ml_estimate(y, ch, scn, a)
        assert ml_estimate(kappa * y, ch, scn, a) == pytest.approx(kappa * est,
                                                                   rel=1e-12)

    def test_zero_channel_degenerate(self):
        h = np.zeros((2, 2))
        with pytest.raises(DegenerateInstanceError):
            ml_estimate(np.ones(2, dtype=complex), channel_of(h),
                        scenario_of(h, [0.01, 0.01], 0.1), np.ones(2))

    def test_overflowing_covariance_is_degenerate(self):
        h = 1e200 * np.ones((4, 2))  # C = H V H^H + s I overflows
        with pytest.raises(DegenerateInstanceError, match="overflows"):
            ml_estimate(np.ones(4, dtype=complex), channel_of(h),
                        scenario_of(h, [0.01, 0.01], 0.1), np.ones(2))


class TestEstimatorVariance:
    def test_identity_b(self):
        a = np.exp(1j * np.array([0.3, 1.1, 4.0]))
        assert estimator_variance(a, np.eye(3)) == pytest.approx(1.0 / 3.0)

    def test_diag_b(self):
        assert estimator_variance(np.ones(2), np.diag([2.0, 1.0])) \
            == pytest.approx(1.0 / 3.0)

    def test_pi3_instance(self):
        a = np.array([np.exp(1j * np.pi / 3), 1.0])
        assert estimator_variance(a, PI3_B) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_theta_never_read(self):
        # variance depends only on (a, B); no theta argument exists
        import inspect
        assert "theta" not in inspect.signature(estimator_variance).parameters

    def test_zero_b_degenerate(self):
        with pytest.raises(DegenerateInstanceError):
            estimator_variance(np.ones(2), np.zeros((2, 2)))


class TestVarianceLowerBound:
    def test_diag(self):
        assert variance_lower_bound(np.diag([2.0, 1.0])) == pytest.approx(0.25)

    def test_pi3_tight(self):
        lb = variance_lower_bound(PI3_B)
        assert lb == pytest.approx(1.0 / 3.0, rel=1e-12)
        a = np.array([np.exp(1j * np.pi / 3), 1.0])
        assert estimator_variance(a, PI3_B) == pytest.approx(lb, rel=1e-12)

    def test_dominance_over_random_phases(self):
        gen = np.random.default_rng(6)
        g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        b = g @ g.conj().T
        lb = variance_lower_bound(b)
        for _ in range(1000):
            a = np.exp(1j * gen.uniform(0, 2 * np.pi, 4))
            assert lb <= estimator_variance(a, b) + 1e-12

    def test_zero_b_degenerate(self):
        with pytest.raises(DegenerateInstanceError):
            variance_lower_bound(np.zeros((3, 3)))
