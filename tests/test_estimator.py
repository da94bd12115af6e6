import numpy as np
import pytest

from phasefuse.channel import ChannelRealization, Scenario
from phasefuse.errors import DegenerateInstanceError
from phasefuse.estimator import (
    estimator_variance,
    fisher_matrix,
    ml_estimate,
    noise_covariance,
    variance_lower_bound,
)


def scenario_of(h, sv, fc, alpha=0.0):
    m, n = h.shape
    return Scenario(
        n_sensors=n, n_antennas=m, path_loss_exp=alpha, fc_noise_power=fc,
        distances=np.ones(n), sensor_noise_powers=np.asarray(sv, dtype=float),
    )


def channel_of(h):
    return ChannelRealization(matrix=np.asarray(h, dtype=complex),
                              phases=np.zeros(h.shape))


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
