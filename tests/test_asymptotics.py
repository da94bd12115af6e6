import numpy as np
import pytest

from phasefuse.asymptotics import (
    bound_ratio,
    large_m_variance,
    large_n_lower_bound,
    single_antenna_upper_bound,
)
from phasefuse.channel import Scenario
from phasefuse.errors import ConfigurationError


def inputs_of(d, sv, fc=0.1, alpha=1.0, m=1):
    return Scenario(
        n_sensors=len(d), n_antennas=m, path_loss_exp=alpha, fc_noise_power=fc,
        distances=d, sensor_noise_powers=sv,
    )


def random_inputs(gen, n=None, m=1):
    n = n or int(gen.integers(1, 30))
    return inputs_of(
        gen.uniform(2.0, 7.0, n), gen.uniform(0.001, 0.01, n),
        fc=gen.uniform(0.01, 1.0), alpha=gen.uniform(0.0, 2.0), m=m,
    )


class TestLargeNLowerBound:
    def test_homogeneous_arithmetic(self):
        inp = inputs_of([2.0] * 100, [0.01] * 100)
        # (0.1 + 100*0.01/4) / (100 * 100/4)
        assert large_n_lower_bound(inp) == pytest.approx(1.4e-4, rel=1e-12)

    def test_zero_noise_limit(self):
        inp = inputs_of([3.0, 4.0], [0.0, 0.0], fc=0.0)
        assert large_n_lower_bound(inp) == 0.0

    def test_homogeneous_equals_upper_bound(self):
        inp = inputs_of([5.0] * 40, np.linspace(0.001, 0.01, 40))
        assert large_n_lower_bound(inp) == pytest.approx(
            single_antenna_upper_bound(inp), rel=1e-14)


class TestSingleAntennaUpperBound:
    def test_homogeneous_arithmetic(self):
        inp = inputs_of([2.0] * 100, [0.01] * 100)
        assert single_antenna_upper_bound(inp) == pytest.approx(1.4e-4, rel=1e-12)

    def test_single_sensor(self):
        inp = inputs_of([3.0], [0.004], fc=0.2, alpha=1.5)
        d2a = 3.0 ** 3.0
        assert single_antenna_upper_bound(inp) == pytest.approx(
            (0.2 + 0.004 / d2a) * d2a, rel=1e-12)

    def test_dominates_lower_bound(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            inp = random_inputs(gen)
            assert single_antenna_upper_bound(inp) >= large_n_lower_bound(inp) \
                - 1e-15


class TestBoundRatio:
    def test_equal_distances_exactly_one(self):
        for d in (4.0, 3.3, 5.77):
            inp = inputs_of([d] * 17, np.linspace(0.001, 0.01, 17))
            assert bound_ratio(inp) == 1.0

    def test_two_point_arithmetic(self):
        inp = inputs_of([1.0, 2.0], [0.001, 0.001], alpha=1.0)
        assert bound_ratio(inp) == pytest.approx(0.9, rel=1e-12)

    def test_cross_operation_identity(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            inp = random_inputs(gen)
            expected = large_n_lower_bound(inp) / single_antenna_upper_bound(inp)
            assert bound_ratio(inp) == pytest.approx(expected, rel=1e-12)

    def test_moment_decomposition(self):
        # ratio = 1 - Var{w} / E{w^2}, population moments of w = 1/d^a
        gen = np.random.default_rng(3)
        for _ in range(200):
            inp = random_inputs(gen)
            w = inp.distances ** (-inp.path_loss_exp)
            expected = 1.0 - np.var(w) / np.mean(w * w)
            assert bound_ratio(inp) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_in_unit_interval(self):
        gen = np.random.default_rng(2)
        for _ in range(100):
            r = bound_ratio(random_inputs(gen))
            assert 0.0 < r <= 1.0 + 1e-15


class TestLargeMVariance:
    def test_arithmetic_example(self):
        inp = inputs_of([2.0] * 4, [0.01] * 4, m=100)
        # per-sensor denominator 4*0.1 + 100*0.01 = 1.4
        assert large_m_variance(inp) == pytest.approx(0.0035, rel=1e-12)

    def test_exact_one_over_m_scaling_when_noiseless_sensors(self):
        d = np.array([2.0, 3.5, 6.0])
        for m in (1, 2, 8, 64):
            inp = inputs_of(d, [0.0] * 3, fc=0.1, m=m)
            expected = 0.1 / (m * np.sum(1.0 / d**2))
            assert large_m_variance(inp) == pytest.approx(expected, rel=1e-12)

    def test_sensor_noise_dominated_limit(self):
        sv = np.array([0.02, 0.05])
        inp = inputs_of([2.0, 3.0], sv, fc=1e-12, m=10**9)
        assert large_m_variance(inp) == pytest.approx(
            1.0 / np.sum(1.0 / sv), rel=1e-3)

    def test_strictly_decreasing_in_m(self):
        gen = np.random.default_rng(3)
        d = gen.uniform(2, 7, 5)
        sv = gen.uniform(0.001, 0.01, 5)
        prev = np.inf
        for m in range(1, 200, 7):
            v = large_m_variance(inputs_of(d, sv, m=m))
            assert v < prev
            prev = v

    def test_factor_two_scaling_in_weak_sensor_noise_regime(self):
        gen = np.random.default_rng(4)
        for _ in range(50):
            n = int(gen.integers(2, 10))
            d = gen.uniform(2, 7, n)
            fc = 0.1
            m = int(gen.integers(1, 65))
            # regime condition: M * max sv <= 0.01 * fc * min d^2
            sv_cap = 0.01 * fc * np.min(d) ** 2 / m
            sv = gen.uniform(0, sv_cap, n)
            r = large_m_variance(inputs_of(d, sv, fc=fc, m=m)) \
                / large_m_variance(inputs_of(d, sv, fc=fc, m=2 * m))
            assert 1.9 <= r <= 2.1


class TestValidation:
    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            inputs_of([2.0, 0.0], [0.01, 0.01])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            inputs_of([2.0, 3.0], [0.01])

    @pytest.mark.parametrize("field,kwargs", [
        ("distances", dict(d=[np.nan, 3.0])),
        ("sensor_noise_powers", dict(sv=[0.01, np.inf])),
        ("fc_noise_power", dict(fc=np.nan)),
        ("path_loss_exp", dict(alpha=np.inf)),
    ])
    def test_non_finite_rejected(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            inputs_of(**{"d": [2.0, 3.0], "sv": [0.01, 0.01], **kwargs})
