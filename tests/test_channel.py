import tracemalloc

import numpy as np
import pytest

from phasefuse.channel import (
    NOISE_BLOCK_ROWS,
    ChannelRealization,
    Scenario,
    ScenarioConfig,
    complex_gaussian,
    generate_channel,
    sample_scenario,
    synthesize_received_signal,
)
from phasefuse.blas import single_threaded
from phasefuse.errors import ConfigurationError
from phasefuse.rng import RngStream


def make_scenario(n=4, m=3, alpha=1.0, fc=0.1, d=None, sv=None, theta=1.0 + 0.0j):
    d = np.full(n, 3.0) if d is None else np.asarray(d, dtype=float)
    sv = np.full(n, 0.005) if sv is None else np.asarray(sv, dtype=float)
    return Scenario(
        n_sensors=n, n_antennas=m, path_loss_exp=alpha, fc_noise_power=fc,
        distances=d, sensor_noise_powers=sv, theta=theta,
    )


def reference_complex_gaussian(gen, variances, size):
    """One-expression form that ``complex_gaussian`` must match bit for bit."""
    scale = np.sqrt(np.asarray(variances, dtype=float) / 2.0)
    return scale * (gen.standard_normal(size) + 1j * gen.standard_normal(size))


def reference_channel(scenario, rng):
    """One-expression form that ``generate_channel`` must match bit for bit."""
    m, n = scenario.n_antennas, scenario.n_sensors
    phases = rng.generator().uniform(0.0, 2.0 * np.pi, size=(m, n))
    amps = scenario.distances ** (-scenario.path_loss_exp)
    return amps[np.newaxis, :] * np.exp(1j * phases), phases


class TestSampleScenario:
    def test_ranges_respected(self):
        cfg = ScenarioConfig(n_sensors=4, n_antennas=2)
        for t in range(50):
            scn = sample_scenario(cfg, RngStream(7, t))
            assert np.all(scn.distances >= 2.0) and np.all(scn.distances <= 7.0)
            assert np.all(scn.sensor_noise_powers >= 0.001)
            assert np.all(scn.sensor_noise_powers <= 0.01)

    def test_degenerate_interval(self):
        cfg = ScenarioConfig(n_sensors=5, n_antennas=2, distance_range=(3.0, 3.0))
        scn = sample_scenario(cfg, RngStream(0, 0))
        assert np.all(scn.distances == 3.0)

    def test_deterministic(self):
        cfg = ScenarioConfig(n_sensors=6, n_antennas=2)
        a = sample_scenario(cfg, RngStream(42, 3))
        b = sample_scenario(cfg, RngStream(42, 3))
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.sensor_noise_powers, b.sensor_noise_powers)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_sensors=2, n_antennas=2, distance_range=(7.0, 2.0))
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_sensors=2, n_antennas=2, sensor_noise_range=(0.0, 0.01))

    @pytest.mark.parametrize("field,value", [
        ("path_loss_exp", np.nan),
        ("fc_noise_power", np.inf),
        ("distance_range", (np.nan, 7.0)),
        ("sensor_noise_range", (0.001, np.inf)),
        ("theta", complex(1.0, np.nan)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            ScenarioConfig(n_sensors=2, n_antennas=2, **{field: value})


class TestGenerateChannel:
    def test_zero_exponent_unit_modulus(self):
        scn = make_scenario(alpha=0.0, d=[2.0, 5.0, 9.0, 1.5])
        ch = generate_channel(scn, RngStream(1, 0))
        assert np.max(np.abs(np.abs(ch.matrix) - 1.0)) <= 1e-15

    def test_modulus_half_for_d2(self):
        scn = make_scenario(alpha=1.0, d=[2.0] * 4)
        ch = generate_channel(scn, RngStream(1, 1))
        assert np.allclose(np.abs(ch.matrix), 0.5)

    def test_entry_modulus_law(self):
        scn = make_scenario(n=6, m=4, alpha=1.7, d=[2.2, 3.1, 4.0, 5.5, 6.1, 6.9])
        ch = generate_channel(scn, RngStream(2, 0))
        prod = np.abs(ch.matrix) * scn.distances[np.newaxis, :] ** scn.path_loss_exp
        assert np.max(np.abs(prod - 1.0)) < 1e-14

    def test_phases_in_range_and_match_matrix(self):
        scn = make_scenario()
        ch = generate_channel(scn, RngStream(3, 0))
        assert np.all(ch.phases >= 0.0) and np.all(ch.phases < 2 * np.pi)
        rebuilt = (scn.distances ** -scn.path_loss_exp)[np.newaxis, :] * np.exp(1j * ch.phases)
        assert np.allclose(rebuilt, ch.matrix)

    def test_uniform_phase_mean_near_zero(self):
        scn = make_scenario(n=1000, m=100, alpha=0.0, d=np.full(1000, 1.0),
                            sv=np.full(1000, 0.005))
        ch = generate_channel(scn, RngStream(4, 0))  # 1e5 phase draws
        assert abs(np.mean(ch.matrix)) < 0.02

    def test_deterministic(self):
        scn = make_scenario()
        a = generate_channel(scn, RngStream(5, 9))
        b = generate_channel(scn, RngStream(5, 9))
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("n", [4, 30])
    @pytest.mark.parametrize("m", [1, 4, 4000])
    def test_same_bytes_as_reference(self, m, n):
        scn = sample_scenario(
            ScenarioConfig(n_sensors=n, n_antennas=m, path_loss_exp=1.3),
            RngStream(11, m),
        )
        ch = generate_channel(scn, RngStream(12, n))
        matrix, phases = reference_channel(scn, RngStream(12, n))
        assert ch.phases.tobytes() == phases.tobytes()
        assert ch.matrix.dtype == matrix.dtype and ch.matrix.shape == matrix.shape
        assert ch.matrix.tobytes() == matrix.tobytes()


class TestComplexGaussian:
    @pytest.mark.parametrize("variances,size", [
        (np.linspace(0.001, 0.01, 7), 7),
        (np.linspace(0.001, 0.01, 30), (500, 30)),
        (0.1, (500, 16)),
        (0.0, (500, 4)),
        (np.array([0.0, 0.5, 0.0, 2.0]), (500, 4)),
        (np.linspace(0.001, 0.01, 3), (3 * NOISE_BLOCK_ROWS + 5, 3)),
        (0.1, 2 * NOISE_BLOCK_ROWS + 1),
        (np.linspace(0.001, 0.01, 2 * NOISE_BLOCK_ROWS + 1), 2 * NOISE_BLOCK_ROWS + 1),
        (0.1, ()),
    ], ids=["int_size", "per_column_2d", "scalar", "zero", "some_zero_columns",
            "2d_several_blocks", "int_size_several_blocks",
            "per_element_int_size_several_blocks", "zero_dim"])
    def test_same_bytes_as_reference(self, variances, size):
        got = complex_gaussian(np.random.default_rng(13), variances, size)
        ref = reference_complex_gaussian(np.random.default_rng(13), variances, size)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_bytes_per_sample(self):
        # Measured 25.5 bytes per sample: the 16-byte result, the 8-byte real
        # parts and one block. Drawing all the normals at once took 32.
        variances = np.linspace(0.001, 0.01, 30)
        gen = np.random.default_rng(14)
        complex_gaussian(gen, variances, (10, 30))  # warm caches
        tracemalloc.start()
        try:
            out = complex_gaussian(gen, variances, (20000, 30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / out.size <= 28.0


class TestSynthesize:
    def test_noiseless_exact(self):
        scn = make_scenario(fc=0.0, sv=np.zeros(4), theta=2.0 - 1.0j)
        ch = generate_channel(scn, RngStream(6, 0))
        a = np.exp(1j * np.linspace(0, 1, 4))
        y = synthesize_received_signal(scn, ch, a, RngStream(6, 1))
        assert np.allclose(y, ch.matrix @ (a * scn.theta), atol=1e-15)

    def test_zero_theta_zero_noise(self):
        scn = make_scenario(fc=0.0, sv=np.zeros(4), theta=0.0)
        ch = generate_channel(scn, RngStream(6, 2))
        y = synthesize_received_signal(scn, ch, np.ones(4), RngStream(6, 3))
        assert np.all(y == 0)

    def test_many_sensors(self):
        # More sensors than one noise block: v is a single row of
        # per-sensor variances, so it must not be split into blocks.
        n = NOISE_BLOCK_ROWS + 1
        scn = make_scenario(n=n, m=2, sv=np.linspace(0.01, 0.05, n), fc=0.1,
                            d=np.linspace(1.0, 3.0, n))
        ch = generate_channel(scn, RngStream(6, 6))
        a = np.exp(1j * np.linspace(0, 1, n))
        y = synthesize_received_signal(scn, ch, a, RngStream(6, 7))
        gen = RngStream(6, 7).generator()
        v = reference_complex_gaussian(gen, scn.sensor_noise_powers, n)
        noise = reference_complex_gaussian(gen, scn.fc_noise_power, 2)
        h = ch.matrix
        with single_threaded():
            ref = h @ (a * scn.theta) + h @ (a * v) + noise
        assert y.tobytes() == ref.tobytes()

    def test_dimension_mismatch(self):
        scn = make_scenario()
        ch = generate_channel(scn, RngStream(6, 4))
        with pytest.raises(ConfigurationError):
            synthesize_received_signal(scn, ch, np.ones(3), RngStream(6, 5))

    def test_noise_covariance_matches_model(self):
        scn = make_scenario(n=3, m=2, sv=[0.02, 0.05, 0.01], fc=0.1,
                            d=[2.0, 3.0, 4.0])
        ch = generate_channel(scn, RngStream(7, 0))
        a = np.ones(3, dtype=complex)
        clean = ch.matrix @ (a * scn.theta)
        draws = np.array([
            synthesize_received_signal(scn, ch, a, RngStream(8, t)) - clean
            for t in range(10_000)
        ])
        sample_cov = draws.conj().T @ draws / draws.shape[0]
        sample_cov = sample_cov.T  # E[e e^H]
        h = ch.matrix
        expected = (h * scn.sensor_noise_powers) @ h.conj().T \
            + scn.fc_noise_power * np.eye(2)
        err = np.linalg.norm(sample_cov - expected, 2) / np.linalg.norm(expected, 2)
        assert err < 0.05

    def test_circular_symmetry(self):
        scn = make_scenario(n=1, m=1, sv=[0.04], fc=0.09, d=[1.0], alpha=0.0,
                            theta=0.0)
        ch = ChannelRealization(matrix=np.zeros((1, 1), dtype=complex),
                                phases=np.zeros((1, 1)))
        draws = np.array([
            synthesize_received_signal(scn, ch, np.ones(1), RngStream(9, t))[0]
            for t in range(10_000)
        ])
        # FC noise only: each quadrature carries half the power
        assert np.var(draws.real) == pytest.approx(0.045, rel=0.05)
        assert np.var(draws.imag) == pytest.approx(0.045, rel=0.05)


class TestScenarioValidation:
    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scenario(d=[1.0, -1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(n_sensors=3, n_antennas=2, path_loss_exp=1.0,
                     fc_noise_power=0.1, distances=np.ones(2),
                     sensor_noise_powers=np.ones(3) * 0.01)

    @pytest.mark.parametrize("field,kwargs", [
        ("path_loss_exp", dict(alpha=np.nan)),
        ("fc_noise_power", dict(fc=np.inf)),
        ("distances", dict(d=[np.nan, 3.0, 3.0, 3.0])),
        ("sensor_noise_powers", dict(sv=[0.005, np.inf, 0.005, 0.005])),
        ("theta", dict(theta=complex(np.nan, 1.0))),
    ])
    def test_non_finite_rejected(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            make_scenario(**kwargs)

    @pytest.mark.parametrize("n,m", [(0, 2), (2, 0)])
    def test_zero_count_rejected(self, n, m):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            Scenario(n_sensors=n, n_antennas=m, path_loss_exp=1.0, fc_noise_power=0.1,
                     distances=np.full(n, 3.0), sensor_noise_powers=np.full(n, 0.005))

    def test_all_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="must be finite"):
            Scenario(n_sensors=2, n_antennas=2, path_loss_exp=np.nan,
                     fc_noise_power=np.nan, distances=[np.nan, 3.0],
                     sensor_noise_powers=[np.nan, 0.01])


class TestRngStream:
    def test_child_streams_differ(self):
        base = RngStream(123, 5)
        x = base.child(0).generator().uniform(size=8)
        y = base.child(1).generator().uniform(size=8)
        assert not np.array_equal(x, y)

    def test_repeatable(self):
        s = RngStream(99, 2).child(3)
        assert np.array_equal(s.generator().uniform(size=16),
                              s.generator().uniform(size=16))
