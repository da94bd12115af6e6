import tracemalloc

import numpy as np
import pytest

from phasefuse.channel import (
    NOISE_BLOCK_ROWS,
    ChannelRealization,
    Scenario,
    ScenarioConfig,
    check_array,
    check_count,
    complex_gaussian,
    gaussian_projection,
    generate_channel,
    sample_scenario,
    synthesize_received_signal,
)
from phasefuse.blas import single_threaded
from phasefuse.errors import ConfigurationError, DegenerateInstanceError
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
    return amps[np.newaxis, :] * np.exp(1j * phases)


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

    @pytest.mark.parametrize("low,high", [
        ([2, 7], [0.001, 0.01]),
        (np.array([2.0, 7.0]), np.array([0.001, 0.01])),
        ((np.float64(2.0), 7), (0.001, np.float64(0.01))),
    ], ids=["list", "ndarray", "numpy_scalars"])
    def test_ranges_are_stored_as_tuples_of_floats(self, low, high):
        # Configs are values: equal parameters compare equal and hash alike.
        cfg = ScenarioConfig(n_sensors=2, n_antennas=2, distance_range=low,
                             sensor_noise_range=high)
        default = ScenarioConfig(n_sensors=2, n_antennas=2)
        assert cfg.distance_range == (2.0, 7.0)
        assert all(type(x) is float for x in cfg.distance_range + cfg.sensor_noise_range)
        assert cfg == default and hash(cfg) == hash(default)

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
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            ScenarioConfig(n_sensors=2, n_antennas=2, **{field: value})

    def test_negative_path_loss_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="^path_loss_exp must be nonnegative"):
            ScenarioConfig(n_sensors=2, n_antennas=2, path_loss_exp=-1.0)


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.int32(3)])
    def test_whole_numbers_become_ints(self, value):
        count = check_count("n", value)
        assert count == 3 and type(count) is int

    # True == 1, but a flag is not a count.
    @pytest.mark.parametrize("value", [2.5, 0, -1, 0.0, np.nan, np.inf, -np.inf, "3",
                                       None, 1 + 0j, True, np.True_])
    def test_others_rejected(self, value):
        with pytest.raises(ConfigurationError, match="n must be >= 1 and integral"):
            check_count("n", value)

    def test_minimum(self):
        assert check_count("seed", 0, minimum=0) == 0
        with pytest.raises(ConfigurationError, match="seed must be >= 0 and integral"):
            check_count("seed", -1, minimum=0)

    @pytest.mark.parametrize("field", ["n_sensors", "n_antennas"])
    def test_scenario_counts(self, field):
        counts = dict(n_sensors=2, n_antennas=2)
        config = ScenarioConfig(**{**counts, field: 2.0})
        assert type(getattr(config, field)) is int
        rest = dict(path_loss_exp=1.0, fc_noise_power=0.1, distances=np.full(2, 3.0),
                    sensor_noise_powers=np.full(2, 0.005))
        assert type(getattr(Scenario(**{**counts, field: np.int64(2)}, **rest), field)) is int
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1 and integral"):
            ScenarioConfig(**{**counts, field: 2.5})
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1 and integral"):
            Scenario(**{**counts, field: 2.5}, **rest)


class TestCheckArray:
    @pytest.mark.parametrize("value", [2, 2.5, -1.5j, np.float64(0.1), np.uint8(3),
                                       np.array(4.0)])
    def test_scalar_shape_takes_any_number(self, value):
        assert check_array("x", value, ()).shape == ()

    @pytest.mark.parametrize("value,got", [([1.0], r"\(1,\)"), (np.ones((1, 1)), r"\(1, 1\)")])
    def test_scalar_shape_rejects_an_array(self, value, got):
        with pytest.raises(ConfigurationError, match=rf"^x has shape {got}, expected \(\)$"):
            check_array("x", value, ())

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_number_kinds_pass_unconverted(self, dtype):
        array = np.ones((2, 3), dtype=dtype)
        assert check_array("x", array, ("M", "N")) is array

    def test_a_subclass_is_kept(self):
        class Tagged(np.ndarray):
            pass

        array = np.ones(3).view(Tagged)
        assert check_array("x", array, (3,)) is array

    @pytest.mark.parametrize("value,dtype", [
        (np.array([True, False]), "bool"),
        (["1.0", "2.0"], "<U3"),
        (np.array([1.0, "x"], dtype=object), "object"),
        (np.array([1.0, 2.0], dtype=object), "object"),
        (np.array([b"a", b"b"]), "|S1"),
        (np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), r"datetime64\[D\]"),
        ([None, None], "object"),
    ], ids=["bool", "str", "mixed-object", "float-object", "bytes", "datetime", "none"])
    def test_other_kinds_rejected(self, value, dtype):
        with pytest.raises(ConfigurationError,
                           match=rf"^x must hold integer, real or complex numbers, got dtype "
                                 rf"{dtype}$"):
            check_array("x", value, (2,))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                       complex(np.inf, 0.0)])
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_non_finite_rejected(self, entry, shape):
        value = np.full(shape, entry)
        with pytest.raises(ConfigurationError, match="^x must be finite$"):
            check_array("x", value, shape)

    def test_shape_is_checked_before_entries(self):
        with pytest.raises(ConfigurationError, match=r"^x has shape \(2,\), expected \(3,\)$"):
            check_array("x", ["a", "b"], (3,))

    @pytest.mark.parametrize("field,value", [
        ("path_loss_exp", "1.0"),
        ("fc_noise_power", [0.1]),
        ("distance_range", ("a", "b")),
        ("sensor_noise_range", (0.001, None)),
    ])
    def test_scenario_params_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            ScenarioConfig(n_sensors=2, n_antennas=2, **{field: value})

    @pytest.mark.parametrize("field,kwargs", [
        ("distances", dict(distances=["x", "y"])),
        ("sensor_noise_powers", dict(sensor_noise_powers=["0.01", "0.01"])),
        ("theta", dict(theta="1")),
        ("theta", dict(theta=[1.0])),
    ])
    def test_scenario_rejected_naming_the_field(self, field, kwargs):
        values = dict(n_sensors=2, n_antennas=2, path_loss_exp=1.0, fc_noise_power=0.1,
                      distances=[2.0, 3.0], sensor_noise_powers=[0.01, 0.01])
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            Scenario(**values | kwargs)

    def test_scenario_keeps_its_values_and_types(self):
        scn = Scenario(n_sensors=2, n_antennas=2, path_loss_exp=2, fc_noise_power=0.1,
                       distances=[2, 3], sensor_noise_powers=[0.01, 0.01])
        assert type(scn.path_loss_exp) is int and scn.theta == 1.0 + 0.0j
        assert scn.distances.dtype == float and scn.distances.tolist() == [2.0, 3.0]


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
        # The channel keeps only its matrix, whose phases are the stream's
        # first draws, uniform on [0, 2pi).
        scn = make_scenario()
        ch = generate_channel(scn, RngStream(3, 0))
        phases = RngStream(3, 0).generator().uniform(0.0, 2 * np.pi, size=ch.matrix.shape)
        assert np.all(phases >= 0.0) and np.all(phases < 2 * np.pi)
        assert np.abs(np.angle(ch.matrix * np.exp(-1j * phases))).max() <= 1e-12

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
        matrix = reference_channel(scn, RngStream(12, n))
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
        # Measured 24.2 bytes per sample: the 16-byte result and one 8-byte
        # buffer of parts, reused for the imaginary parts. Drawing all the
        # normals at once took 32.
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


class TestGaussianProjection:
    @pytest.mark.parametrize("variances,shape", [
        (np.linspace(0.001, 0.01, 30), (20000, 30)),
        (0.1, (NOISE_BLOCK_ROWS - 1, 16)),
        (np.linspace(0.001, 0.01, 4), (2 * NOISE_BLOCK_ROWS + 1, 4)),
        (np.linspace(0.001, 0.01, 5), (1, 5)),
        (0.0, (300, 4)),
        (np.array([0.0, 0.5, 0.0, 2.0]), (300, 4)),
        (0.2, (7,)),
        (0.2, (3, 40, 6)),
    ], ids=["per_column", "scalar_block_minus_one", "two_blocks_plus_one", "one_row",
            "zero", "some_zero_columns", "one_dim", "three_dim"])
    def test_matches_complex_gaussian_product(self, variances, shape):
        k = shape[-1]
        w = np.linspace(1.0, 2.0, k) * np.exp(1j * np.arange(k))
        gen_ref, gen = np.random.default_rng(15), np.random.default_rng(15)
        ref = complex_gaussian(gen_ref, variances, shape) @ w
        got = gaussian_projection(gen, variances, shape, w)
        assert np.shape(got) == np.shape(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # gen is left where complex_gaussian leaves it.
        assert gen.standard_normal(3).tobytes() == gen_ref.standard_normal(3).tobytes()


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
        ch = ChannelRealization(matrix=np.zeros((1, 1), dtype=complex))
        draws = np.array([
            synthesize_received_signal(scn, ch, np.ones(1), RngStream(9, t))[0]
            for t in range(10_000)
        ])
        # FC noise only: each quadrature carries half the power
        assert np.var(draws.real) == pytest.approx(0.045, rel=0.05)
        assert np.var(draws.imag) == pytest.approx(0.045, rel=0.05)


class TestGainOverflow:
    def test_overflowing_gain_is_a_degenerate_instance(self):
        # (1e-200)^-2 = 1e400 is beyond the largest double.
        scn = make_scenario(n=2, m=2, alpha=2.0, d=[1e-200, 2.0])
        with pytest.raises(DegenerateInstanceError,
                           match="^channel gains d\\^-alpha overflow in floating point$"):
            generate_channel(scn, RngStream(0))


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

    @pytest.mark.parametrize("field,kwargs", [
        ("path_loss_exp", dict(alpha=-1.0)),
        ("fc_noise_power", dict(fc=-0.1)),
        ("sensor_noise_powers", dict(sv=[0.005, -0.005, 0.005, 0.005])),
    ])
    def test_negative_rejected_naming_the_field(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"^{field} must be nonnegative"):
            make_scenario(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("distances", [2 + 1j, 3.0]),
        ("sensor_noise_powers", [0.01, 0.01j]),
        ("fc_noise_power", 0.1 + 0j),
        ("path_loss_exp", 1 + 1j),
    ])
    def test_complex_entry_rejected_naming_the_field(self, field, value):
        # Storing a complex entry as float would drop its imaginary part.
        fields = dict(n_sensors=2, n_antennas=2, path_loss_exp=1.0, fc_noise_power=0.1,
                      distances=[2.0, 3.0], sensor_noise_powers=[0.01, 0.01])
        with pytest.raises(ConfigurationError, match=rf"^{field} must be real, got dtype complex"):
            Scenario(**{**fields, field: value})

    @pytest.mark.parametrize("field,value", [
        ("path_loss_exp", 1 + 1j),
        ("fc_noise_power", 0.1j),
        ("distance_range", (2.0, 7.0 + 0j)),
        ("sensor_noise_range", (0.001j, 0.01)),
    ])
    def test_complex_config_parameter_rejected_naming_the_field(self, field, value):
        # Complex numbers have no order for the range checks to test.
        with pytest.raises(ConfigurationError, match=rf"^{field} must be real, got dtype complex"):
            ScenarioConfig(n_sensors=2, n_antennas=2, **{field: value})

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

    @pytest.mark.parametrize("args,field", [
        ((-1,), "master_seed"), ((1.5,), "master_seed"), ((0, -1), "stream_index"),
        ((0, 1.5), "stream_index"), ((0, 0, (-1,)), "key"), ((0, 0, (2, 1.5)), "key"),
        ((True,), "master_seed"), ((0, np.True_), "stream_index"), ((0, 0, (False,)), "key"),
    ])
    def test_bad_key_rejected_when_built(self, args, field):
        # SeedSequence takes only nonnegative integers, at .generator().
        with pytest.raises(ConfigurationError, match=f"^{field} must be >= 0 and integral"):
            RngStream(*args)

    def test_bad_child_key_rejected_when_made(self):
        with pytest.raises(ConfigurationError, match="^key must be >= 0 and integral, got -1$"):
            RngStream(1).child(-1)

    def test_boolean_child_key_rejected(self):
        with pytest.raises(ConfigurationError, match="^key must be >= 0 and integral"):
            RngStream(1).child(np.True_)

    def test_whole_number_key_draws_as_its_int(self):
        s = RngStream(np.float64(99.0), np.int64(2))
        assert type(s.master_seed) is int and type(s.stream_index) is int
        assert np.array_equal(s.generator().uniform(size=4),
                              RngStream(99, 2).generator().uniform(size=4))
