import dataclasses
import tracemalloc

import numpy as np
import pytest

from phasefuse import lapack, montecarlo
from phasefuse.channel import (
    NOISE_BLOCK_ROWS,
    Scenario,
    ScenarioConfig,
    generate_channel,
    sample_scenario,
)
from phasefuse import sdp as sdp_module
from phasefuse.errors import ConfigurationError, ConvergenceError, DegenerateInstanceError
from phasefuse.estimator import noise_covariance
from phasefuse.montecarlo import (
    ANTENNA_SWEEP,
    SENSOR_SWEEP,
    ConcentrationConfig,
    ExperimentConfig,
    UnbiasednessReport,
    run_sweep,
    verify_diagonal_concentration,
    verify_unbiasedness,
)
from phasefuse.phase_opt import ALL_ONES, PhaseStrategy
from phasefuse.rng import RngStream


def small_config(**overrides):
    base = dict(
        sweep=SENSOR_SWEEP, sweep_values=(2, 4), fixed_count=3,
        trials=10, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Channel gains d^-alpha that underflow to 0 (about 1e-400).
UNDERFLOWING_GAINS = dict(distance_range=(1e200, 1e201), path_loss_exp=2.0)


def overflowing_instance():
    """N = 2, M = 4 with gains near 1e200, so that the noise covariance
    C = H V H^H + sigma_n^2 I overflows."""
    config = ScenarioConfig(n_sensors=2, n_antennas=4, distance_range=(1e-200, 1e-199))
    scn = sample_scenario(config, RngStream(3, 0))
    return scn, generate_channel(scn, RngStream(3, 1))


class TestConfigValidation:
    def test_decreasing_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(sweep_values=(4, 2))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(sweep_values=())

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(trials=0)

    def test_repeated_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="must not repeat"):
            small_config(strategies=(PhaseStrategy("sdp"), PhaseStrategy("sdp")))

    @pytest.mark.parametrize("make", [small_config, ConcentrationConfig],
                             ids=["experiment", "concentration"])
    @pytest.mark.parametrize("field,value,match", [
        ("distance_range", (7.0, 2.0), "positive interval"),
        ("sensor_noise_range", (0.0, 0.01), "positive interval"),
        ("fc_noise_power", 0.0, "must be positive"),
        ("path_loss_exp", np.nan, "must be finite"),
        ("distance_range", (2.0, np.inf), "must be finite"),
    ])
    def test_bad_scenario_parameter_rejected_when_built(self, make, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            make(**{field: value})


class TestRunSweep:
    def test_deterministic_across_runs(self):
        cfg = small_config()
        r1 = run_sweep(cfg)
        r2 = run_sweep(cfg)
        for p1, p2 in zip(r1.points, r2.points):
            for label in p1.strategy_stats:
                assert p1.strategy_stats[label].mean_variance \
                    == p2.strategy_stats[label].mean_variance
            assert p1.lower_bound_mean == p2.lower_bound_mean

    def test_scalar_oracle_n1_m1(self):
        # N = M = 1, all-ones: variance per trial is 1/B with scalar
        # B = |h|^2 / (|h|^2 sv + sn); recompute by hand from the same streams.
        cfg = ExperimentConfig(
            sweep=SENSOR_SWEEP, sweep_values=(1,), fixed_count=1, trials=20,
            master_seed=3, strategies=(PhaseStrategy(ALL_ONES),),
        )
        result = run_sweep(cfg)
        expected = []
        for t in range(20):
            stream = RngStream(3, t)
            scn = sample_scenario(cfg.scenario_config(1), stream.child(0))
            ch = generate_channel(scn, stream.child(1))
            h2 = abs(ch.matrix[0, 0]) ** 2
            b = h2 / (h2 * scn.sensor_noise_powers[0] + scn.fc_noise_power)
            expected.append(1.0 / b)
        assert result.points[0].strategy_stats["all_ones"].mean_variance \
            == pytest.approx(np.mean(expected), rel=1e-12)

    def test_ordering_per_point(self):
        cfg = small_config(sweep_values=(4, 8), trials=40)
        result = run_sweep(cfg)
        for p in result.points:
            sdp = p.strategy_stats["sdp"]
            ones = p.strategy_stats["all_ones"]
            assert p.lower_bound_mean <= sdp.mean_variance
            assert sdp.mean_variance <= ones.mean_variance \
                + 2 * (sdp.std_err + ones.std_err)

    def test_relaxation_bound_sandwich(self):
        result = run_sweep(small_config(sweep_values=(3, 6)))
        for p in result.points:
            sdp = p.strategy_stats["sdp"]
            relax = sdp.relaxation_bound_mean
            assert relax is not None
            assert p.lower_bound_mean <= relax * (1 + 1e-8)
            assert relax <= sdp.mean_variance * (1 + 1e-7)
            assert p.strategy_stats["all_ones"].relaxation_bound_mean is None

    def test_convergence_fallback(self, monkeypatch):
        def no_convergence(problem, *args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr(sdp_module, "solve", no_convergence)
        cfg = small_config(trials=5)
        result = run_sweep(cfg)
        for p in result.points:
            sdp = p.strategy_stats["sdp"]
            assert sdp.failures == cfg.trials
            assert sdp.relaxation_bound_mean is None
            assert p.lower_bound_mean <= sdp.mean_variance
            assert p.strategy_stats["all_ones"].failures == 0
            assert p.degraded

    def test_degenerate_strategy_counts_as_failure(self, monkeypatch):
        # B = v v^H with sum(v) = 0: all-ones phases give a^H B a = 0, which
        # estimator_variance rejects. That strategy takes the eigenvector
        # fallback, a = (1, -1) and variance 1/4; the sdp row is unaffected.
        v = np.array([1.0, -1.0], dtype=complex)
        monkeypatch.setattr(montecarlo, "fisher_matrix", lambda *args: np.outer(v, v))
        result = run_sweep(small_config(sweep_values=(2,), trials=2))
        stats = result.points[0].strategy_stats
        assert stats["all_ones"].failures == 2
        assert stats["all_ones"].mean_variance == pytest.approx(0.25, rel=1e-12)
        assert stats["sdp"].failures == 0
        assert stats["sdp"].mean_variance == pytest.approx(0.25, rel=1e-12)
        assert stats["sdp"].relaxation_bound_mean == pytest.approx(0.25, rel=1e-8)

    def test_degenerate_b_still_ends_the_sweep(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "fisher_matrix",
                            lambda *args: np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateInstanceError, match="lambda_max"):
            run_sweep(small_config(sweep_values=(2,), trials=2))

    def test_nan_inside_interior_point_counts_as_failure(self, monkeypatch):
        # A NaN lambda_max(B) reaches the IPM's first NT scaling; the trial
        # must take the eigenvector fallback and count as a failure instead
        # of aborting the sweep with ValueError. Certified instances never
        # reach the IPM, so only the IPM's calls are counted.
        objectives, hits = [], []

        class Recording(sdp_module.SdpProblem):
            def __post_init__(self):
                super().__post_init__()
                objectives.append(self.objective)

        eigvalsh = lapack.eigvalsh

        def nan_lambda_max(a):
            if any(a is o for o in objectives):
                hits.append(a)
                return np.full(len(a), np.nan)
            return eigvalsh(a)

        monkeypatch.setattr(sdp_module, "SdpProblem", Recording)
        monkeypatch.setattr(lapack, "eigvalsh", nan_lambda_max)
        result = run_sweep(small_config(sweep_values=(30,), fixed_count=4, trials=4))
        sdp = result.points[0].strategy_stats["sdp"]
        assert len(hits) >= 1
        assert sdp.failures == len(hits)
        assert sdp.relaxation_bound_mean is None
        assert np.isfinite(sdp.mean_variance)

    def test_fixed_scenario_mode(self):
        cfg = small_config(resample_scenario_per_trial=False, trials=5)
        result = run_sweep(cfg)  # mainly: runs and stays deterministic
        assert result.points[0].trials == 5
        again = run_sweep(cfg)
        assert result.points[0].lower_bound_mean \
            == again.points[0].lower_bound_mean

    def test_asymptotics_columns(self):
        r_n = run_sweep(small_config())
        assert r_n.points[0].eq11 is not None
        assert r_n.points[0].eq12 is not None
        assert r_n.points[0].eq17 is None
        r_m = run_sweep(ExperimentConfig(
            sweep=ANTENNA_SWEEP, sweep_values=(1, 2), fixed_count=3, trials=5,
            master_seed=1))
        assert r_m.points[0].eq17 is not None
        assert r_m.points[0].eq11 is None


def reference_verify_unbiasedness(scenario, channel, a, trials, rng):
    """The one-expression synthesis that ``verify_unbiasedness`` must match
    bit for bit, with noise drawn as ``scale * (x + 1j y)``."""
    def noise(gen, variances, size):
        scale = np.sqrt(np.asarray(variances, dtype=float) / 2.0)
        return scale * (gen.standard_normal(size) + 1j * gen.standard_normal(size))

    a = np.asarray(a, dtype=complex)
    h = channel.matrix
    gen = rng.generator()
    t = int(trials)
    sv = scenario.sensor_noise_powers
    v = noise(gen, sv, (t, scenario.n_sensors))
    fc = noise(gen, scenario.fc_noise_power, (t, scenario.n_antennas))
    ha = h @ a
    y = scenario.theta * ha[np.newaxis, :] + (a * v) @ h.T + fc
    if scenario.fc_noise_power == 0 and np.all(sv == 0):
        g = ha
    else:
        g = lapack.cho_solve(lapack.cho_factor(noise_covariance(channel, scenario)), ha)
    q = float(np.real(np.vdot(ha, g)))
    estimates = (y @ g.conj()) / q
    mean = complex(np.mean(estimates))
    err = estimates - mean
    sample_var = float(np.sum(np.abs(err) ** 2) / max(t - 1, 1))
    predicted = 1.0 / q if q > 0 else 0.0
    std_of_mean = np.sqrt(predicted / t) if predicted > 0 else np.finfo(float).tiny
    z = abs(mean - scenario.theta) / std_of_mean
    return UnbiasednessReport(
        trials=t, sample_mean=mean, sample_variance=sample_var,
        predicted_variance=predicted, mean_z_score=float(z),
    )


class TestVerifyUnbiasedness:
    def _instance(self, n=4, m=4, seed=0):
        cfg = ScenarioConfig(n_sensors=n, n_antennas=m)
        scn = sample_scenario(cfg, RngStream(seed, 0))
        ch = generate_channel(scn, RngStream(seed, 1))
        return scn, ch

    def test_zero_noise(self):
        scn = Scenario(n_sensors=3, n_antennas=2, path_loss_exp=1.0,
                       fc_noise_power=0.0, distances=np.full(3, 2.0),
                       sensor_noise_powers=np.zeros(3), theta=0.7 + 0.2j)
        ch = generate_channel(scn, RngStream(5, 0))
        rep = verify_unbiasedness(scn, ch, np.ones(3), 1000, RngStream(5, 1))
        assert rep.sample_variance <= 1e-25
        assert rep.sample_mean == pytest.approx(scn.theta, abs=1e-14)

    def test_mean_within_clt_band(self):
        scn, ch = self._instance()
        rep = verify_unbiasedness(scn, ch, np.ones(4), 10_000, RngStream(6, 0))
        assert rep.mean_z_score <= 4.0

    def test_variance_matches_prediction(self):
        scn, ch = self._instance()
        rep = verify_unbiasedness(scn, ch, np.ones(4), 10_000, RngStream(7, 0))
        assert rep.sample_variance == pytest.approx(rep.predicted_variance,
                                                    rel=0.10)

    def test_overflowing_covariance_is_degenerate(self):
        scn, ch = overflowing_instance()
        with pytest.raises(DegenerateInstanceError, match="overflows"):
            verify_unbiasedness(scn, ch, np.ones(2), 10, RngStream(8, 0))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        scn, ch = self._instance()
        with pytest.raises(ConfigurationError, match="trials must be >= 1"):
            verify_unbiasedness(scn, ch, np.ones(4), trials, RngStream(8, 0))

    def test_theta_invariance_of_prediction(self):
        # predicted variance never depends on theta
        scn, ch = self._instance()
        scn2 = dataclasses.replace(scn, theta=5.0 - 3.0j)
        r1 = verify_unbiasedness(scn, ch, np.ones(4), 100, RngStream(8, 0))
        r2 = verify_unbiasedness(scn2, ch, np.ones(4), 100, RngStream(8, 0))
        assert r1.predicted_variance == r2.predicted_variance


    @pytest.mark.parametrize("n,m,trials,noiseless", [
        (4, 4, 1000, False), (30, 16, 2000, False), (3, 1, 1, False), (3, 2, 1000, True),
        (16, 4, 2 * NOISE_BLOCK_ROWS + 1, False), (10, 1, NOISE_BLOCK_ROWS - 1, False),
        (4, 4, NOISE_BLOCK_ROWS, False), (30, 16, 20000, False),
    ])
    def test_same_bytes_as_reference(self, n, m, trials, noiseless):
        scn, ch = self._instance(n=n, m=m, seed=n)
        scn = dataclasses.replace(scn, theta=0.8 - 0.6j)
        if noiseless:
            scn = dataclasses.replace(scn, fc_noise_power=0.0,
                                      sensor_noise_powers=np.zeros(n))
        a = np.exp(1j * np.linspace(0.0, 3.0, n))
        got = verify_unbiasedness(scn, ch, a, trials, RngStream(9, m))
        ref = reference_verify_unbiasedness(scn, ch, a, trials, RngStream(9, m))
        for field in dataclasses.fields(UnbiasednessReport):
            assert np.asarray(getattr(got, field.name)).tobytes() \
                == np.asarray(getattr(ref, field.name)).tobytes(), field.name

    def test_peak_memory(self):
        # Measured 10.3 MiB with 1024-row noise blocks: the (20000, 30) real
        # parts and the (20000, 16) y. All of the noise at once took 19.8 MiB.
        scn, ch = self._instance(n=30, m=16)
        a = np.ones(30, dtype=complex)
        verify_unbiasedness(scn, ch, a, 100, RngStream(10, 0))  # warm caches
        tracemalloc.start()
        try:
            verify_unbiasedness(scn, ch, a, 20000, RngStream(10, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestConcentration:
    def test_underflowing_gains_are_degenerate(self):
        config = ConcentrationConfig(values=(8,), n_draws=2, **UNDERFLOWING_GAINS)
        with pytest.raises(DegenerateInstanceError, match="underflow"):
            verify_diagonal_concentration(config)

    def test_sensor_mode_decay(self):
        rep = verify_diagonal_concentration(ConcentrationConfig(
            values=(500, 2000), n_draws=30, master_seed=2))
        assert rep.points[0].median > rep.points[1].median

    def test_antenna_mode_m1_not_applicable(self):
        rep = verify_diagonal_concentration(ConcentrationConfig(
            mode=ANTENNA_SWEEP, values=(1, 64), fixed_count=4, n_draws=5))
        assert not rep.points[0].applicable
        assert rep.points[1].applicable

    def test_large_n_small_offdiagonal(self):
        rep = verify_diagonal_concentration(ConcentrationConfig(
            values=(10_000,), n_draws=20, master_seed=3))
        frac = np.mean(rep.points[0].rel_offdiag <= 0.05)
        assert frac >= 0.9
