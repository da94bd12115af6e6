import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from phasefuse import lapack, montecarlo
from phasefuse.asymptotics import (
    large_m_variance,
    large_n_lower_bound,
    single_antenna_upper_bound,
)
from phasefuse.channel import (
    NOISE_BLOCK_ROWS,
    Scenario,
    ScenarioConfig,
    generate_channel,
    sample_scenario,
    synthesize_received_signal,
)
from phasefuse import sdp as sdp_module
from phasefuse.errors import ConfigurationError, ConvergenceError, DegenerateInstanceError
from phasefuse.estimator import (
    estimator_variance,
    fisher_factor,
    fisher_matrix,
    ml_estimate,
    noise_covariance,
    variance_lower_bound,
)
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
from phasefuse.phase_opt import ALL_ONES, PhaseStrategy, eigenvector_rounding, optimize_phases
from phasefuse.rng import RngStream


def small_config(**overrides):
    base = dict(
        sweep=SENSOR_SWEEP, sweep_values=(2, 4), fixed_count=3,
        trials=10, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Every count and seed field of the two configs.
COUNT_FIELDS = [
    (make, field) for make, fields in (
        (small_config, ("fixed_count", "trials", "master_seed")),
        (ConcentrationConfig, ("fixed_count", "n_draws", "master_seed")))
    for field in fields
]

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

    def test_zero_fixed_count_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="fixed_count must be >= 1"):
            small_config(fixed_count=0)

    @pytest.mark.parametrize("make,field", [(small_config, "sweep_values"),
                                            (ConcentrationConfig, "values")],
                             ids=["experiment", "concentration"])
    @pytest.mark.parametrize("values", [(2.7,), (2, 4.5), (np.nan,), (2, np.inf)])
    def test_non_integral_sweep_value_rejected(self, make, field, values):
        with pytest.raises(ConfigurationError, match=f"{field} must be nonempty positive"):
            make(**{field: values})

    @pytest.mark.parametrize("make,field", [(small_config, "sweep_values"),
                                            (ConcentrationConfig, "values")],
                             ids=["experiment", "concentration"])
    def test_integral_sweep_values_become_ints(self, make, field):
        values = getattr(make(**{field: (2, 4.0, np.int64(6), np.float64(8.0))}), field)
        assert values == (2, 4, 6, 8)
        assert all(type(v) is int for v in values)

    def test_repeated_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="must not repeat"):
            small_config(strategies=(PhaseStrategy("sdp"), PhaseStrategy("sdp")))

    def test_strategies_are_stored_as_a_tuple(self):
        # A list would make the config unhashable, and an entry appended
        # later would skip the sensor-count check.
        cfg = small_config(strategies=[PhaseStrategy("sdp")])
        assert cfg.strategies == (PhaseStrategy("sdp"),)
        assert cfg == small_config(strategies=(PhaseStrategy("sdp"),))
        assert hash(cfg) == hash(small_config(strategies=(PhaseStrategy("sdp"),)))
        with pytest.raises(AttributeError):
            cfg.strategies.append(PhaseStrategy("grid"))

    def test_list_ranges_give_the_same_sweep(self):
        cfg = small_config(sweep_values=(3,), trials=2, distance_range=[2, 7])
        assert repr(run_sweep(cfg).points) == repr(run_sweep(small_config(
            sweep_values=(3,), trials=2)).points)

    @pytest.mark.parametrize("overrides,message", [
        (dict(sweep_values=(2, 4, 6), strategies=(PhaseStrategy("grid"),)),
         "strategy grid needs 1 <= N <= 4, got N = 6"),
        (dict(sweep_values=(2, 3), strategies=(PhaseStrategy("closed_form_n2"),)),
         "strategy closed_form_n2 needs N = 2, got N = 3"),
        (dict(sweep=ANTENNA_SWEEP, sweep_values=(1, 2), fixed_count=5,
              strategies=(PhaseStrategy("sdp"), PhaseStrategy("grid"))),
         "strategy grid needs 1 <= N <= 4, got N = 5"),
    ], ids=["grid", "closed_form_n2", "antenna-sweep"])
    def test_strategy_beyond_its_sensor_count_rejected(self, overrides, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            small_config(**overrides)

    def test_strategy_within_its_sensor_count_accepted(self):
        assert small_config(sweep_values=(1, 2, 4), strategies=(PhaseStrategy("grid"),))
        assert small_config(sweep=ANTENNA_SWEEP, sweep_values=(1, 8), fixed_count=2,
                            strategies=(PhaseStrategy("closed_form_n2"),))

    @pytest.mark.parametrize("make", [small_config, ConcentrationConfig],
                             ids=["experiment", "concentration"])
    @pytest.mark.parametrize("field,value,match", [
        ("distance_range", (7.0, 2.0), "positive interval"),
        ("sensor_noise_range", (0.0, 0.01), "positive interval"),
        ("fc_noise_power", 0.0, "must be positive"),
        ("path_loss_exp", np.nan, "must be finite"),
        ("distance_range", (2.0, np.inf), "must be finite"),
        ("path_loss_exp", -1.0, "^path_loss_exp must be nonnegative"),
    ])
    def test_bad_scenario_parameter_rejected_when_built(self, make, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            make(**{field: value})

    @pytest.mark.parametrize("field,value,match", [
        ("mode", "bogus", "unknown mode"),
        ("n_draws", 0, "^n_draws must be >= 1"),
        ("values", (), "nonempty positive"),
        ("values", (0, 10), "nonempty positive"),
        ("values", (20, 10), "strictly increasing"),
        ("fixed_count", 0, "^fixed_count must be >= 1"),
    ], ids=["mode", "n_draws", "values_empty", "values_positive", "values_increasing",
            "fixed_count"])
    def test_bad_concentration_config_rejected(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            ConcentrationConfig(**{field: value})

    @pytest.mark.parametrize("field,value,match", [
        ("resample_scenario_per_trial", "no", "^resample_scenario_per_trial must be a bool"),
        ("resample_scenario_per_trial", 0, "^resample_scenario_per_trial must be a bool"),
        ("strategies", ("sdp",), "^strategies must be PhaseStrategy entries"),
        ("strategies", PhaseStrategy("sdp"), "^strategies must be PhaseStrategy entries"),
    ], ids=["flag_str", "flag_int", "strategy_str", "strategy_alone"])
    def test_wrong_kind_rejected_when_built(self, field, value, match):
        # A truthy "no" would resample; a bare name has no .kind to run.
        with pytest.raises(ConfigurationError, match=match):
            small_config(**{field: value})

    @pytest.mark.parametrize("flag", [False, np.bool_(False)])
    def test_numpy_bool_flag_accepted(self, flag):
        assert not small_config(resample_scenario_per_trial=flag).resample_scenario_per_trial

    @pytest.mark.parametrize("make", [small_config, ConcentrationConfig],
                             ids=["experiment", "concentration"])
    @pytest.mark.parametrize("seed", [-1, np.nan])
    def test_bad_master_seed_rejected(self, make, seed):
        with pytest.raises(ConfigurationError, match="master_seed must be >= 0 and integral"):
            make(master_seed=seed)

    @pytest.mark.parametrize("make,field", COUNT_FIELDS)
    def test_non_integral_count_rejected(self, make, field):
        with pytest.raises(ConfigurationError, match=r"must be >= [01] and integral, got 2\.5"):
            make(**{field: 2.5})

    @pytest.mark.parametrize("make,field", COUNT_FIELDS)
    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy_bool"])
    def test_boolean_count_rejected(self, make, field, flag):
        # True == 1, but a flag is not a count.
        with pytest.raises(ConfigurationError, match=r"must be >= [01] and integral, got "):
            make(**{field: flag})

    @pytest.mark.parametrize("make,field", COUNT_FIELDS)
    def test_integral_counts_become_ints(self, make, field):
        value = getattr(make(**{field: np.float64(3.0)}), field)
        assert value == 3 and type(value) is int


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
            scn = sample_scenario(ScenarioConfig(n_sensors=1, n_antennas=1, **cfg.params()),
                                  stream.child(0))
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
        # hits records calls in this process only.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        result = run_sweep(small_config(sweep_values=(30,), fixed_count=4, trials=4))
        sdp = result.points[0].strategy_stats["sdp"]
        assert len(hits) >= 1
        assert sdp.failures == len(hits)
        assert sdp.relaxation_bound_mean is None
        assert np.isfinite(sdp.mean_variance)

    def test_fixed_scenario_mode(self):
        # Every trial of point p uses the scenario drawn from trial 0's
        # stream, so the point's eq11 and eq12 are that scenario's.
        cfg = small_config(resample_scenario_per_trial=False, trials=5)
        result = run_sweep(cfg)
        for p, point in enumerate(result.points):
            assert point.trials == 5
            scn = sample_scenario(
                ScenarioConfig(n_sensors=point.sweep_value, n_antennas=cfg.fixed_count,
                               **cfg.params()),
                RngStream(cfg.master_seed, p * cfg.trials).child(0))
            assert point.eq11 == pytest.approx(large_n_lower_bound(scn), rel=1e-15, abs=0)
            assert point.eq12 == pytest.approx(
                single_antenna_upper_bound(scn), rel=1e-15, abs=0)
        again = run_sweep(cfg)
        assert repr(result.points) == repr(again.points)

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


def use_cpus(monkeypatch, count):
    """Make sweeps split their trials over ``count`` processes."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: count)


def processes_with(marker: str) -> list[int]:
    """The pids of the processes whose command line holds ``marker``."""
    found = []
    for entry in os.scandir("/proc"):
        try:
            with open(f"/proc/{entry.name}/cmdline", "rb") as fh:
                if entry.name.isdigit() and marker.encode() in fh.read():
                    found.append(int(entry.name))
        except OSError:  # not a process, or one that has just exited
            pass
    return found


class TestWorkers:
    """Sweeps with trials in forked workers: the same results as in one
    process, with the caller's code and constants."""

    @pytest.mark.parametrize("overrides", [
        dict(sweep_values=(2, 6, 10), fixed_count=4),
        dict(sweep=ANTENNA_SWEEP, sweep_values=(1, 4, 16), fixed_count=4),
        dict(resample_scenario_per_trial=False),
    ], ids=["fig1", "fig2", "fixed_scenario"])
    def test_workers_return_the_one_process_rows(self, monkeypatch, overrides):
        cfg = small_config(trials=7, **overrides)  # shares of 2, 2 and 3 trials
        use_cpus(monkeypatch, 3)
        split = repr(run_sweep(cfg).points)
        assert len(montecarlo._WORKERS.procs) == 2
        use_cpus(monkeypatch, 1)
        assert split == repr(run_sweep(cfg).points)

    def test_patched_fallback_reaches_the_workers(self, monkeypatch):
        def no_convergence(problem, *args, **kwargs):
            raise ConvergenceError("forced")

        cfg = small_config(trials=6)
        use_cpus(monkeypatch, 3)
        run_sweep(cfg)  # workers forked before the patch
        monkeypatch.setattr(sdp_module, "solve", no_convergence)
        for p in run_sweep(cfg).points:
            assert p.strategy_stats["sdp"].failures == cfg.trials

    def test_patched_constant_reaches_the_workers(self, monkeypatch):
        # One rounding candidate changes the sdp phases of trials 2 and 3 only,
        # which are the worker's share.
        cfg = small_config(sweep_values=(10,), trials=4, master_seed=2)
        use_cpus(monkeypatch, 2)
        default = repr(run_sweep(cfg).points)
        monkeypatch.setattr(sdp_module, "NUM_CANDIDATES", 1)
        split = repr(run_sweep(cfg).points)
        use_cpus(monkeypatch, 1)
        assert split == repr(run_sweep(cfg).points) != default

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        run_trial = montecarlo._run_trial

        def degenerate_trial_1(config, scn_config, point, t):
            if config.master_seed == 99 and t == 1:
                raise DegenerateInstanceError(f"raised in process {os.getpid()}")
            return run_trial(config, scn_config, point, t)

        # Trial 0 runs here, trial 1 in the first worker, trials 2 and 3 in
        # the second.
        cfg = small_config(sweep_values=(4,), trials=4)
        use_cpus(monkeypatch, 3)
        expected = repr(run_sweep(cfg).points)
        monkeypatch.setattr(montecarlo, "_run_trial", degenerate_trial_1)
        with pytest.raises(DegenerateInstanceError, match=r"^raised in process \d+$") as info:
            run_sweep(dataclasses.replace(cfg, master_seed=99))
        assert str(info.value) != f"raised in process {os.getpid()}"
        workers = [proc.pid for proc, _ in montecarlo._WORKERS.procs]
        # The same workers serve the next sweep, with no reply left over.
        assert repr(run_sweep(cfg).points) == expected
        assert [proc.pid for proc, _ in montecarlo._WORKERS.procs] == workers

    @pytest.mark.parametrize("overrides", [
        dict(), dict(resample_scenario_per_trial=False),
    ], ids=["fig1", "fixed_scenario"])
    def test_concurrent_sweeps_keep_their_own_results(self, monkeypatch, overrides):
        # Two threads share the workers: each must read only its own replies,
        # and neither may wait for a reply that the other took.
        configs = [small_config(sweep_values=(6, 8, 10), fixed_count=4, trials=6,
                                master_seed=seed, **overrides) for seed in (11, 12)]
        use_cpus(monkeypatch, 1)
        serial = [repr(run_sweep(cfg).points) for cfg in configs]
        use_cpus(monkeypatch, 2)
        run_sweep(configs[0])  # the workers are forked before any thread starts
        found: list[list] = [[], []]

        def sweep(k):
            for _ in range(5):
                try:
                    found[k].append(repr(run_sweep(configs[k]).points))
                except Exception as exc:
                    found[k].append(exc)

        threads = [threading.Thread(target=sweep, args=(k,), daemon=True) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert found == [[expected] * 5 for expected in serial]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_cli_leaves_no_process_behind(self, tmp_path):
        if montecarlo._usable_cpus() < 2:
            pytest.skip("one usable CPU: the sweep forks no worker")
        out = str(tmp_path / "fig1.csv")  # in the command line of the CLI and its workers
        proc = subprocess.Popen(
            [sys.executable, "-m", "phasefuse.cli", "fig1", "--sensors", "10", "20",
             "--trials", "20", "--output", out], stderr=subprocess.PIPE)
        seen, deadline = set(), time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline:
            seen.update(processes_with(out))
            time.sleep(0.005)
        if proc.poll() is None:
            proc.kill()
        assert proc.wait() == 0, proc.stderr.read().decode()
        proc.stderr.close()
        assert len(seen) >= 2  # the CLI and at least one worker
        assert processes_with(out) == []


def recomputed_trials(cfg, point, forced=frozenset()):
    """Every trial of sweep point ``point``, recomputed from the public
    functions by the module's stream rule: (lower bound, eq11, eq12, eq17,
    {label: (variance, relaxation bound or None, fell back)}). Every strategy
    of the trials in ``forced`` takes the eigenvector fallback."""
    value = cfg.sweep_values[point]
    n, m = (value, cfg.fixed_count) if cfg.sweep == SENSOR_SWEEP else (cfg.fixed_count, value)
    scn_config = ScenarioConfig(n_sensors=n, n_antennas=m, **cfg.params())
    trials = []
    for t in range(cfg.trials):
        stream = RngStream(cfg.master_seed, point * cfg.trials + t)
        held = stream if cfg.resample_scenario_per_trial \
            else RngStream(cfg.master_seed, point * cfg.trials)
        scn = sample_scenario(scn_config, held.child(0))
        ch = generate_channel(scn, stream.child(1))
        b, f = fisher_matrix(ch, scn), fisher_factor(ch, scn)
        per_strategy = {}
        for k, strategy in enumerate(cfg.strategies):
            if t in forced:
                per_strategy[strategy.kind] = (
                    estimator_variance(eigenvector_rounding(b), b), None, True)
            else:
                report = optimize_phases(b, strategy, stream.child(2 + k), f)
                relax = report.relaxation_value
                per_strategy[strategy.kind] = (
                    report.achieved_variance, None if relax is None else 1.0 / relax, False)
        trials.append((variance_lower_bound(b, f), large_n_lower_bound(scn),
                       single_antenna_upper_bound(scn), large_m_variance(scn), per_strategy))
    return trials


def force_fallback(monkeypatch, trials):
    """Make every strategy of the sweep trials with these stream indices
    raise ConvergenceError, so that they take the eigenvector fallback."""
    optimize = montecarlo.optimize_phases

    def failing(b, strategy, rng, factor=None):
        if rng.stream_index in trials:
            raise ConvergenceError("forced")
        return optimize(b, strategy, rng, factor)

    monkeypatch.setattr(montecarlo, "optimize_phases", failing)


def mean(values):
    return math.fsum(values) / len(values)


class TestPointStatistics:
    """Each point's statistics against the same statistics of the
    recomputed trials, on one CPU and with a worker's share on a second."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("overrides", [
        dict(sweep_values=(2, 5), fixed_count=3),
        dict(sweep=ANTENNA_SWEEP, sweep_values=(1, 3), fixed_count=4),
    ], ids=["sensors", "antennas"])
    def test_statistics_of_the_trials(self, monkeypatch, cpus, overrides):
        cfg = small_config(trials=5, **overrides)
        use_cpus(monkeypatch, cpus)
        for p, point in enumerate(run_sweep(cfg).points):
            trials = recomputed_trials(cfg, p)
            assert point.trials == 5 and not point.degraded
            assert point.lower_bound_mean == pytest.approx(
                mean([tr[0] for tr in trials]), rel=1e-12)
            if cfg.sweep == SENSOR_SWEEP:
                assert point.eq11 == pytest.approx(mean([tr[1] for tr in trials]), rel=1e-12)
                assert point.eq12 == pytest.approx(mean([tr[2] for tr in trials]), rel=1e-12)
                assert point.eq17 is None
            else:
                assert point.eq11 is None and point.eq12 is None
                assert point.eq17 == pytest.approx(mean([tr[3] for tr in trials]), rel=1e-12)
            for label, stats in point.strategy_stats.items():
                variances = [tr[4][label][0] for tr in trials]
                m = mean(variances)
                # The ddof-1 sample standard deviation over sqrt(trials).
                std_err = math.sqrt(math.fsum((v - m) ** 2 for v in variances) / 4 / 5)
                assert stats.mean_variance == pytest.approx(m, rel=1e-12)
                assert stats.std_err == pytest.approx(std_err, rel=1e-9)
                assert stats.failures == 0 and type(stats.failures) is int
                bounds = [tr[4][label][1] for tr in trials]
                if label == ALL_ONES:
                    assert stats.relaxation_bound_mean is None
                else:
                    assert stats.relaxation_bound_mean == pytest.approx(mean(bounds), rel=1e-12)

    def test_one_trial_has_no_std_err(self):
        for point in run_sweep(small_config(trials=1)).points:
            assert all(stats.std_err == 0.0 for stats in point.strategy_stats.values())

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("forced", [(), (83,), (17, 83)], ids=["none", "one", "two"])
    def test_fallbacks_at_the_one_percent_threshold(self, monkeypatch, cpus, forced):
        # 100 trials: one fallback is 1% and leaves the point whole, two are
        # more and degrade it. On 2 CPUs trial 17 runs here and 83 in the worker.
        cfg = small_config(sweep_values=(3,), fixed_count=1, trials=100)
        use_cpus(monkeypatch, cpus)
        force_fallback(monkeypatch, set(forced))
        point = run_sweep(cfg).points[0]
        trials = recomputed_trials(cfg, 0, set(forced))
        assert point.degraded == (len(forced) > 1)
        for label, stats in point.strategy_stats.items():
            assert stats.failures == len(forced) and type(stats.failures) is int
            assert stats.mean_variance == pytest.approx(
                mean([tr[4][label][0] for tr in trials]), rel=1e-12)
            # No bound for all-ones, and none for the sdp once a trial fell back.
            if label == ALL_ONES or forced:
                assert stats.relaxation_bound_mean is None
            else:
                assert stats.relaxation_bound_mean == pytest.approx(
                    mean([tr[4][label][1] for tr in trials]), rel=1e-12)


def reference_verify_unbiasedness(scenario, channel, a, trials, rng):
    """The one-expression synthesis of every received signal, with noise
    drawn as ``scale * (x + 1j y)``, that ``verify_unbiasedness`` must match
    from the same draws."""
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

    # True == 1, but a flag is not a count.
    @pytest.mark.parametrize("trials", [0, -3, True, np.True_])
    def test_trials_below_one_rejected(self, trials):
        scn, ch = self._instance()
        with pytest.raises(ConfigurationError, match="trials must be >= 1"):
            verify_unbiasedness(scn, ch, np.ones(4), trials, RngStream(8, 0))

    def test_non_integral_trials_rejected(self):
        # int() would truncate 2.5 to 2 trials.
        scn, ch = self._instance()
        with pytest.raises(ConfigurationError, match="trials must be >= 1 and integral"):
            verify_unbiasedness(scn, ch, np.ones(4), 2.5, RngStream(8, 0))

    def test_theta_invariance_of_prediction(self):
        # predicted variance never depends on theta
        scn, ch = self._instance()
        scn2 = dataclasses.replace(scn, theta=5.0 - 3.0j)
        r1 = verify_unbiasedness(scn, ch, np.ones(4), 100, RngStream(8, 0))
        r2 = verify_unbiasedness(scn2, ch, np.ones(4), 100, RngStream(8, 0))
        assert r1.predicted_variance == r2.predicted_variance

    @pytest.mark.parametrize("n,m,noiseless", [
        (4, 4, False), (30, 16, False), (10, 1, False), (6, 20, False), (5, 3, True),
    ], ids=["4-4", "30-16", "10-1", "6-20", "5-3-noiseless"])
    def test_one_trial_is_the_ml_estimate_of_the_synthesized_signal(self, n, m, noiseless):
        # One trial draws what synthesizing one y draws from the same stream,
        # and weighs it with ml_estimate's own g and q, the matched filter
        # without noise: measured at most 2.6e-16 relative apart.
        scn, ch = self._instance(n=n, m=m, seed=n + m)
        scn = dataclasses.replace(scn, theta=0.8 - 0.6j)
        if noiseless:
            scn = dataclasses.replace(scn, fc_noise_power=0.0, sensor_noise_powers=np.zeros(n))
        a = np.exp(1j * np.linspace(0.0, 3.0, n))
        rep = verify_unbiasedness(scn, ch, a, 1, RngStream(11, m))
        y = synthesize_received_signal(scn, ch, a, RngStream(11, m))
        theta_hat = ml_estimate(y, ch, scn, a)
        assert abs(rep.sample_mean - theta_hat) <= 1e-12 * abs(theta_hat)

    def test_zero_channel_is_degenerate(self):
        # With noise, a^H B a = 0 leaves no estimate, as in ml_estimate.
        scn, ch = self._instance()
        ch = dataclasses.replace(ch, matrix=np.zeros_like(ch.matrix))
        with pytest.raises(DegenerateInstanceError, match="vanishes"):
            verify_unbiasedness(scn, ch, np.ones(4), 10, RngStream(8, 0))

    def test_zero_channel_without_noise_is_degenerate(self):
        # The noiseless matched filter divides by |H a|^2 = 0 just the same.
        scn, ch = self._instance(n=3, m=2)
        scn = dataclasses.replace(scn, fc_noise_power=0.0, sensor_noise_powers=np.zeros(3))
        ch = dataclasses.replace(ch, matrix=np.zeros_like(ch.matrix))
        with pytest.raises(DegenerateInstanceError, match="vanishes"):
            verify_unbiasedness(scn, ch, np.ones(3), 10, RngStream(8, 0))


    @pytest.mark.parametrize("n,m,trials,noiseless", [
        (4, 4, 1000, False), (30, 16, 2000, False), (3, 1, 1, False), (3, 2, 1000, True),
        (16, 4, 2 * NOISE_BLOCK_ROWS + 1, False), (10, 1, NOISE_BLOCK_ROWS - 1, False),
        (4, 4, NOISE_BLOCK_ROWS, False), (30, 16, 20000, False),
    ])
    def test_same_bytes_as_reference(self, n, m, trials, noiseless):
        # Same draws, summed in another order: trials and the predicted
        # variance keep their bytes, the sample statistics agree to rounding
        # (measured at most 2.2e-16 |theta| on the mean, 1.7e-13 relative on
        # the z-score, 2.2e-16 relative on the noisy sample variance and
        # 6.2e-32 against 9.9e-32 on the noiseless one).
        scn, ch = self._instance(n=n, m=m, seed=n)
        scn = dataclasses.replace(scn, theta=0.8 - 0.6j)
        if noiseless:
            scn = dataclasses.replace(scn, fc_noise_power=0.0,
                                      sensor_noise_powers=np.zeros(n))
        a = np.exp(1j * np.linspace(0.0, 3.0, n))
        got = verify_unbiasedness(scn, ch, a, trials, RngStream(9, m))
        ref = reference_verify_unbiasedness(scn, ch, a, trials, RngStream(9, m))
        for name in ("trials", "predicted_variance"):
            assert np.asarray(getattr(got, name)).tobytes() \
                == np.asarray(getattr(ref, name)).tobytes(), name
        assert abs(got.sample_mean - ref.sample_mean) <= 1e-14 * abs(scn.theta)
        assert got.mean_z_score == pytest.approx(ref.mean_z_score, rel=1e-9, abs=0.0)
        if noiseless:
            assert got.sample_variance <= 1e-25 and ref.sample_variance <= 1e-25
        else:
            assert got.sample_variance == pytest.approx(ref.sample_variance,
                                                         rel=1e-12, abs=0.0)

    @staticmethod
    def _peak(scn, ch, a, trials):
        verify_unbiasedness(scn, ch, a, 100, RngStream(10, 0))  # warm caches
        tracemalloc.start()
        try:
            verify_unbiasedness(scn, ch, a, trials, RngStream(10, 1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory(self):
        # Measured 0.76 MiB: two (20000,) estimate vectors and one noise
        # block. Synthesizing every y a block at a time took 10.3 MiB.
        scn, ch = self._instance(n=30, m=16)
        assert self._peak(scn, ch, np.ones(30, dtype=complex), 20000) <= 2 * 2**20

    def test_peak_memory_grows_by_the_estimates_only(self):
        # The same draws tie each trial's estimate to four passes over the
        # noise, so the estimates themselves stay: measured 32.0 bytes per
        # extra trial (two complex vectors), none of it for the noise, where
        # synthesizing y grew by 8 N + 16 M = 496.
        scn, ch = self._instance(n=30, m=16)
        a = np.ones(30, dtype=complex)
        small, large = self._peak(scn, ch, a, 20000), self._peak(scn, ch, a, 200000)
        assert (large - small) / 180000 <= 34.0


class TestConcentration:
    def test_underflowing_gains_are_degenerate(self):
        config = ConcentrationConfig(values=(8,), n_draws=2, **UNDERFLOWING_GAINS)
        with pytest.raises(DegenerateInstanceError, match="underflow"):
            verify_diagonal_concentration(config)

    def test_sensor_mode_decay(self):
        rep = verify_diagonal_concentration(ConcentrationConfig(
            values=(500, 2000), n_draws=30, master_seed=2))
        assert rep.points[0].median > rep.points[1].median

    @pytest.mark.parametrize("mode", [SENSOR_SWEEP, ANTENNA_SWEEP])
    def test_one_by_one_gram_is_nan_without_a_warning(self, mode):
        # fixed_count = 1 gives a 1 x 1 Gram: no off-diagonal terms to measure.
        rep = verify_diagonal_concentration(ConcentrationConfig(
            mode=mode, values=(2, 8), fixed_count=1, n_draws=3))
        for point in rep.points:
            assert not point.applicable
            assert np.isnan(point.median)
            assert np.isnan(point.rel_offdiag).all()

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
