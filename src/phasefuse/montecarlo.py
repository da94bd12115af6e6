# phasefuse/montecarlo.py
"""Seeded Monte Carlo experiment harness.

Sweeps the sensor count N (antenna count fixed) or the antenna count M
(sensor count fixed), runs independent trials per sweep point, and
aggregates mean variance and standard error per phase strategy. Trial t of
point p uses the random stream (master_seed, p * trials + t), so results
are a pure function of the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics, lapack
from .blas import single_threaded
from .channel import (
    ChannelRealization,
    Scenario,
    ScenarioConfig,
    ScenarioParams,
    complex_gaussian_blocks,
    generate_channel,
    sample_scenario,
)
from .errors import ConfigurationError, ConvergenceError, DegenerateInstanceError
from .estimator import (
    estimator_variance,
    fisher_matrix,
    noise_covariance,
    variance_lower_bound,
)
from .phase_opt import (
    ALL_ONES,
    SDP_RELAXATION,
    PhaseStrategy,
    eigenvector_rounding,
    optimize_phases,
)
from .rng import RngStream

SENSOR_SWEEP = "sensors"
ANTENNA_SWEEP = "antennas"

DEFAULT_STRATEGIES = (PhaseStrategy(SDP_RELAXATION), PhaseStrategy(ALL_ONES))


def _scenario_config(
    config: ExperimentConfig | ConcentrationConfig, sweep: str, value: int
) -> ScenarioConfig:
    """The scenario of one sweep point: ``value`` sensors and
    ``config.fixed_count`` antennas for a sensor sweep, the other way round
    for an antenna sweep, with ``config``'s scenario parameters."""
    n, m = (value, config.fixed_count) if sweep == SENSOR_SWEEP \
        else (config.fixed_count, value)
    return ScenarioConfig(n_sensors=n, n_antennas=m, **config.params())


@dataclass(frozen=True)
class ExperimentConfig(ScenarioParams):
    """Full description of one sweep experiment, with the scenario
    parameters of ``ScenarioParams``."""

    sweep: str                       # SENSOR_SWEEP or ANTENNA_SWEEP
    sweep_values: tuple[int, ...]
    fixed_count: int                 # M for a sensor sweep, N for an antenna sweep
    trials: int = 300
    master_seed: int = 0
    strategies: tuple[PhaseStrategy, ...] = DEFAULT_STRATEGIES
    resample_scenario_per_trial: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.sweep not in (SENSOR_SWEEP, ANTENNA_SWEEP):
            raise ConfigurationError(f"unknown sweep kind {self.sweep!r}")
        vals = tuple(int(v) for v in self.sweep_values)
        object.__setattr__(self, "sweep_values", vals)
        if not vals or any(v < 1 for v in vals):
            raise ConfigurationError("sweep_values must be nonempty positive integers")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigurationError("sweep_values must be strictly increasing")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not self.strategies:
            raise ConfigurationError("at least one strategy is required")
        # Results are keyed by label, so a repeat would overwrite its twin.
        labels = [s.kind for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"strategies must not repeat, got {labels}")

    def scenario_config(self, sweep_value: int) -> ScenarioConfig:
        return _scenario_config(self, self.sweep, sweep_value)


@dataclass
class StrategyStats:
    mean_variance: float
    std_err: float
    failures: int
    # Mean over trials of 1/tr(B A*), the relaxation's certified floor on
    # the variance of any phase choice. None for strategies without a
    # relaxation and when any trial took the convergence fallback.
    relaxation_bound_mean: float | None = None


@dataclass
class PointResult:
    sweep_value: int
    trials: int
    strategy_stats: dict[str, StrategyStats]
    lower_bound_mean: float
    eq11: float | None = None   # large-N lower bound, mean over trials
    eq12: float | None = None   # single-antenna upper bound, mean over trials
    eq17: float | None = None   # large-M variance law, mean over trials
    degraded: bool = False      # >1% of trials needed the convergence fallback


@dataclass
class SweepResult:
    sweep_param: str
    points: list[PointResult]
    config: ExperimentConfig


@dataclass
class _TrialOutcome:
    lower_bound: float
    variances: dict[str, float]
    relaxation_bounds: dict[str, float | None]
    failed: dict[str, bool]
    eq11: float
    eq12: float
    eq17: float


def _run_trial(
    config: ExperimentConfig,
    scn_config: ScenarioConfig,
    stream: RngStream,
    fixed_scenario: Scenario | None,
) -> _TrialOutcome:
    scenario = fixed_scenario or sample_scenario(scn_config, stream.child(0))
    channel = generate_channel(scenario, stream.child(1))
    b = fisher_matrix(channel, scenario)
    lb = variance_lower_bound(b)

    variances: dict[str, float] = {}
    relaxation_bounds: dict[str, float | None] = {}
    failed: dict[str, bool] = {}
    for k, strategy in enumerate(config.strategies):
        try:
            report = optimize_phases(b, strategy, stream.child(2 + k))
            variances[strategy.kind] = report.achieved_variance
            relax = report.relaxation_value
            relaxation_bounds[strategy.kind] = None if relax is None else 1.0 / relax
            failed[strategy.kind] = False
        except (ConvergenceError, DegenerateInstanceError):
            # Never drop a trial: fall back to leading-eigenvector rounding.
            # A degenerate B as a whole already raised at variance_lower_bound.
            variances[strategy.kind] = estimator_variance(eigenvector_rounding(b), b)
            relaxation_bounds[strategy.kind] = None
            failed[strategy.kind] = True

    return _TrialOutcome(
        lower_bound=lb,
        variances=variances,
        relaxation_bounds=relaxation_bounds,
        failed=failed,
        eq11=asymptotics.large_n_lower_bound(scenario),
        eq12=asymptotics.single_antenna_upper_bound(scenario),
        eq17=asymptotics.large_m_variance(scenario),
    )


@single_threaded()
def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full sweep. Deterministic given the config."""
    points: list[PointResult] = []

    for p, value in enumerate(config.sweep_values):
        scn_config = config.scenario_config(value)
        streams = [
            RngStream(config.master_seed, p * config.trials + t)
            for t in range(config.trials)
        ]
        fixed_scenario = None
        if not config.resample_scenario_per_trial:
            fixed_scenario = sample_scenario(scn_config, streams[0].child(0))

        outcomes = [_run_trial(config, scn_config, s, fixed_scenario) for s in streams]

        stats: dict[str, StrategyStats] = {}
        degraded = False
        for strategy in config.strategies:
            label = strategy.kind
            vals = np.array([o.variances[label] for o in outcomes])
            fails = sum(o.failed[label] for o in outcomes)
            se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            relax = [o.relaxation_bounds[label] for o in outcomes]
            stats[label] = StrategyStats(
                mean_variance=float(np.mean(vals)), std_err=se, failures=fails,
                relaxation_bound_mean=(
                    None if None in relax else float(np.mean(relax))
                ),
            )
            if fails > 0.01 * config.trials:
                degraded = True

        point = PointResult(
            sweep_value=value,
            trials=config.trials,
            strategy_stats=stats,
            lower_bound_mean=float(np.mean([o.lower_bound for o in outcomes])),
            degraded=degraded,
        )
        if config.sweep == SENSOR_SWEEP:
            point.eq11 = float(np.mean([o.eq11 for o in outcomes]))
            point.eq12 = float(np.mean([o.eq12 for o in outcomes]))
        else:
            point.eq17 = float(np.mean([o.eq17 for o in outcomes]))
        points.append(point)

    return SweepResult(sweep_param=config.sweep, points=points, config=config)


@dataclass
class UnbiasednessReport:
    trials: int
    sample_mean: complex
    sample_variance: float
    predicted_variance: float
    mean_z_score: float


@single_threaded()
def verify_unbiasedness(
    scenario: Scenario,
    channel: ChannelRealization,
    a: np.ndarray,
    trials: int,
    rng: RngStream,
) -> UnbiasednessReport:
    """Monte Carlo check that the ML estimate is unbiased with the predicted
    variance. Sample variance is the total complex error power (real plus
    imaginary parts), which is what the variance formula predicts.

    The noise is made a block of samples at a time, so peak memory is about
    the real parts of the (trials, N) sensor noise plus the (trials, M)
    complex received signals, 8 N + 16 M bytes per trial: 10.3 MiB at
    N = 30, M = 16 and 20000 trials (tracemalloc), where drawing all of the
    noise at once took 19.8 MiB."""
    a = np.asarray(a, dtype=complex)
    h = channel.matrix
    gen = rng.generator()
    t = int(trials)
    if t < 1:
        raise ConfigurationError("trials must be >= 1")

    sv = scenario.sensor_noise_powers
    ha = h @ a
    theta_ha = scenario.theta * ha
    # y = (theta * ha + (a * v) @ h.T) + fc, summed in place in that order,
    # one block of samples at a time; each noise block takes a * v in place.
    # Every v block is drawn before fc's, as complex_gaussian draws them.
    y = np.empty((t, scenario.n_antennas), dtype=complex)
    for rows, v in complex_gaussian_blocks(gen, sv, (t, scenario.n_sensors)):
        np.matmul(np.multiply(a, v, out=v), h.T, out=y[rows])
        y[rows] += theta_ha
    for rows, fc in complex_gaussian_blocks(
            gen, scenario.fc_noise_power, (t, scenario.n_antennas)):
        y[rows] += fc

    if scenario.fc_noise_power == 0 and np.all(sv == 0):
        g = ha  # noiseless limit: matched filter recovers theta exactly
    else:
        c = noise_covariance(channel, scenario)
        g = lapack.cho_solve(lapack.cho_factor(c), ha)
    q = float(np.real(np.vdot(ha, g)))
    estimates = (y @ g.conj()) / q

    mean = complex(np.mean(estimates))
    err = estimates - mean
    sample_var = float(np.sum(np.abs(err) ** 2) / max(t - 1, 1))
    predicted = 1.0 / q if q > 0 else 0.0
    std_of_mean = np.sqrt(predicted / t) if predicted > 0 else np.finfo(float).tiny
    z = abs(mean - scenario.theta) / std_of_mean
    return UnbiasednessReport(
        trials=t,
        sample_mean=mean,
        sample_variance=sample_var,
        predicted_variance=predicted,
        mean_z_score=float(z),
    )


@dataclass(frozen=True)
class ConcentrationConfig(ScenarioParams):
    mode: str = SENSOR_SWEEP           # grow N (fixed M) or grow M (fixed N)
    values: tuple[int, ...] = (250, 500, 1000, 2000, 4000)
    fixed_count: int = 4
    n_draws: int = 50
    master_seed: int = 0


@dataclass
class ConcentrationPoint:
    value: int
    applicable: bool
    rel_offdiag: np.ndarray  # per draw: max |offdiag| / mean diag
    median: float


@dataclass
class ConcentrationReport:
    mode: str
    points: list[ConcentrationPoint]


@single_threaded()
def verify_diagonal_concentration(config: ConcentrationConfig) -> ConcentrationReport:
    """Empirical decay of the off-diagonal terms of (1/N) H V H^H (sensor
    mode) or (1/M) H^H H (antenna mode) as the averaged dimension grows."""
    points: list[ConcentrationPoint] = []
    for p, value in enumerate(config.values):
        scn_config = _scenario_config(config, config.mode, value)
        applicable = value > 1
        rels = np.zeros(config.n_draws)
        for t in range(config.n_draws):
            stream = RngStream(config.master_seed, p * config.n_draws + t)
            scenario = sample_scenario(scn_config, stream.child(0))
            channel = generate_channel(scenario, stream.child(1))
            h = channel.matrix
            if config.mode == SENSOR_SWEEP:
                g = (h * scenario.sensor_noise_powers[np.newaxis, :]) @ h.conj().T / value
            else:
                g = h.conj().T @ h / value
            diag_mean = float(np.mean(np.real(np.diag(g))))
            if diag_mean <= 0:
                raise DegenerateInstanceError("the channel gains underflow to zero")
            off = g - np.diag(np.diag(g))
            rels[t] = float(np.max(np.abs(off))) / diag_mean if g.shape[0] > 1 else np.nan
        points.append(
            ConcentrationPoint(
                value=value,
                applicable=applicable and g.shape[0] > 1,
                rel_offdiag=rels,
                median=float(np.nanmedian(rels)),
            )
        )
    return ConcentrationReport(mode=config.mode, points=points)
