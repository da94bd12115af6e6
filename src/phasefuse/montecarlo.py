# phasefuse/montecarlo.py
"""Seeded Monte Carlo experiment harness.

Sweeps the sensor count N (antenna count fixed) or the antenna count M
(sensor count fixed), runs independent trials per sweep point, and
aggregates mean variance and standard error per phase strategy. Trial t of
point p is a function of (config, p, t) alone: it draws from the random
stream (master_seed, p * trials + t), and its scenario from that stream's
child 0, or from trial 0's child 0 when the scenario is held fixed per
point. So results are a pure function of the config.

A sweep splits each point's trials into contiguous shares, one per usable
CPU (``os.sched_getaffinity``, which ``taskset`` narrows). The calling
process runs the first share. Each worker process forked from it receives
(config, point, share) over a pipe and sends back that share's rows, one
row of floats per trial (``_run_trial``); concurrent sweeps take turns on
the workers. The rows are put back in trial order, and each point's
statistics are reductions over their columns, so the results, and the CSV
and JSON bytes, do not depend on the CPU count; ``taskset -c 0`` runs every
trial in the calling process. The workers are forked at the first sweep that
has two trials and two CPUs, and serve every later sweep until the process
exits. They are forked again whenever an attribute of a phasefuse module or
class has been rebound since they were forked (a monkeypatch, a tracer's
wrapper, a changed constant), so a worker always runs the caller's code. A
trial error raised in a worker reaches the caller with its type and message;
a worker that dies makes the sweep raise ``ChildProcessError``. Where
``fork`` or the affinity call is missing, sweeps run in the calling process.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .blas import single_threaded
from .channel import (
    ChannelRealization,
    Scenario,
    ScenarioConfig,
    ScenarioParams,
    channel_matrix,
    check_array,
    check_count,
    gaussian_projection,
    generate_channel,
    sample_scenario,
    set_counts,
)
from .errors import ConfigurationError, ConvergenceError, DegenerateInstanceError
from .estimator import (
    estimator_variance,
    fisher_factor,
    fisher_matrix,
    ml_weights,
    variance_lower_bound,
)
from .phase_opt import (
    ALL_ONES,
    SDP_RELAXATION,
    PhaseStrategy,
    check_sensor_count,
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


def _sweep_values(name: str, values) -> tuple[int, ...]:
    """``values`` as ints, checked nonempty, integral, positive and strictly
    increasing."""
    try:
        vals = tuple(check_count(name, v) for v in values)
    except ConfigurationError:
        vals = ()
    if not vals:
        raise ConfigurationError(f"{name} must be nonempty positive integers")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing")
    return vals


@dataclass(frozen=True)
class ExperimentConfig(ScenarioParams):
    """Full description of one sweep experiment, with the scenario
    parameters of ``ScenarioParams``. A strategy that cannot run at some
    sweep point's sensor count (``phase_opt.check_sensor_count``) fails
    here, before any point runs."""

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
        object.__setattr__(self, "sweep_values",
                           _sweep_values("sweep_values", self.sweep_values))
        set_counts(self, ("fixed_count", "trials"))
        set_counts(self, ("master_seed",), minimum=0)
        if not isinstance(self.resample_scenario_per_trial, (bool, np.bool_)):
            raise ConfigurationError("resample_scenario_per_trial must be a bool, got "
                                     f"{self.resample_scenario_per_trial!r}")
        # A tuple or list; one PhaseStrategy alone is not iterable.
        sequence = isinstance(self.strategies, (tuple, list))
        if sequence and not self.strategies:
            raise ConfigurationError("at least one strategy is required")
        if not (sequence and all(isinstance(s, PhaseStrategy) for s in self.strategies)):
            raise ConfigurationError("strategies must be PhaseStrategy entries in a tuple "
                                     f"or list, got {self.strategies!r}")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        # Results are keyed by label, so a repeat would overwrite its twin.
        labels = [s.kind for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"strategies must not repeat, got {labels}")
        sensors = self.sweep_values if self.sweep == SENSOR_SWEEP else (self.fixed_count,)
        for kind in labels:
            for n in sensors:
                check_sensor_count(kind, n)


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
    points: list[PointResult]
    config: ExperimentConfig


def _draw(scn_config: ScenarioConfig, scenario_stream: RngStream,
          stream: RngStream) -> tuple[Scenario, ChannelRealization]:
    """The scenario drawn from ``scenario_stream.child(0)`` and its channel
    from ``stream.child(1)``."""
    scenario = sample_scenario(scn_config, scenario_stream.child(0))
    return scenario, generate_channel(scenario, stream.child(1))


def _run_trial(
    config: ExperimentConfig, scn_config: ScenarioConfig, point: int, t: int
) -> tuple[float, ...]:
    """Trial ``t`` of sweep point ``point``, whose scenario config is
    ``scn_config`` (module docstring), as one row of floats: the variance
    lower bound, eq. 11, eq. 12 and eq. 17, then per strategy, in
    ``config.strategies`` order, the achieved variance, 1/relaxation value
    (NaN without one) and 1.0 if the trial took the eigenvector fallback,
    else 0.0."""
    first = point * config.trials
    stream = RngStream(config.master_seed, first + t)
    scenario, channel = _draw(
        scn_config,
        stream if config.resample_scenario_per_trial
        else RngStream(config.master_seed, first),
        stream)
    b = fisher_matrix(channel, scenario)
    factor = fisher_factor(channel, scenario)
    lb = variance_lower_bound(b, factor)

    per_strategy: list[float] = []
    for k, strategy in enumerate(config.strategies):
        try:
            report = optimize_phases(b, strategy, stream.child(2 + k), factor)
            relax = report.relaxation_value
            per_strategy += [report.achieved_variance,
                             np.nan if relax is None else 1.0 / relax, 0.0]
        except (ConvergenceError, DegenerateInstanceError):
            # Never drop a trial: fall back to leading-eigenvector rounding.
            # A degenerate B as a whole already raised at variance_lower_bound.
            per_strategy += [estimator_variance(eigenvector_rounding(b), b), np.nan, 1.0]

    return (lb,
            asymptotics.large_n_lower_bound(scenario),
            asymptotics.single_antenna_upper_bound(scenario),
            asymptotics.large_m_variance(scenario),
            *per_strategy)


def _run_trials(config: ExperimentConfig, point: int, trials: range) -> list[tuple[float, ...]]:
    """The rows of trials ``trials`` of sweep point ``point``, in order."""
    scn_config = _scenario_config(config, config.sweep, config.sweep_values[point])
    return [_run_trial(config, scn_config, point, t) for t in trials]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shares(trials: int, processes: int) -> list[range]:
    """``range(trials)`` cut into ``min(trials, processes)`` contiguous shares
    whose sizes differ by at most one."""
    n = min(trials, processes)
    cuts = [k * trials // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _bindings() -> list[tuple[str, object]]:
    """(name, value) of every attribute of each loaded phasefuse module and
    of each class that such a module defines, in a fixed order."""
    package = __name__.partition(".")[0]
    found: list[tuple[str, object]] = []
    for name, module in list(sys.modules.items()):
        if module is None or name.partition(".")[0] != package:
            continue
        for attr, value in vars(module).items():
            found.append((attr, value))
            if isinstance(value, type) and value.__module__ == name:
                # Pickling caches __slotnames__ on a class; that is not code.
                found.extend(item for item in vars(value).items()
                             if item[0] != "__slotnames__")
    return found


def _serve(conn, inherited: list) -> None:
    """A worker's loop: run each share it receives and send back its rows,
    or the exception of its first failing trial. Returns when the caller
    closes the pipe or is gone."""
    for other in inherited:  # the caller's ends, so that only it holds them
        other.close()
    # Ctrl-C reaches the whole process group; the caller stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _run_trials(*job))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the caller is gone
            return
        except Exception:  # an exception that does not pickle; nothing was sent
            conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))


class _Workers:
    """The worker processes of this process, each with its own pipe."""

    def __init__(self):
        self.pid = 0                  # the process that forked them
        self.procs: list = []         # (multiprocessing Process, Connection)
        self.bindings: list = []      # _bindings() when they were forked

    def connections(self, count: int) -> list:
        """Pipes to ``count`` workers that run this process's code, forking
        any that are missing."""
        bindings = _bindings()
        if self.pid != os.getpid():
            self.procs = []  # a forked copy of the caller: they are not its children
        elif len(bindings) != len(self.bindings) or not all(
                k == j and v is w for (k, v), (j, w) in zip(bindings, self.bindings)):
            self.stop()
        if len(self.procs) < count:
            self._fork(count)
        self.bindings = bindings
        return [conn for _, conn in self.procs[:count]]

    def _fork(self, count: int) -> None:
        # Imported here, so that importing this module does not. numpy loads
        # numpy.random on first use, which takes about 24 ms: load it before
        # the fork, so that no worker loads it again.
        import multiprocessing
        import numpy.random  # noqa: F401

        # fork, not spawn: a worker must run the caller's code as it is bound
        # now, monkeypatches included, without importing anything again.
        context = multiprocessing.get_context("fork")
        while len(self.procs) < count:
            ours, theirs = context.Pipe()
            # A daemon: multiprocessing's exit hook ends and reaps it when this
            # process exits.
            proc = context.Process(
                target=_serve, args=(theirs, [c for _, c in self.procs] + [ours]),
                daemon=True)
            proc.start()
            theirs.close()
            self.procs.append((proc, ours))
        self.pid = os.getpid()

    def stop(self, terminate: bool = False) -> None:
        """Close every pipe and wait for each worker to exit; with
        ``terminate``, signal each first, as one may be busy."""
        procs, self.procs = self.procs, []
        for proc, conn in procs:
            conn.close()
            if terminate:
                proc.terminate()
        for proc, _ in procs:
            proc.join()


_WORKERS = _Workers()
_WORKERS_LOCK = threading.Lock()  # held by the caller that talks to _WORKERS


def _run_point(config: ExperimentConfig, point: int) -> list[tuple[float, ...]]:
    """Every trial row of sweep point ``point``, in trial order: the first
    share in this process and one share per other usable CPU in a worker.
    Concurrent callers take turns on the workers."""
    shares = _shares(config.trials, _usable_cpus())
    if len(shares) == 1:
        return _run_trials(config, point, shares[0])
    with _WORKERS_LOCK:
        conns = _WORKERS.connections(len(shares) - 1)
        try:
            for conn, share in zip(conns, shares[1:]):
                conn.send((config, point, share))
            try:
                replies = [(True, _run_trials(config, point, shares[0]))]
            except Exception as exc:  # raised below, after every worker has replied
                replies = [(False, exc)]
            replies += [conn.recv() for conn in conns]
        except (EOFError, OSError) as exc:
            _WORKERS.stop(terminate=True)
            raise ChildProcessError("a sweep worker process exited unexpectedly") from exc
        except BaseException:  # an interrupt: leave no reply to be read later
            _WORKERS.stop(terminate=True)
            raise
    rows: list[tuple[float, ...]] = []
    for ok, value in replies:  # the earliest share's error is the serial one
        if not ok:
            raise value
        rows += value
    return rows


@single_threaded()
def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full sweep. Deterministic given the config."""
    points: list[PointResult] = []

    for p, value in enumerate(config.sweep_values):
        # Each column as one contiguous array, which np.mean and np.std sum in
        # trial order.
        lower_bounds, eq11, eq12, eq17, *columns = (
            np.array(column) for column in zip(*_run_point(config, p)))
        stats: dict[str, StrategyStats] = {}
        for strategy, variances, relaxation_bounds, fallbacks in zip(
                config.strategies, columns[0::3], columns[1::3], columns[2::3]):
            stats[strategy.kind] = StrategyStats(
                mean_variance=float(np.mean(variances)),
                std_err=float(np.std(variances, ddof=1) / np.sqrt(config.trials))
                if config.trials > 1 else 0.0,
                failures=int(np.sum(fallbacks)),
                relaxation_bound_mean=None if np.isnan(relaxation_bounds).any()
                else float(np.mean(relaxation_bounds)),
            )
        sensors = config.sweep == SENSOR_SWEEP
        points.append(PointResult(
            sweep_value=value,
            trials=config.trials,
            strategy_stats=stats,
            lower_bound_mean=float(np.mean(lower_bounds)),
            eq11=float(np.mean(eq11)) if sensors else None,
            eq12=float(np.mean(eq12)) if sensors else None,
            eq17=None if sensors else float(np.mean(eq17)),
            degraded=any(st.failures > 0.01 * config.trials for st in stats.values()),
        ))

    return SweepResult(points=points, config=config)


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

    Each estimate is g^H y / q with ``ml_weights``' g and q (g = H a if
    noiseless), formed without y: theta g^H H a / q plus the sensor noise
    projected onto a * H^T g* / q and the FC noise onto g* / q, every sensor
    noise draw first, as synthesis draws. One trial is ``ml_estimate`` of the
    y that ``synthesize_received_signal`` draws from the same stream, with
    noise or without. A vanishing q (an all-zero channel) raises
    DegenerateInstanceError."""
    h = channel_matrix(channel, scenario)
    a = np.asarray(check_array("a", a, (scenario.n_sensors,)), dtype=complex)
    t = check_count("trials", trials)
    gen = rng.generator()

    sv = scenario.sensor_noise_powers
    ha = h @ a
    g, q = ml_weights(channel, scenario, a)
    gq = g.conj() / q
    estimates = gaussian_projection(gen, sv, (t, scenario.n_sensors), a * (h.T @ gq))
    estimates += gaussian_projection(
        gen, scenario.fc_noise_power, (t, scenario.n_antennas), gq)
    estimates += scenario.theta * (ha @ gq)

    mean = complex(np.mean(estimates))
    err = np.subtract(estimates, mean, out=estimates)
    sample_var = float(np.sum(np.abs(err) ** 2) / max(t - 1, 1))
    predicted = 1.0 / q
    z = abs(mean - scenario.theta) / np.sqrt(predicted / t)
    return UnbiasednessReport(trials=t, sample_mean=mean, sample_variance=sample_var,
                              predicted_variance=predicted, mean_z_score=float(z))


@dataclass(frozen=True)
class ConcentrationConfig(ScenarioParams):
    mode: str = SENSOR_SWEEP           # grow N (fixed M) or grow M (fixed N)
    values: tuple[int, ...] = (250, 500, 1000, 2000, 4000)
    fixed_count: int = 4
    n_draws: int = 50
    master_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in (SENSOR_SWEEP, ANTENNA_SWEEP):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "values", _sweep_values("values", self.values))
        set_counts(self, ("fixed_count", "n_draws"))
        set_counts(self, ("master_seed",), minimum=0)


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
    square = config.fixed_count > 1  # the Gram is fixed_count x fixed_count
    for p, value in enumerate(config.values):
        scn_config = _scenario_config(config, config.mode, value)
        rels = np.zeros(config.n_draws)
        for t in range(config.n_draws):
            stream = RngStream(config.master_seed, p * config.n_draws + t)
            scenario, channel = _draw(scn_config, stream, stream)
            h = channel.matrix
            if config.mode == SENSOR_SWEEP:
                g = (h * scenario.sensor_noise_powers[np.newaxis, :]) @ h.conj().T / value
            else:
                g = h.conj().T @ h / value
            diag_mean = float(np.mean(np.real(np.diag(g))))
            if diag_mean <= 0:
                raise DegenerateInstanceError("the channel gains underflow to zero")
            off = g - np.diag(np.diag(g))
            rels[t] = float(np.max(np.abs(off))) / diag_mean if square else np.nan
        points.append(
            ConcentrationPoint(
                value=value,
                applicable=value > 1 and square,
                rel_offdiag=rels,
                median=float(np.nanmedian(rels)) if square else np.nan,
            )
        )
    return ConcentrationReport(mode=config.mode, points=points)
