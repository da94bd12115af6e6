# phasefuse/cli.py
"""Command-line front end.

Subcommands:
  fig1      sensor-count sweep (antenna count fixed, default M=4)
  fig2      antenna-count sweep (sensor count fixed, default N=4)
  run       single instance: print the optimization report per strategy
  oracle    compare SDP rounding against the exhaustive phase grid
  selftest  quick closed-form / identity / sandwich checks

Exit status: 0 success, 1 runtime or I/O failure, 2 usage error (including
a count below 1, a negative seed, an unknown strategy and a plot script for
JSON output or without --output).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import sdp
from .channel import ScenarioConfig, ScenarioParams, generate_channel, sample_scenario
from .errors import ConfigurationError, PhasefuseError
from .estimator import fisher_factor, fisher_matrix, noise_covariance
from .montecarlo import (
    ANTENNA_SWEEP,
    DEFAULT_STRATEGIES,
    SENSOR_SWEEP,
    ExperimentConfig,
    SweepResult,
    run_sweep,
)
from .phase_opt import (
    CLOSED_FORM_N2,
    GRID_ORACLE,
    SDP_RELAXATION,
    PhaseStrategy,
    check_sensor_count,
    grid_search,
    optimize_phases,
    optimize_phases_n2,
)
from .rng import RngStream


def _float_cell(x) -> str:
    return "" if x is None else repr(float(x))


# The output schema: each column's name, in order, where its value comes
# from in the row of one (point, strategy) pair, and its CSV cell. Floats
# are written with repr so they round-trip bit-exactly, None as an empty
# cell. CSV_HEADER, the CSV rows and the JSON keys all derive from it.
COLUMNS = (
    ("sweep_param", attrgetter("result.config.sweep"), str),
    ("value", attrgetter("point.sweep_value"), str),
    ("strategy", attrgetter("strategy"), str),
    ("mean_variance", attrgetter("stats.mean_variance"), _float_cell),
    ("std_err", attrgetter("stats.std_err"), _float_cell),
    ("lower_bound_mean", attrgetter("point.lower_bound_mean"), _float_cell),
    ("eq11", attrgetter("point.eq11"), _float_cell),
    ("eq12", attrgetter("point.eq12"), _float_cell),
    ("eq17", attrgetter("point.eq17"), _float_cell),
    ("trials", attrgetter("point.trials"), str),
    ("failures", attrgetter("stats.failures"), str),
)
CSV_HEADER = ",".join(name for name, _, _ in COLUMNS)

FIG1_SWEEP = tuple(range(2, 31, 2))
FIG2_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)


def _parse_count(text: str, minimum: int = 1) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return value


def _parse_seed(text: str) -> int:
    return _parse_count(text, minimum=0)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'low,high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _parse_strategies(text: str) -> tuple[PhaseStrategy, ...]:
    try:
        return tuple(PhaseStrategy(kind.strip()) for kind in text.split(","))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    defaults = ScenarioParams()
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--alpha", type=float, default=defaults.path_loss_exp)
    p.add_argument("--fc-noise", type=float, default=defaults.fc_noise_power)
    p.add_argument("--dist-range", type=_parse_range, default=defaults.distance_range)
    p.add_argument("--sensor-noise-range", type=_parse_range,
                   default=defaults.sensor_noise_range)


def _scenario_fields(args) -> dict:
    """The ``ScenarioParams`` fields the scenario flags set, by field name."""
    return dict(path_loss_exp=args.alpha, fc_noise_power=args.fc_noise,
                distance_range=args.dist_range, sensor_noise_range=args.sensor_noise_range)


def _add_strategies_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategies", type=_parse_strategies, default=DEFAULT_STRATEGIES)


def _add_sweep_flags(p: argparse.ArgumentParser, sweep: str) -> None:
    p.add_argument("--trials", type=_parse_count, default=300)
    _add_scenario_flags(p)
    _add_strategies_flag(p)
    p.add_argument("--resample-per-trial", type=_parse_bool, default=True)
    p.add_argument("--output", default=None, help="destination path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--emit-plot-script", default=None)
    p.set_defaults(handler=functools.partial(_cmd_sweep, sweep=sweep, usage_error=p.error))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``phasefuse`` parser, built once per process and shared by every
    ``main`` call: parsing leaves no state in it, and its defaults are
    immutable. Each subcommand's ``handler`` default is the function that
    runs it."""
    parser = argparse.ArgumentParser(
        prog="phasefuse",
        description="Phase-only analog encoding simulator for multi-antenna fusion",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p1 = sub.add_parser("fig1", help="variance vs. number of sensors")
    _add_sweep_flags(p1, SENSOR_SWEEP)
    p1.add_argument("--antennas", type=_parse_count, default=4)
    p1.add_argument("--sensors", type=_parse_count, nargs="+", default=FIG1_SWEEP,
                    help="sweep values for N")

    p2 = sub.add_parser("fig2", help="variance vs. number of FC antennas")
    _add_sweep_flags(p2, ANTENNA_SWEEP)
    p2.add_argument("--sensors", type=_parse_count, default=4)
    p2.add_argument("--antennas", type=_parse_count, nargs="+", default=FIG2_SWEEP,
                    help="sweep values for M")

    pr = sub.add_parser("run", help="single instance, all strategies")
    _add_scenario_flags(pr)
    _add_strategies_flag(pr)
    pr.add_argument("--sensors", type=_parse_count, required=True)
    pr.add_argument("--antennas", type=_parse_count, required=True)
    pr.set_defaults(handler=_cmd_run)

    po = sub.add_parser("oracle", help="SDP vs. exhaustive grid comparison")
    _add_scenario_flags(po)
    po.add_argument("--sensors", type=_parse_count, default=3)
    po.add_argument("--antennas", type=_parse_count, default=4)
    po.add_argument("--instances", type=_parse_count, default=20)
    po.set_defaults(handler=_cmd_oracle)

    ps = sub.add_parser("selftest", help="closed-form, identity and sandwich checks")
    ps.set_defaults(handler=_cmd_selftest)
    return parser


def result_rows(result: SweepResult) -> list[dict]:
    """Flatten a SweepResult into one record per (point, strategy), keyed as COLUMNS."""
    return [
        {name: value(row) for name, value, _ in COLUMNS}
        for row in (
            SimpleNamespace(result=result, point=point, strategy=label, stats=stats)
            for point in result.points
            for label, stats in point.strategy_stats.items()
        )
    ]


def render_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER] + [
        ",".join(cell(row[name]) for name, _, cell in COLUMNS)
        for row in result_rows(result)
    ]
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    return json.dumps(result_rows(result), indent=2) + "\n"


def _write_text(text: str, destination: str | None) -> None:
    """Write text to stdout if destination is None, else to that file (LF newlines)."""
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", newline="\n") as fh:
            fh.write(text)


def write_csv(result: SweepResult, destination) -> None:
    """Write the sweep as CSV (LF newlines, full double precision)."""
    _write_text(render_csv(result), destination)


PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Auto-generated plot script: variance curves on a log-y axis.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}

series = defaultdict(list)
extras = defaultdict(list)
with open(CSV_PATH) as fh:
    for row in csv.DictReader(fh):
        x = int(row["value"])
        series[row["strategy"]].append((x, float(row["mean_variance"])))
        for col in ("lower_bound_mean", "eq11", "eq12", "eq17"):
            if row[col]:
                extras[col].append((x, float(row[col])))

fig, ax = plt.subplots(figsize=(6, 4.5))
for name, pts in sorted(series.items()):
    pts = sorted(set(pts))
    ax.semilogy([p[0] for p in pts], [p[1] for p in pts], marker="o", label=name)
for name, pts in sorted(extras.items()):
    pts = sorted(set(pts))
    ax.semilogy([p[0] for p in pts], [p[1] for p in pts], linestyle="--", label=name)

ax.set_xlabel({xlabel!r})
ax.set_ylabel("estimation variance")
ax.grid(True, which="both", alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig({png_path!r}, dpi=150)
print("wrote", {png_path!r})
"""


def emit_plot_script(result: SweepResult, path: str, csv_path: str) -> None:
    """Write a self-contained matplotlib script that renders ``csv_path``."""
    xlabel = "number of sensors N" if result.config.sweep == SENSOR_SWEEP \
        else "number of FC antennas M"
    # figure name derives from the CSV, so the script bytes depend only on
    # the result contents, not on where the script itself is written
    png_name = os.path.splitext(csv_path)[0] + ".png"
    _write_text(
        PLOT_TEMPLATE.format(csv_path=csv_path, xlabel=xlabel, png_path=png_name), path
    )


def _sweep_config(args, sweep: str) -> ExperimentConfig:
    if sweep == SENSOR_SWEEP:
        values, fixed = tuple(args.sensors), args.antennas
    else:
        values, fixed = tuple(args.antennas), args.sensors
    return ExperimentConfig(
        sweep=sweep, sweep_values=values, fixed_count=fixed, trials=args.trials,
        master_seed=args.seed, strategies=args.strategies,
        resample_scenario_per_trial=args.resample_per_trial, **_scenario_fields(args),
    )


def _cmd_sweep(args, sweep: str, usage_error) -> int:
    if args.format == "json" and args.emit_plot_script:
        # The plot script reads its data with csv.DictReader.
        usage_error("--emit-plot-script needs --format csv")
    if args.emit_plot_script and args.output is None:
        # Without --output the CSV goes to stdout, not to a file to read.
        usage_error("--emit-plot-script needs --output")
    if args.emit_plot_script and os.path.realpath(args.emit_plot_script) == os.path.realpath(
            args.output):  # the script would overwrite the CSV it reads
        usage_error("--emit-plot-script must name a file other than --output")
    result = run_sweep(_sweep_config(args, sweep))
    if args.format == "json":
        _write_text(render_json(result), args.output)
    else:
        write_csv(result, args.output)
    if args.emit_plot_script:
        emit_plot_script(result, args.emit_plot_script, args.output)
    return 0


def _sample_instance(args, k: int) -> tuple[np.ndarray, np.ndarray | None, RngStream]:
    """The Fisher matrix B of instance k of ``run`` or ``oracle``, its factor
    (``fisher_factor``, None when M >= N) and its stream (seed, k): child 0
    draws the scenario and child 1 the channel."""
    stream = RngStream(args.seed, k)
    config = ScenarioConfig(n_sensors=args.sensors, n_antennas=args.antennas,
                            **_scenario_fields(args))
    scenario = sample_scenario(config, stream.child(0))
    channel = generate_channel(scenario, stream.child(1))
    return fisher_matrix(channel, scenario), fisher_factor(channel, scenario), stream


def _cmd_run(args) -> int:
    kinds = [s.kind for s in args.strategies]
    if len(set(kinds)) != len(kinds):  # as a sweep rejects them; each would print one line
        raise ConfigurationError(f"strategies must not repeat, got {kinds}")
    if CLOSED_FORM_N2 not in kinds and args.sensors == 2:
        kinds.append(CLOSED_FORM_N2)
    for kind in kinds:
        check_sensor_count(kind, args.sensors)
    b, factor, stream = _sample_instance(args, 0)
    print(f"instance: N={args.sensors} M={args.antennas} seed={args.seed}")
    for k, kind in enumerate(kinds):
        report = optimize_phases(b, PhaseStrategy(kind), stream.child(10 + k), factor)
        relax = "" if report.relaxation_value is None \
            else f"  relaxation={report.relaxation_value:.6e}"
        print(
            f"  {kind:>15}: variance={report.achieved_variance:.6e}"
            f"  lower_bound={report.lower_bound:.6e}{relax}"
        )
    return 0


def _cmd_oracle(args) -> int:
    check_sensor_count(GRID_ORACLE, args.sensors)
    print(f"SDP vs. grid oracle, N={args.sensors}, M={args.antennas}, "
          f"{args.instances} instances")
    print(f"{'instance':>8} {'sdp_var':>14} {'grid_var':>14} {'ratio':>8}")
    worst = 0.0
    for k in range(args.instances):
        b, factor, stream = _sample_instance(args, k)
        report = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), stream.child(2), factor)
        _, grid_val = grid_search(b)
        grid_var = 1.0 / grid_val
        ratio = report.achieved_variance / grid_var
        worst = max(worst, ratio)
        print(f"{k:>8} {report.achieved_variance:>14.6e} {grid_var:>14.6e} {ratio:>8.5f}")
    print(f"worst variance ratio (sdp/grid): {worst:.5f}")
    return 0


def _cmd_selftest(_args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    # N=2 closed form vs. SDP on the analytic pi/3 instance.
    b = np.array([[1.0, 0.5 * np.exp(1j * np.pi / 3)],
                  [0.5 * np.exp(-1j * np.pi / 3), 1.0]])
    a_cf = optimize_phases_n2(b)
    val_cf = float(np.real(np.vdot(a_cf, b @ a_cf)))
    check("closed-form N=2 value == 3", abs(val_cf - 3.0) <= 1e-12)
    report = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), RngStream(0, 0))
    check("SDP matches closed form", abs(report.achieved_variance - 1.0 / 3.0) <= 1e-6)

    # fisher_matrix on sampled M > N instances, which take its
    # matrix-inversion-lemma branch, against the direct H^H C^{-1} H.
    ok = True
    for k in range(20):
        n = 2 + k % 6
        stream = RngStream(1, k)
        scenario = sample_scenario(ScenarioConfig(n_sensors=n, n_antennas=n + 1 + k),
                                   stream.child(0))
        channel = generate_channel(scenario, stream.child(1))
        h, sv = channel.matrix, scenario.sensor_noise_powers
        c = (h * sv) @ h.conj().T + scenario.fc_noise_power * np.eye(len(h))
        direct = h.conj().T @ np.linalg.solve(c, h)
        err = np.linalg.norm(fisher_matrix(channel, scenario) - direct)
        ok &= bool(err <= 1e-10 * max(1.0, np.linalg.norm(direct)))
    check("matrix-inversion-lemma identity", ok)

    # Single antenna: B = h^H h / c has rank one, and the optimum co-phases
    # the sensors, a_i = conj(h_i) / |h_i| up to a global phase, at
    # (sum |h_i|)^2 / c. Given B alone, solve certifies a a^H (a one-column
    # factor) and the rounding finds a; given the one-row factor, as sweeps,
    # feedback, run and oracle give it, optimize_phases takes its closed form.
    stream = RngStream(3, 0)
    scenario = sample_scenario(ScenarioConfig(n_sensors=30, n_antennas=1), stream.child(0))
    channel = generate_channel(scenario, stream.child(1))
    b = fisher_matrix(channel, scenario)
    h = channel.matrix[0]
    optimum = np.sum(np.abs(h)) ** 2 / float(np.real(noise_covariance(channel, scenario)[0, 0]))

    def co_phased(a) -> bool:
        ratio = a * np.abs(h) / h.conj()
        return bool(np.all(np.abs(ratio - ratio[0]) <= 1e-12))

    problem = sdp.SdpProblem(b)
    solution = sdp.solve(problem)
    a = sdp.extract_rank_one(solution, problem, stream.child(2))
    value = float(np.real(np.vdot(a, b @ a)))
    check("single-antenna co-phasing",
          solution.factor.shape == (30, 1) and co_phased(a)
          and abs(value - optimum) <= 1e-12 * value)
    report = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), stream.child(2),
                             fisher_factor(channel, scenario))
    check("single-antenna closed form",
          co_phased(report.phases)
          and abs(report.relaxation_value - optimum) <= 1e-12 * optimum)

    # Relaxation sandwich on random PSD instances.
    gen = np.random.default_rng(1)
    ok = True
    for k in range(10):
        g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        b = g @ g.conj().T
        rep = optimize_phases(b, PhaseStrategy(SDP_RELAXATION), RngStream(2, k))
        n_lam = 4 * float(np.max(np.linalg.eigvalsh(b)))
        slack = 1e-8 * max(1.0, n_lam)
        ok &= rep.relaxation_value <= n_lam + slack
        ok &= 1.0 / rep.relaxation_value <= rep.achieved_variance + slack
        ok &= rep.lower_bound <= rep.achieved_variance + 1e-12
    check("relaxation sandwich", ok)

    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PhasefuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
