"""The benchmark's workloads: inputs made from the seed, the ops of one pass,
and the checks each op's output must pass.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned. An op is the smallest call a user waits on:
one grid point of ``phasefuse fig1`` (a CLI call), one feedback
cycle, or one verification check. A pass is the workload's fixed amount of
work; each pass draws fresh inputs from the seed, so a run times many
instances rather than one draw repeatedly.

Importing this module imports numpy and phasefuse from the checkout's
``src`` directory; it does no other work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from phasefuse import channel, cli, estimator, montecarlo, phase_opt  # noqa: E402
from phasefuse.rng import RngStream  # noqa: E402

import reference  # noqa: E402

FIG1_ANTENNAS = 4
FIG1_TRIALS = 2
STRATEGIES = "sdp,all_ones"

FEEDBACK_SENSORS = (2, 10, 30, 60, 100)
FEEDBACK_ANTENNAS = (1, 4, 16)

UNBIASED_CASES = ((4, 4), (16, 4), (30, 16), (10, 1))  # (N, M)
UNBIASED_SAMPLES = 20000
CONCENTRATION_VALUES = (250, 1000, 4000)
CONCENTRATION_DRAWS = 8

# Invariant checks: slack for rounding error only.
REL_TOL = 1e-6
# |theta_hat - theta|^2 / Var is Exp(1); exceeding 30 has probability 1e-13.
ML_ERROR_LIMIT = 30.0


@dataclass
class Outcome:
    """What the benchmark learned from one op's output."""

    units: int                   # trials, cycles or checks attempted
    failed: int = 0              # of those: fallback, exception or bad output
    mismatches: tuple = ()       # failed correctness checks, as text
    quality: float | None = None  # achieved variance / (1 / (N lambda_max))
    output_bytes: int = 0


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def fisher_reference(h: np.ndarray, sensor_noise: np.ndarray, fc_noise: float) -> np.ndarray:
    """B = H^H (H V H^H + s I)^{-1} H by a plain dense solve."""
    c = (h * sensor_noise) @ h.conj().T + fc_noise * np.eye(h.shape[0])
    b = h.conj().T @ np.linalg.solve(c, h)
    return 0.5 * (b + b.conj().T)


def _quad(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b @ a)))


def _rel_ok(x: float, ref: float, tol: float = REL_TOL) -> bool:
    return abs(x - ref) <= tol * abs(ref)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    name = ""
    units_per_op = 1      # trials, cycles or checks per op
    trace_passes = 1      # fixed pass count of a traced run

    def __init__(self, seed: int):
        self.seed = seed

    def pass_ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """The first op of a pass, unchecked: set-up's warm-up op."""
        self.pass_ops(0)[0].run()


class Fig1(Workload):
    """``phasefuse fig1`` on the paper grid, one CLI call per grid point,
    each checked against the stored reference output. Pass p uses reference
    key seed + p, so a run averages over many instances instead of timing
    one draw repeatedly."""

    name = "fig1"
    grid = cli.FIG1_SWEEP
    units_per_op = FIG1_TRIALS
    trace_passes = 3

    def argv(self, point: int, key: int) -> list[str]:
        return ["fig1", "--sensors", str(self.grid[point]),
                "--antennas", str(FIG1_ANTENNAS), "--trials", str(FIG1_TRIALS),
                "--seed", str(reference.master_seed(key, point)),
                "--strategies", STRATEGIES]

    def warmup(self) -> None:
        # The first op of pass 0, without loading the reference outputs,
        # so that set-up time is the program's alone.
        run_cli(self.argv(0, self.seed))

    def pass_ops(self, p: int) -> list[Op]:
        key = self.seed + p
        refs = reference.expected(self.name, key)
        return [
            Op(run=functools.partial(run_cli, self.argv(i, key)),
               check=functools.partial(self._check, refs[i]))
            for i in range(len(self.grid))
        ]

    def _check(self, expected: str, out) -> Outcome:
        rc, text = out
        trials = FIG1_TRIALS
        bad = reference.compare(text, expected) if rc == 0 else [f"exit code {rc}"]
        if bad:
            return Outcome(trials, trials, tuple(bad), None, len(text))
        rows = reference.parse(text)
        sdp_row = next(r for r in rows if r["strategy"] == "sdp")
        failures = min(trials, sum(int(r["failures"]) for r in rows))
        quality = float(sdp_row["mean_variance"]) / float(sdp_row["lower_bound_mean"])
        return Outcome(trials, failures, (), quality, len(text))


class Feedback(Workload):
    """Single FC feedback cycles: ``feedback_round``, then one received
    signal with the chosen phases and its ML estimate. N cycles through
    FEEDBACK_SENSORS and M through FEEDBACK_ANTENNAS, so one pass holds each
    (N, M) pair once."""

    name = "feedback"
    trace_passes = 2
    strategy = phase_opt.PhaseStrategy(phase_opt.SDP_RELAXATION)

    def pass_ops(self, p: int) -> list[Op]:
        count = len(FEEDBACK_SENSORS) * len(FEEDBACK_ANTENNAS)
        return [self._op(p * count + i, FEEDBACK_SENSORS[i % len(FEEDBACK_SENSORS)],
                         FEEDBACK_ANTENNAS[i % len(FEEDBACK_ANTENNAS)])
                for i in range(count)]

    def _op(self, k: int, n: int, m: int) -> Op:
        stream = RngStream(self.seed, k)
        scenario = channel.sample_scenario(
            channel.ScenarioConfig(n_sensors=n, n_antennas=m), stream.child(0))
        chan = channel.generate_channel(scenario, stream.child(1))
        b = fisher_reference(chan.matrix, scenario.sensor_noise_powers,
                             scenario.fc_noise_power)

        def run():
            report = phase_opt.feedback_round(chan, scenario, self.strategy, stream.child(2))
            y = channel.synthesize_received_signal(scenario, chan, report.phases,
                                                   stream.child(3))
            return report, estimator.ml_estimate(y, chan, scenario, report.phases)

        def check(out) -> Outcome:
            report, theta_hat = out
            a = report.phases
            q = _quad(a, b)
            lam = float(np.linalg.eigvalsh(b)[-1])
            bound = 1.0 / (n * lam)
            bad = []
            if np.max(np.abs(np.abs(a) - 1.0)) > 1e-9:
                bad.append("phases not unit-modulus")
            if not _rel_ok(report.achieved_variance, 1.0 / q):
                bad.append("achieved variance != 1/(a^H B a)")
            if not _rel_ok(report.lower_bound, bound):
                bad.append("lower bound != 1/(N lambda_max)")
            relax = report.relaxation_value
            if relax is None or not (q <= relax * (1 + REL_TOL)
                                     and relax <= n * lam * (1 + REL_TOL)):
                bad.append("a^H B a <= tr(B A*) <= N lambda_max violated")
            if q < _quad(np.ones(n), b) * (1 - REL_TOL):
                bad.append("worse than all-ones phases")
            if abs(theta_hat - scenario.theta) ** 2 / report.achieved_variance > ML_ERROR_LIMIT:
                bad.append("ML estimate error beyond its variance")
            return Outcome(1, int(bool(bad)), tuple(bad),
                           report.achieved_variance / bound)

        return Op(run, check)


class Verify(Workload):
    """The statistical checkers: ``verify_unbiasedness`` with phases from
    ``eigenvector_rounding`` (no SDP), and ``verify_diagonal_concentration``
    in both modes."""

    name = "verify"
    trace_passes = 20

    def pass_ops(self, p: int) -> list[Op]:
        cases = len(UNBIASED_CASES)
        ops = [self._unbiased(p * cases + j, n, m) for j, (n, m) in enumerate(UNBIASED_CASES)]
        return ops + [self._concentration(mode, p) for mode in
                      (montecarlo.SENSOR_SWEEP, montecarlo.ANTENNA_SWEEP)]

    def _unbiased(self, k: int, n: int, m: int) -> Op:
        stream = RngStream(self.seed, k)
        scenario = channel.sample_scenario(
            channel.ScenarioConfig(n_sensors=n, n_antennas=m), stream.child(0))
        chan = channel.generate_channel(scenario, stream.child(1))
        b_ref = fisher_reference(chan.matrix, scenario.sensor_noise_powers,
                                 scenario.fc_noise_power)
        bound = 1.0 / (n * float(np.linalg.eigvalsh(b_ref)[-1]))

        def run():
            b = estimator.fisher_matrix(chan, scenario)
            a = phase_opt.eigenvector_rounding(b)
            return a, montecarlo.verify_unbiasedness(
                scenario, chan, a, UNBIASED_SAMPLES, stream.child(2))

        def check(out) -> Outcome:
            a, rep = out
            bad = []
            if not _rel_ok(rep.predicted_variance, 1.0 / _quad(a, b_ref)):
                bad.append("predicted variance != 1/(a^H B a)")
            if rep.mean_z_score > 5.0:
                bad.append("sample mean biased")
            if abs(rep.sample_variance / rep.predicted_variance - 1.0) > 8.0 / math.sqrt(
                    UNBIASED_SAMPLES):
                bad.append("sample variance off the predicted variance")
            return Outcome(1, int(bool(bad)), tuple(bad), rep.predicted_variance / bound)

        return Op(run, check)

    def _concentration(self, mode: str, p: int) -> Op:
        config = montecarlo.ConcentrationConfig(
            mode=mode, values=CONCENTRATION_VALUES, fixed_count=4,
            n_draws=CONCENTRATION_DRAWS, master_seed=1000 * self.seed + p)

        def run():
            return montecarlo.verify_diagonal_concentration(config)

        def check(rep) -> Outcome:
            medians = [pt.median for pt in rep.points]
            bad = []
            if not all(pt.applicable for pt in rep.points):
                bad.append("point not applicable")
            # Off-diagonal terms shrink like 1/sqrt(value).
            scaled = [md * math.sqrt(v) for md, v in zip(medians, CONCENTRATION_VALUES)]
            if not all(0.5 <= s <= 5.0 for s in scaled):
                bad.append(f"off-diagonal decay off 1/sqrt(value): {scaled}")
            if any(b2 >= b1 for b1, b2 in zip(medians, medians[1:])):
                bad.append("off-diagonal terms not shrinking")
            return Outcome(1, int(bool(bad)), tuple(bad))

        return Op(run, check)


WORKLOADS = {w.name: w for w in (Fig1, Feedback, Verify)}
