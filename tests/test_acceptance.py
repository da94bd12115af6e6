"""Acceptance suite: one test (or sub-test) per exit criterion, each printing
a pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Which bound each closeness criterion compares against:
  criterion 7a: the SDP mean variance against the mean relaxation bound
     1/tr(B A*) of the same trials. Since a^H B a <= tr(B A*) <= N lambda_max
     for every unit-modulus a, 1/tr(B A*) is the floor on any phase choice;
     at M=4 it sits 30-35% above 1/(N lambda_max), so the eigenvalue bound
     is printed beside the result but cannot be a 15% target.
  criterion 8a: eq. 11 is the N -> infinity limit of the mean eigenvalue
     bound, whose gap to it shrinks like sqrt(M/N) (about 0.10 at N=200,
     0.04 at N=800). The check is within 10% at N=800 and at least 1.5x
     shrinkage from N=200 to N=800.
"""

import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from phasefuse.asymptotics import (
    bound_ratio,
    large_n_lower_bound,
    single_antenna_upper_bound,
)
from phasefuse.channel import Scenario, ScenarioConfig, generate_channel, sample_scenario
from phasefuse.estimator import fisher_matrix, variance_lower_bound
from phasefuse.montecarlo import (
    ANTENNA_SWEEP,
    SENSOR_SWEEP,
    ConcentrationConfig,
    ExperimentConfig,
    run_sweep,
    verify_diagonal_concentration,
    verify_unbiasedness,
)
from phasefuse.phase_opt import (
    ALL_ONES,
    SDP_RELAXATION,
    PhaseStrategy,
    grid_search,
    optimize_phases_n2,
)
from phasefuse.rng import RngStream
from phasefuse.sdp import SdpProblem, extract_rank_one, phase_normalize, solve


def report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}  {detail}")
    assert ok, f"criterion {num}: {desc}  {detail}"


def quad(a, b):
    return float(np.real(np.vdot(a, b @ a)))


@dataclass
class SolvedInstance:
    b: np.ndarray
    solution: object
    rounded: np.ndarray


def channel_fisher(n, m, seed, stream_index=0):
    cfg = ScenarioConfig(n_sensors=n, n_antennas=m)
    stream = RngStream(seed, stream_index)
    scn = sample_scenario(cfg, stream.child(0))
    ch = generate_channel(scn, stream.child(1))
    return fisher_matrix(ch, scn), scn, ch, stream


def solve_and_round(b, stream):
    problem = SdpProblem(objective=b)
    sol = solve(problem)
    a = extract_rank_one(sol, problem, stream, 100)
    return SolvedInstance(b=b, solution=sol, rounded=a)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def n2_instances():
    t0 = time.time()
    out = []
    for k in range(100):
        b, _, _, stream = channel_fisher(2, 4, seed=100, stream_index=k)
        out.append(solve_and_round(b, stream.child(2)))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def n3_instances():
    t0 = time.time()
    out = []
    for k in range(200):
        m = 2 if k % 2 == 0 else 4
        b, _, _, stream = channel_fisher(3, m, seed=200, stream_index=k)
        inst = solve_and_round(b, stream.child(2))
        _, grid_val = grid_search(b, step_deg=1.0)
        out.append((inst, grid_val))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def all_solved(n2_instances, n3_instances):
    insts = list(n2_instances[0]) + [i for i, _ in n3_instances[0]]
    gen = np.random.default_rng(7)
    for k in range(50):
        n = int(gen.integers(2, 10))
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        insts.append(solve_and_round(g @ g.conj().T, RngStream(300, k)))
    return insts


@pytest.fixture(scope="module")
def fig1_result():
    t0 = time.time()
    cfg = ExperimentConfig(
        sweep=SENSOR_SWEEP, sweep_values=tuple(range(2, 31, 2)), fixed_count=4,
        trials=300, master_seed=0,
    )
    return run_sweep(cfg), time.time() - t0


@pytest.fixture(scope="module")
def fig2_result():
    cfg = ExperimentConfig(
        sweep=ANTENNA_SWEEP, sweep_values=(1, 2, 4, 8, 16, 32, 64, 128),
        fixed_count=4, trials=300, master_seed=0,
    )
    return run_sweep(cfg)


# ---------------------------------------------------------------- criteria

def test_criterion_01_closed_form_agreement(n2_instances):
    insts, elapsed = n2_instances
    worst = 0.0
    for inst in insts:
        opt = quad(optimize_phases_n2(inst.b), inst.b)
        worst = max(worst, abs(quad(inst.rounded, inst.b) - opt) / opt)
    report(1, "SDP+rounding matches N=2 closed form to 1e-6",
           worst <= 1e-6 and elapsed < 1.0,
           f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_grid_oracle_agreement(n3_instances):
    pairs, elapsed = n3_instances
    hits = sum(
        1.0 / quad(inst.rounded, inst.b) <= 1.01 / grid_val
        for inst, grid_val in pairs
    )
    report(2, "SDP variance <= 1.01x 1-degree grid oracle in >= 95% of 200",
           hits >= 190 and elapsed < 300.0,
           f"({hits}/200 within 1.01x, {elapsed:.1f}s)")


def test_criterion_03_relaxation_sandwich(all_solved):
    ok = True
    for inst in all_solved:
        n = inst.b.shape[0]
        n_lam = n * float(np.max(np.linalg.eigvalsh(inst.b)))
        relax = inst.solution.objective_value
        achieved_var = 1.0 / quad(inst.rounded, inst.b)
        slack = 1e-8
        ok &= 1.0 / n_lam <= (1.0 / relax) * (1 + slack) + slack
        ok &= 1.0 / relax <= achieved_var * (1 + slack) + slack
    report(3, "1/(N lam_max) <= 1/tr(BA*) <= achieved variance on all solves",
           ok, f"({len(all_solved)} instances)")


def test_criterion_04_solver_certificates(all_solved):
    ok = True
    for inst in all_solved:
        sol = inst.solution
        lam = float(np.max(np.linalg.eigvalsh(sol.gram)))
        ok &= sol.duality_gap <= 1e-7 * max(1.0, abs(sol.objective_value))
        ok &= sol.diag_residual <= 1e-8
        ok &= sol.min_eigenvalue >= -1e-8 * max(1.0, lam)
    report(4, "duality gap <= 1e-7, diag residual <= 1e-8, min eig >= -1e-8",
           ok, f"({len(all_solved)} instances)")


def test_criterion_05_dual_formula_identity():
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 9))
        m = int(gen.integers(1, 9))
        b, scn, ch, _ = channel_fisher(n, m, seed=int(gen.integers(0, 2**31)))
        h, sv, s = ch.matrix, scn.sensor_noise_powers, scn.fc_noise_power
        g = h.conj().T @ h
        expansion = g / s - g @ np.linalg.inv(np.diag(1.0 / sv) + g / s) @ g / s**2
        err = np.linalg.norm(b - expansion) / np.linalg.norm(expansion)
        worst = max(worst, err)
    report(5, "direct B agrees with matrix-inversion-lemma form to 1e-10",
           worst <= 1e-10, f"(worst rel Frobenius err {worst:.2e})")


def test_criterion_06_unbiasedness_and_variance_law():
    b, scn, ch, _ = channel_fisher(4, 4, seed=600)
    a = np.ones(4, dtype=complex)
    rep = verify_unbiasedness(scn, ch, a, 10_000, RngStream(601, 0))
    rel = abs(rep.sample_variance - rep.predicted_variance) / rep.predicted_variance
    report(6, "mean within 4 SE of theta and sample variance within 10% of "
              "prediction over 1e4 trials",
           rep.mean_z_score <= 4.0 and rel <= 0.10,
           f"(z = {rep.mean_z_score:.2f}, variance rel err {rel:.3f})")


def _stats(point, label):
    return point.strategy_stats[label]


def test_criterion_07a_fig1_close_to_lower_bound(fig1_result):
    result, _ = fig1_result
    worst, worst_eig = 0.0, 0.0
    for p in result.points:
        if p.sweep_value < 10:
            continue
        sdp_s = _stats(p, "sdp")
        relax = sdp_s.relaxation_bound_mean
        if relax is None:  # a convergence fallback left no certified bound
            worst = np.inf
            continue
        worst = max(worst, abs(sdp_s.mean_variance - relax) / relax)
        worst_eig = max(worst_eig, abs(sdp_s.mean_variance - p.lower_bound_mean)
                        / p.lower_bound_mean)
    report("7a", "Fig.1 SDP mean within 15% of mean relaxation bound "
                 "1/tr(BA*), N >= 10",
           worst <= 0.15, f"(worst rel gap {worst:.3f}; "
                          f"{worst_eig:.3f} above eigenvalue bound)")


def test_criterion_07b_fig1_feedback_gain(fig1_result):
    result, _ = fig1_result
    worst = np.inf
    for p in result.points:
        if p.sweep_value < 10:
            continue
        worst = min(worst, _stats(p, "all_ones").mean_variance
                    / _stats(p, "sdp").mean_variance)
    report("7b", "Fig.1 all-ones mean >= 1.5x SDP mean for N >= 10",
           worst >= 1.5, f"(smallest ratio {worst:.2f})")


def test_criterion_07c_fig1_monotone_and_runtime(fig1_result):
    result, elapsed = fig1_result
    ok = elapsed < 900.0
    for label in ("sdp", "all_ones"):
        for p_prev, p_next in zip(result.points, result.points[1:]):
            s_prev, s_next = _stats(p_prev, label), _stats(p_next, label)
            ok &= s_next.mean_variance <= s_prev.mean_variance \
                + 2 * (s_prev.std_err + s_next.std_err)
    report("7c", "Fig.1 means monotone nonincreasing in N (2 SE), < 15 min",
           ok, f"({elapsed:.0f}s)")


def _eigenvalue_bound_gap(n):
    lbs, eq11s = [], []
    for t in range(100):
        b, scn, _, _ = channel_fisher(n, 4, seed=800, stream_index=t)
        lbs.append(variance_lower_bound(b))
        eq11s.append(large_n_lower_bound(scn))
    return abs(np.mean(lbs) - np.mean(eq11s)) / np.mean(eq11s)


def test_criterion_08a_fig1_large_n_asymptote():
    # The gap shrinks like sqrt(M/N), so a 4x larger N should about halve it.
    gap_200, gap_800 = _eigenvalue_bound_gap(200), _eigenvalue_bound_gap(800)
    shrink = gap_200 / gap_800
    report("8a", "mean eigenvalue bound at N=800, M=4 within 10% of large-N "
                 "formula, gap shrinking >= 1.5x from N=200",
           gap_800 <= 0.10 and shrink >= 1.5,
           f"(rel err {gap_200:.4f} at N=200, {gap_800:.4f} at N=800, "
           f"shrink {shrink:.2f}x)")


def test_criterion_08b_single_antenna_asymptote():
    rels = []
    for t in range(100):
        b, scn, ch, _ = channel_fisher(200, 1, seed=801, stream_index=t)
        a = phase_normalize(ch.matrix[0].conj())  # coherent alignment, M=1
        var = 1.0 / quad(a, b)
        eq12 = single_antenna_upper_bound(scn)
        rels.append(abs(var - eq12) / eq12)
    report("8b", "M=1 optimal-phase variance at N=200 within 10% of "
                 "single-antenna formula", max(rels) <= 0.10,
           f"(worst rel err {max(rels):.2e})")


def test_criterion_09_fig2_gap_shrinks_and_matches_eq17(fig2_result):
    result = fig2_result
    ok = True
    gaps = []
    for p in result.points:
        sdp_s, ao_s = _stats(p, "sdp"), _stats(p, "all_ones")
        gaps.append((ao_s.mean_variance - sdp_s.mean_variance,
                     ao_s.std_err + sdp_s.std_err))
    for (g_prev, se_prev), (g_next, se_next) in zip(gaps, gaps[1:]):
        ok &= g_next <= g_prev + 2 * (se_prev + se_next)
    last = result.points[-1]
    rel = abs(_stats(last, "all_ones").mean_variance - last.eq17) / last.eq17
    report(9, "Fig.2 feedback gap shrinks with M (2 SE); all-ones at M=128 "
              "within 15% of large-M formula",
           ok and rel <= 0.15, f"(M=128 rel err {rel:.3f})")


def test_criterion_10_one_over_m_scaling():
    cfg = ExperimentConfig(
        sweep=ANTENNA_SWEEP, sweep_values=(16, 32, 64, 128), fixed_count=4,
        trials=300, master_seed=0, strategies=(PhaseStrategy(ALL_ONES),),
        sensor_noise_range=(1e-5, 1e-5),
    )
    result = run_sweep(cfg)
    means = [_stats(p, "all_ones").mean_variance for p in result.points]
    ratios = [means[i] / means[i + 1] for i in range(len(means) - 1)]
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    report(10, "variance halves from M to 2M for M >= 16 at sigma_v^2 = 1e-5",
           ok, f"(ratios {[round(r, 3) for r in ratios]})")


def test_criterion_11_ratio_identity():
    gen = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        n = int(gen.integers(1, 40))
        inp = Scenario(
            n_sensors=n, n_antennas=1,
            distances=gen.uniform(1.0, 9.0, n),
            sensor_noise_powers=gen.uniform(0.0, 0.05, n),
            fc_noise_power=gen.uniform(0.01, 1.0),
            path_loss_exp=gen.uniform(0.0, 2.0),
        )
        lhs = bound_ratio(inp)
        rhs = large_n_lower_bound(inp) / single_antenna_upper_bound(inp)
        ok &= abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    equal_d = Scenario(
        n_sensors=12, n_antennas=1,
        distances=np.full(12, 3.3), sensor_noise_powers=np.full(12, 0.004),
        fc_noise_power=0.1, path_loss_exp=1.0,
    )
    ok &= bound_ratio(equal_d) == 1.0
    report(11, "bound ratio identity to 1e-12; exactly 1 for equal distances",
           ok)


def test_criterion_12_concentration_rate():
    rep = verify_diagonal_concentration(ConcentrationConfig(
        values=(1000, 2000, 4000, 8000), n_draws=100, master_seed=0))
    meds = [p.median for p in rep.points]
    factors = [meds[i] / meds[i + 1] for i in range(len(meds) - 1)]
    ok = all(1.2 <= f <= 1.7 for f in factors)
    report(12, "off-diagonal of (1/N) H V H^H decays ~1/sqrt(N) "
               "(doubling factor in [1.2, 1.7])",
           ok, f"(factors {[round(f, 3) for f in factors]})")


def test_criterion_13_cli_determinism(tmp_path):
    argv = [sys.executable, "-m", "phasefuse.cli", "fig1",
            "--trials", "10", "--seed", "42"]
    outputs = []
    # Both bundled OpenBLAS libraries (numpy's and scipy's) read
    # OPENBLAS_NUM_THREADS.
    runs = [("1", "r1"), ("1", "r2"), ("1", "r3"), ("2", "t2a"), ("2", "t2b")]
    for threads, name in runs:
        path = tmp_path / f"{name}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(argv + ["--output", str(path)], env=env,
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    report(13, "fig1 --trials 10 --seed 42 byte-identical across 3 runs and "
               "OPENBLAS_NUM_THREADS in {1, 2}", ok)
