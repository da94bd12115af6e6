# phasefuse/phase_opt.py
"""Phase selection front door.

Dispatches between the two-sensor closed form, the SDP relaxation with
rank-one rounding, the all-ones (no feedback) baseline, and an exhaustive
grid oracle used for verification at small N.

``optimize_phases`` is the one entry point of every command, sweep and
feedback round. It, ``eigenvector_rounding`` and ``feedback_round`` run with
OpenBLAS on one thread (see ``blas``) and restore the thread count on
return, with the same output bits.

Every B passes ``estimator.check_hermitian``. The closed form runs only at
N = 2 and the grid oracle only at N <= 4 (``SENSOR_LIMITS``);
``check_sensor_count`` holds that rule for them and for
``montecarlo.ExperimentConfig``.

The SDP strategy has a closed form when it is given a one-row factor F =
f^H, B = f f^H, which ``estimator.fisher_factor`` returns for a single FC
antenna (M = 1 < N). Then a^H B a = |f^H a|^2 <= (sum_i |f_i|)^2 for every
unit-modulus a, and the same bound holds for the relaxation: tr(B A) = f^H A
f <= sum_ij |f_i| |f_j| |A_ij| <= (sum_i |f_i|)^2, since a PSD A with a unit
diagonal has |A_ij| <= 1. Co-phasing, a_i = f_i / |f_i|, attains it, so the
relaxation is tight, its value is (sum_i |f_i|)^2 and co-phasing is the
optimum; no ``SdpProblem`` is built, and neither ``sdp.solve`` nor the
rounding (with its random draws) runs. A bare B, or a factor of two or more
rows, takes the SDP path; ``sdp.solve`` still certifies a rank-one B for its
own callers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lapack, sdp
from .blas import single_threaded
from .channel import ChannelRealization, Scenario
from .errors import ConfigurationError
from .estimator import (
    check_hermitian,
    estimator_variance,
    fisher_factor,
    fisher_matrix,
    variance_lower_bound,
)
from .rng import RngStream

CLOSED_FORM_N2 = "closed_form_n2"
SDP_RELAXATION = "sdp"
ALL_ONES = "all_ones"
GRID_ORACLE = "grid"

_KINDS = (CLOSED_FORM_N2, SDP_RELAXATION, ALL_ONES, GRID_ORACLE)
# The least and the greatest sensor count N of each strategy that has them;
# the others run at any N >= 1.
SENSOR_LIMITS = {CLOSED_FORM_N2: (2, 2), GRID_ORACLE: (1, 4)}


def check_sensor_count(kind: str, n: int) -> None:
    """Raise ConfigurationError naming the strategy ``kind`` and ``n`` unless
    that strategy runs at N = ``n`` sensors (``SENSOR_LIMITS``)."""
    if kind not in SENSOR_LIMITS:
        return
    low, high = SENSOR_LIMITS[kind]
    if not low <= n <= high:
        limit = f"N = {low}" if low == high else f"{low} <= N <= {high}"
        raise ConfigurationError(f"strategy {kind} needs {limit}, got N = {n}")


@dataclass(frozen=True)
class PhaseStrategy:
    """Named phase-selection method."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")


@dataclass
class OptimizationReport:
    """Chosen phases with the achieved variance and its certificates."""

    phases: np.ndarray
    achieved_variance: float
    lower_bound: float
    relaxation_value: float | None


def optimize_phases_n2(b: np.ndarray) -> np.ndarray:
    """Two-sensor optimum a = (e^{j arg(B12)}, 1).

    Maximizes a^H B a = B11 + B22 + 2 Re(B12 e^{-j(phi1 - phi2)}), attained
    when phi1 - phi2 = arg(B12); value B11 + B22 + 2|B12|.
    """
    b = check_hermitian("b", b)
    check_sensor_count(CLOSED_FORM_N2, b.shape[0])
    b12 = b[0, 1]
    if b12 == 0:
        return np.ones(2, dtype=complex)
    return np.array([b12 / abs(b12), 1.0], dtype=complex)


def grid_search(b: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive search over quantized relative phases (first phase fixed
    to 0): a 1 degree grid for N <= 3 and a 4 degree grid for N = 4.
    Returns (best vector, best quadratic form). Guarded to N <= 4."""
    b = check_hermitian("b", b)
    n = b.shape[0]
    check_sensor_count(GRID_ORACLE, n)
    if n == 1:
        return np.ones(1, dtype=complex), float(np.real(b[0, 0]))

    steps = 360 if n <= 3 else 90
    phi = 2.0 * np.pi * np.arange(steps) / steps
    grids = np.meshgrid(*([phi] * (n - 1)), indexing="ij", sparse=True)

    total = np.full(tuple(steps for _ in range(n - 1)), float(np.real(np.trace(b))))
    for i, k in itertools.combinations(range(n), 2):
        # a^H B a cross term: 2 Re(B_ik e^{j(phi_k - phi_i)}), phi_0 = 0
        pk = grids[k - 1] if k > 0 else 0.0
        pi_ = grids[i - 1] if i > 0 else 0.0
        delta = pk - pi_
        total = total + 2.0 * (
            np.real(b[i, k]) * np.cos(delta) - np.imag(b[i, k]) * np.sin(delta)
        )
    flat = int(np.argmax(total))
    idx = np.unravel_index(flat, total.shape)
    a = np.ones(n, dtype=complex)
    a[1:] = np.exp(1j * phi[list(idx)])
    return a, float(total[idx])


@single_threaded()
def optimize_phases(
    b: np.ndarray,
    strategy: PhaseStrategy,
    rng: RngStream,
    factor: np.ndarray | None = None,
) -> OptimizationReport:
    """Select a phase vector for Fisher matrix B under the given strategy.

    Given B's factor F, B = F^H F with F M x N (``fisher_factor``), the
    lower bound and the SDP's rank-one certificate take their spectral data
    from the M x M F F^H; every other step reads B. A one-row F = f^H
    (M = 1) gives the SDP strategy's optimum in closed form: co-phasing
    ``phase_normalize(f)``, with ``relaxation_value`` (sum_i |f_i|)^2,
    which the relaxation attains (module docstring)."""
    b = np.asarray(b)
    lower = variance_lower_bound(b, factor)
    n = b.shape[0]
    relaxation_value = None

    if strategy.kind == CLOSED_FORM_N2:
        a = optimize_phases_n2(b)
    elif strategy.kind == ALL_ONES:
        a = np.ones(n, dtype=complex)
    elif strategy.kind == GRID_ORACLE:
        a, _ = grid_search(b)
    elif factor is not None and np.shape(factor)[0] == 1:  # SDP_RELAXATION, B = f f^H
        # Co-phasing is the relaxation's optimum (module docstring).
        row = np.asarray(factor)[0]  # f^H
        a = sdp.phase_normalize(np.conj(row))
        relaxation_value = float(np.sum(np.abs(row))) ** 2
    else:  # SDP_RELAXATION
        problem = sdp.SdpProblem(objective=b, factor=factor)
        solution = sdp.solve(problem)
        relaxation_value = solution.objective_value
        a = sdp.extract_rank_one(solution, problem, rng)

    return OptimizationReport(
        phases=a,
        achieved_variance=estimator_variance(a, b),
        lower_bound=lower,
        relaxation_value=relaxation_value,
    )


@single_threaded()
def eigenvector_rounding(b: np.ndarray) -> np.ndarray:
    """Phase-normalized leading eigenvector of B; the convergence-failure
    fallback used by the experiment harness."""
    _, u = lapack.eigh(check_hermitian("b", b))
    return sdp.phase_normalize(u[:, -1])


@single_threaded()
def feedback_round(
    channel: ChannelRealization,
    scenario: Scenario,
    strategy: PhaseStrategy,
    rng: RngStream,
) -> OptimizationReport:
    """One ideal feedback cycle: FC computes B (and its factor when M < N),
    optimizes a, sensors adopt it."""
    b = fisher_matrix(channel, scenario)
    return optimize_phases(b, strategy, rng, fisher_factor(channel, scenario))
