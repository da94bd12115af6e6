# phasefuse/asymptotics.py
"""Closed-form asymptotic bounds on the estimation variance.

Large-N regime (expectations taken as empirical means over the realized
d_i and sigma_{v,i}^2):

    lower bound   (s_n^2 + sum_i s_{v,i}^2 / d_i^{2a}) / (N sum_i 1/d_i^{2a})
    upper bound   (s_n^2 + sum_i s_{v,i}^2 / d_i^{2a}) / (sum_i 1/d_i^a)^2
    ratio         (sum_i 1/d_i^a)^2 / (N sum_i 1/d_i^{2a})

Large-M regime, valid for any unit-modulus phase vector:

    variance ~ 1 / (M sum_i 1 / (d_i^{2a} s_n^2 + M s_{v,i}^2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Scenario, check_finite
from .errors import ConfigurationError


@dataclass(frozen=True)
class AsymptoticInputs:
    """Realized scenario quantities the asymptotic formulas depend on."""

    distances: np.ndarray
    sensor_noise_powers: np.ndarray
    fc_noise_power: float
    path_loss_exp: float
    n_antennas: int = 1

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        sv = np.asarray(self.sensor_noise_powers, dtype=float)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "sensor_noise_powers", sv)
        if d.size == 0 or d.size != sv.size:
            raise ConfigurationError("distances and noise powers must be nonempty, equal length")
        check_finite(self, ("distances", "sensor_noise_powers", "fc_noise_power",
                            "path_loss_exp"))
        if np.any(d <= 0) or np.any(sv < 0) or self.fc_noise_power < 0:
            raise ConfigurationError("inputs must be positive (noise powers nonnegative)")
        if self.path_loss_exp < 0 or self.n_antennas < 1:
            raise ConfigurationError("path_loss_exp must be >= 0, n_antennas >= 1")

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "AsymptoticInputs":
        return cls(
            distances=scenario.distances,
            sensor_noise_powers=scenario.sensor_noise_powers,
            fc_noise_power=scenario.fc_noise_power,
            path_loss_exp=scenario.path_loss_exp,
            n_antennas=scenario.n_antennas,
        )


def _gain_sums(inputs: AsymptoticInputs) -> tuple[float, float, float]:
    """(numerator, sum 1/d^a, sum 1/d^{2a})."""
    inv_a = inputs.distances ** (-inputs.path_loss_exp)
    inv_2a = inv_a * inv_a
    numer = inputs.fc_noise_power + float(np.sum(inputs.sensor_noise_powers * inv_2a))
    return numer, float(np.sum(inv_a)), float(np.sum(inv_2a))


def large_n_lower_bound(inputs: AsymptoticInputs) -> float:
    """Large-N lower bound on the ML variance (multi-antenna FC)."""
    numer, _, sum_2a = _gain_sums(inputs)
    n = inputs.distances.size
    return numer / (n * sum_2a)


def single_antenna_upper_bound(inputs: AsymptoticInputs) -> float:
    """Large-N variance of the single-antenna FC with coherent combining."""
    numer, sum_a, _ = _gain_sums(inputs)
    return numer / (sum_a * sum_a)


def bound_ratio(inputs: AsymptoticInputs) -> float:
    """Ratio of the large-N lower bound to the single-antenna upper bound,
    (sum w)^2 / (N sum w^2) over the gains w = 1/d^a. It equals the moment
    decomposition 1 - Var{w} / E{w^2} (population moments over the realized
    d_i).

    The ratio is scale invariant in the gains, so they are normalized by
    their maximum first; equal distances then give exactly 1.
    """
    inv_a = inputs.distances ** (-inputs.path_loss_exp)
    w = inv_a / np.max(inv_a)
    sum_w = float(np.sum(w))
    return (sum_w * sum_w) / (inputs.distances.size * float(np.sum(w * w)))


def large_m_variance(inputs: AsymptoticInputs) -> float:
    """Large-M variance law, independent of the chosen phase vector."""
    m = inputs.n_antennas
    d2a = inputs.distances ** (2.0 * inputs.path_loss_exp)
    denom = float(np.sum(1.0 / (d2a * inputs.fc_noise_power + m * inputs.sensor_noise_powers)))
    return 1.0 / (m * denom)
