# phasefuse/asymptotics.py
"""Closed-form asymptotic bounds on the estimation variance.

Each takes the realized ``Scenario``. Large-N regime (expectations taken as
empirical means over its d_i and sigma_{v,i}^2):

    lower bound   (s_n^2 + sum_i s_{v,i}^2 / d_i^{2a}) / (N sum_i 1/d_i^{2a})
    upper bound   (s_n^2 + sum_i s_{v,i}^2 / d_i^{2a}) / (sum_i 1/d_i^a)^2
    ratio         (sum_i 1/d_i^a)^2 / (N sum_i 1/d_i^{2a})

Large-M regime, valid for any unit-modulus phase vector:

    variance ~ 1 / (M sum_i 1 / (d_i^{2a} s_n^2 + M s_{v,i}^2)).
"""

from __future__ import annotations

import numpy as np

from .channel import Scenario


def _gain_sums(scenario: Scenario) -> tuple[float, float, float]:
    """(numerator, sum 1/d^a, sum 1/d^{2a})."""
    inv_a = scenario.distances ** (-scenario.path_loss_exp)
    inv_2a = inv_a * inv_a
    numer = scenario.fc_noise_power + float(np.sum(scenario.sensor_noise_powers * inv_2a))
    return numer, float(np.sum(inv_a)), float(np.sum(inv_2a))


def large_n_lower_bound(scenario: Scenario) -> float:
    """Large-N lower bound on the ML variance (multi-antenna FC)."""
    numer, _, sum_2a = _gain_sums(scenario)
    return numer / (scenario.n_sensors * sum_2a)


def single_antenna_upper_bound(scenario: Scenario) -> float:
    """Large-N variance of the single-antenna FC with coherent combining."""
    numer, sum_a, _ = _gain_sums(scenario)
    return numer / (sum_a * sum_a)


def bound_ratio(scenario: Scenario) -> float:
    """Ratio of the large-N lower bound to the single-antenna upper bound,
    (sum w)^2 / (N sum w^2) over the gains w = 1/d^a. It equals the moment
    decomposition 1 - Var{w} / E{w^2} (population moments over the realized
    d_i).

    The ratio is scale invariant in the gains, so they are normalized by
    their maximum first; equal distances then give exactly 1.
    """
    inv_a = scenario.distances ** (-scenario.path_loss_exp)
    w = inv_a / np.max(inv_a)
    sum_w = float(np.sum(w))
    return (sum_w * sum_w) / (scenario.n_sensors * float(np.sum(w * w)))


def large_m_variance(scenario: Scenario) -> float:
    """Large-M variance law, independent of the chosen phase vector."""
    m = scenario.n_antennas
    d2a = scenario.distances ** (2.0 * scenario.path_loss_exp)
    denom = float(np.sum(
        1.0 / (d2a * scenario.fc_noise_power + m * scenario.sensor_noise_powers)))
    return 1.0 / (m * denom)
