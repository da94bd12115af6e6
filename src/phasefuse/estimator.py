# phasefuse/estimator.py
"""ML estimation of the observed parameter and its variance.

Core quantity is the Hermitian PSD matrix

    B = H^H (H V H^H + sigma_n^2 I_M)^{-1} H,

whose quadratic form a^H B a sets the estimator variance:
Var(theta_hat) = 1 / (a^H B a), lower-bounded by 1 / (N lambda_max(B)).
"""

from __future__ import annotations

import numpy as np

from . import lapack
from .blas import single_threaded
from .channel import ChannelRealization, Scenario
from .errors import ConfigurationError, DegenerateInstanceError


def _degeneracy_floor(b: np.ndarray) -> float:
    return 1e-14 * float(np.real(np.trace(b))) + np.finfo(float).tiny


@single_threaded()
def noise_covariance(channel: ChannelRealization, scenario: Scenario) -> np.ndarray:
    """Covariance of the effective noise at the FC: H V H^H + sigma_n^2 I_M.

    Raises DegenerateInstanceError when it overflows in floating point
    (channel gains near the square root of the largest double)."""
    if scenario.fc_noise_power <= 0:
        raise ConfigurationError("fc_noise_power must be positive for estimation")
    h = channel.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        hv = h * scenario.sensor_noise_powers[np.newaxis, :]
        c = hv @ h.conj().T
        c[np.diag_indices_from(c)] += scenario.fc_noise_power
        c = 0.5 * (c + c.conj().T)
    if not np.isfinite(c).all():
        raise DegenerateInstanceError("C = H V H^H + sigma_n^2 I overflows in floating point")
    return c


@single_threaded()
def fisher_matrix(channel: ChannelRealization, scenario: Scenario) -> np.ndarray:
    """Compute B = H^H (H V H^H + sigma_n^2 I)^{-1} H.

    Uses a Cholesky solve of the M x M covariance when M <= N; for M > N
    (and invertible V) the matrix-inversion-lemma form is used instead, which
    only factors an N x N matrix:

        B = (1/s) G - (1/s^2) G (V^{-1} + (1/s) G)^{-1} G,   G = H^H H.

    Raises DegenerateInstanceError when B overflows in floating point (channel
    gains near the largest double).
    """
    h = channel.matrix
    m, n = h.shape
    sv = scenario.sensor_noise_powers
    s = scenario.fc_noise_power
    if s <= 0:
        raise ConfigurationError("fc_noise_power must be positive for estimation")

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            if m > n and np.all(sv > 0):
                g = h.conj().T @ h
                inner = np.diag(1.0 / sv) + g / s
                b = g / s - (g @ lapack.cho_solve(lapack.cho_factor(inner), g)) / (s * s)
            else:
                c = noise_covariance(channel, scenario)
                b = h.conj().T @ lapack.cho_solve(lapack.cho_factor(c), h)
            b = 0.5 * (b + b.conj().T)
        if np.isfinite(b).all():
            return b
    except (lapack.NonFiniteError, DegenerateInstanceError):  # C or G overflowed
        pass
    raise DegenerateInstanceError("B = H^H C^{-1} H overflows in floating point")


def _quadratic_form(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b @ a)))


def check_unit_modulus(a: np.ndarray, tol: float = 1e-12) -> None:
    if np.max(np.abs(np.abs(a) - 1.0)) > tol:
        raise ConfigurationError("phase vector entries must have unit modulus")


@single_threaded()
def ml_estimate(
    y: np.ndarray,
    channel: ChannelRealization,
    scenario: Scenario,
    a: np.ndarray,
) -> complex:
    """ML estimate theta_hat = a^H H^H C^{-1} y / (a^H H^H C^{-1} H a)."""
    h = channel.matrix
    a = np.asarray(a)
    if a.shape != (h.shape[1],):
        raise ConfigurationError("phase vector length must equal the number of sensors")
    c = noise_covariance(channel, scenario)
    cf = lapack.cho_factor(c)
    ha = h @ a
    g = lapack.cho_solve(cf, ha)  # C^{-1} H a
    denom = float(np.real(np.vdot(ha, g)))
    if denom <= np.finfo(float).tiny:
        raise DegenerateInstanceError("a^H B a vanishes (all-zero channel?)")
    return complex(np.vdot(g, y) / denom)


@single_threaded()
def estimator_variance(a: np.ndarray, b: np.ndarray) -> float:
    """Eq.-style variance 1 / (a^H B a) at phase vector a."""
    check_unit_modulus(np.asarray(a))
    q = _quadratic_form(np.asarray(a), b)
    if q <= _degeneracy_floor(b):
        raise DegenerateInstanceError("quadratic form a^H B a is degenerate")
    return 1.0 / q


@single_threaded()
def variance_lower_bound(b: np.ndarray) -> float:
    """Lower bound 1 / (N lambda_max(B)) on the achievable variance, N the
    order of B."""
    lam_max = float(np.max(lapack.eigvalsh(b)))
    if lam_max <= _degeneracy_floor(b):
        raise DegenerateInstanceError("lambda_max(B) is degenerate")
    return 1.0 / (b.shape[0] * lam_max)
