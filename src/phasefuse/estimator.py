# phasefuse/estimator.py
"""ML estimation of the observed parameter and its variance.

Core quantity is the Hermitian PSD matrix

    B = H^H (H V H^H + sigma_n^2 I_M)^{-1} H,

whose quadratic form a^H B a sets the estimator variance:
Var(theta_hat) = 1 / (a^H B a), lower-bounded by 1 / (N lambda_max(B)).

B has rank at most M. When M < N, ``fisher_factor`` gives its M x N factor
F = L^{-1} H, B = F^H F, with L the lower Cholesky factor of C. The nonzero
eigenvalues of B are those of the M x M F F^H, so ``variance_lower_bound``
and the SDP's rank-one certificate take lambda_max(B) from an M x M
eigensolve when they are given F. Every other step reads the dense B of
``fisher_matrix``.
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


@single_threaded()
def fisher_factor(channel: ChannelRealization, scenario: Scenario) -> np.ndarray | None:
    """The M x N factor F = L^{-1} H of B = F^H F, where L L^H = C is the
    Cholesky factorization of the noise covariance, or None when M >= N,
    where F would be no smaller than B.

    Raises DegenerateInstanceError when C overflows in floating point."""
    h = channel.matrix
    if h.shape[0] >= h.shape[1]:
        return None
    c = noise_covariance(channel, scenario)
    return lapack.solve_triangular(lapack.cho_factor(c), h)


def _quadratic_form(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b @ a)))


def check_unit_modulus(a: np.ndarray) -> None:
    if np.max(np.abs(np.abs(a) - 1.0)) > 1e-12:
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
def variance_lower_bound(b: np.ndarray, factor: np.ndarray | None = None) -> float:
    """Lower bound 1 / (N lambda_max(B)) on the achievable variance, N the
    order of B. Given B's factor F (``fisher_factor``), lambda_max(B) is
    that of the smaller F F^H."""
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] == 0:
        raise ConfigurationError("B must be a non-empty square matrix")
    gram = b if factor is None else factor @ factor.conj().T
    lam_max = float(np.max(lapack.eigvalsh(gram)))
    if lam_max <= _degeneracy_floor(b):
        raise DegenerateInstanceError("lambda_max(B) is degenerate")
    return 1.0 / (b.shape[0] * lam_max)
