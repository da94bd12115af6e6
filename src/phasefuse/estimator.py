# phasefuse/estimator.py
"""ML estimation of the observed parameter and its variance.

Core quantity is the Hermitian PSD matrix

    B = H^H (H V H^H + sigma_n^2 I_M)^{-1} H,

whose quadratic form a^H B a sets the estimator variance:
Var(theta_hat) = 1 / (a^H B a), lower-bounded by 1 / (N lambda_max(B)).

One private function builds C = H V H^H + sigma_n^2 I for every public one,
from a channel checked once per call. It raises ConfigurationError unless
sigma_n^2 > 0, and DegenerateInstanceError when C overflows in floating point
(channel gains near the square root of the largest double).

B has rank at most M. When M < N, ``fisher_factor`` gives its M x N factor
F = L^{-1} H, B = F^H F, with L the lower Cholesky factor of C. The nonzero
eigenvalues of B are those of the M x M F F^H, so ``variance_lower_bound``
and the SDP's rank-one certificate take lambda_max(B) from an M x M
eigensolve when they are given F. ``ml_weights`` alone gives the estimate's
weights C^{-1} H a and a^H B a, to ``ml_estimate`` and the Monte Carlo check.

Array arguments follow ``channel.check_array``: each has its shape and
holds finite numbers. A phase vector ``a`` is (N,), ``y`` is (M,) and the
channel matches its scenario. Every B passes ``check_hermitian``: N x N
and Hermitian, |B - B^H| <= ``HERMITIAN_TOL`` * max(1, max |B_ij|) entrywise.
A factor F must pass ``check_factor``. Each check raises ConfigurationError
naming the argument, and returns it as given.
"""

from __future__ import annotations

import numpy as np

from . import lapack
from .blas import single_threaded
from .channel import ChannelRealization, Scenario, channel_matrix, check_array
from .errors import ConfigurationError, DegenerateInstanceError

HERMITIAN_TOL = 1e-12  # |B - B^H| entrywise, relative to max(1, max |B_ij|)
FACTOR_TOL = 1e-10  # diag(F^H F) against diag(B), relative to max(1, max |B_ii|)


def _degeneracy_floor(b: np.ndarray) -> float:
    return 1e-14 * float(np.real(np.trace(b))) + np.finfo(float).tiny


@single_threaded()
def noise_covariance(channel: ChannelRealization, scenario: Scenario) -> np.ndarray:
    """Covariance of the effective noise at the FC: H V H^H + sigma_n^2 I_M."""
    return _covariance(channel_matrix(channel, scenario), scenario)


def _covariance(h: np.ndarray, scenario: Scenario) -> np.ndarray:
    """C = H V H^H + sigma_n^2 I_M of the checked channel matrix ``h``, with
    the module docstring's two rules for it."""
    if scenario.fc_noise_power <= 0:
        raise ConfigurationError("fc_noise_power must be positive for estimation")
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
    h = channel_matrix(channel, scenario)
    m, n = h.shape
    sv = scenario.sensor_noise_powers
    s = scenario.fc_noise_power
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            if m > n and s > 0 and np.all(sv > 0):
                g = h.conj().T @ h
                inner = np.diag(1.0 / sv) + g / s
                b = g / s - (g @ lapack.cho_solve(lapack.cho_factor(inner), g)) / (s * s)
            else:
                b = h.conj().T @ lapack.cho_solve(lapack.cho_factor(_covariance(h, scenario)), h)
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
    h = channel_matrix(channel, scenario)
    if h.shape[0] >= h.shape[1] and scenario.fc_noise_power > 0:  # else _covariance raises
        return None
    return lapack.solve_triangular(lapack.cho_factor(_covariance(h, scenario)), h)


def _quadratic_form(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b @ a)))


def check_hermitian(name: str, b) -> np.ndarray:
    """``b`` as an ndarray if it passes ``check_array(name, b, ("N", "N"))``
    and is Hermitian within ``HERMITIAN_TOL``, relative to max(1, max
    |B_ij|). Raises ConfigurationError naming ``name`` otherwise."""
    b = check_array(name, b, ("N", "N"))
    scale = max(1.0, float(np.abs(b).max()))
    if np.abs(b - b.conj().T).max() > HERMITIAN_TOL * scale:
        raise ConfigurationError(f"{name} must be Hermitian")
    return b


def check_factor(b: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``factor`` as an ndarray if it can be the factor F of the N x N ``b``,
    B = F^H F: M x N (``check_array``), and diag(F^H F) = diag(B) within
    ``FACTOR_TOL`` relative to max(1, max |B_ii|). A necessary condition, at
    O(NM); ``fisher_factor`` gives such an F. Raises ConfigurationError
    otherwise."""
    f = check_array("factor", factor, ("M", b.shape[0]))
    diag = np.diagonal(b)
    scale = max(1.0, float(np.abs(diag).max()))
    if np.abs(np.sum(np.abs(f) ** 2, axis=0) - np.real(diag)).max() > FACTOR_TOL * scale:
        raise ConfigurationError("factor F must satisfy diag(F^H F) = diag(B)")
    return f


def _check_unit_modulus(a: np.ndarray) -> None:
    """Raise ConfigurationError unless every entry of ``a``, an array that
    ``check_array`` has passed, has unit modulus within 1e-12."""
    if np.max(np.abs(np.abs(a) - 1.0)) > 1e-12:
        raise ConfigurationError("phase vector entries must have unit modulus")


@single_threaded()
def ml_weights(
    channel: ChannelRealization, scenario: Scenario, a: np.ndarray
) -> tuple[np.ndarray, float]:
    """Weights of theta_hat = g^H y / q at phases a: g = C^{-1} H a, q = a^H B a,
    or the matched filter g = H a, q = |H a|^2 when there is no noise at all."""
    h = channel_matrix(channel, scenario)
    a = check_array("a", a, (scenario.n_sensors,))
    ha = h @ a
    noiseless = scenario.fc_noise_power == 0 and not scenario.sensor_noise_powers.any()
    g = ha if noiseless else lapack.cho_solve(lapack.cho_factor(_covariance(h, scenario)), ha)
    q = float(np.real(np.vdot(ha, g)))
    if q <= np.finfo(float).tiny:
        raise DegenerateInstanceError("a^H B a vanishes (all-zero channel?)")
    return g, q


@single_threaded()
def ml_estimate(
    y: np.ndarray, channel: ChannelRealization, scenario: Scenario, a: np.ndarray
) -> complex:
    """ML estimate theta_hat = a^H H^H C^{-1} y / (a^H H^H C^{-1} H a)."""
    y = check_array("y", y, (scenario.n_antennas,))
    g, q = ml_weights(channel, scenario, a)
    return complex(np.vdot(g, y) / q)


@single_threaded()
def estimator_variance(a: np.ndarray, b: np.ndarray) -> float:
    """Eq.-style variance 1 / (a^H B a) at phase vector a."""
    b = check_hermitian("b", b)
    a = check_array("a", a, (b.shape[0],))
    _check_unit_modulus(a)
    q = _quadratic_form(a, b)
    if q <= _degeneracy_floor(b):
        raise DegenerateInstanceError("quadratic form a^H B a is degenerate")
    return 1.0 / q


@single_threaded()
def variance_lower_bound(b: np.ndarray, factor: np.ndarray | None = None) -> float:
    """Lower bound 1 / (N lambda_max(B)) on the achievable variance, N the
    order of B. Given B's factor F (``fisher_factor``, checked by
    ``check_factor``), lambda_max(B) is that of the smaller F F^H."""
    b = check_hermitian("b", b)
    if factor is None:
        gram = b
    else:
        f = check_factor(b, factor)
        gram = f @ f.conj().T
    lam_max = float(np.max(lapack.eigvalsh(gram)))
    if lam_max <= _degeneracy_floor(b):
        raise DegenerateInstanceError("lambda_max(B) is degenerate")
    return 1.0 / (b.shape[0] * lam_max)
