# phasefuse/channel.py
"""Scenario sampling and path-loss channel generation.

Channel model: h_i = d_i^{-alpha} * [e^{j g_{i,1}}, ..., e^{j g_{i,M}}]^T
with phases i.i.d. uniform on [0, 2pi). Sensor measurement noise v is
circularly-symmetric complex Gaussian with diagonal covariance
diag(sigma_v^2), FC noise n is CN(0, sigma_n^2 I_M).

Every public array argument, and every scalar field as shape (), is
checked by one rule, ``check_array``: it must have the expected shape and
hold finite integer, real or complex numbers. Otherwise ConfigurationError
names the argument and what is wrong. The check only reads; nothing is
converted. A real-valued scenario field (distances, noise powers, path-loss
exponent and ranges) also passes ``check_real``: no complex dtype, and
nonnegative, or positive for the distances and the config's FC noise power;
``theta`` stays complex. A channel must match its scenario:
``channel.matrix`` is (n_antennas, n_sensors), ``distances`` and
``sensor_noise_powers`` are (n_sensors,) and a phase vector ``a`` is
(n_sensors,).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .blas import single_threaded
from .errors import ConfigurationError, DegenerateInstanceError

if TYPE_CHECKING:  # rng checks its seeds with set_counts, so it imports this module
    from .rng import RngStream

TWO_PI = 2.0 * np.pi
# Rows of noise parts drawn per step (gaussian_projection). Measured on
# verify_unbiasedness at 20000 samples (median of 25 calls, 2-core x86_64):
# the N = 30, M = 16 check took 33.8 ms at 256 rows, 32.6 ms at 1024 and
# 31.9 ms at 4096, peaking at 0.65, 0.76 and 1.32 MiB (tracemalloc); the
# N = 4, M = 4 check 10.3, 8.6 and 8.0 ms.
NOISE_BLOCK_ROWS = 1024


def check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int if it is a whole number >= ``minimum`` (4.0 passes)."""
    try:  # a bool is an int to Python, but not a count
        if not isinstance(value, (bool, np.bool_)) and int(value) == value >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, inf or not a number
        pass
    raise ConfigurationError(f"{name} must be >= {minimum} and integral, got {value!r}")


def _dims(shape: tuple) -> str:
    return "(" + ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "") + ")"


def check_array(name: str, array, shape: tuple) -> np.ndarray:
    """``array`` as an ndarray (a subclass kept) if its shape is ``shape`` and
    its entries are finite integer, real or complex numbers. An int in
    ``shape`` is an exact size; a letter is any size >= 1, the same wherever
    it repeats, so ``("N", "N")`` is a non-empty square matrix and ``()`` a
    scalar. Otherwise raises ConfigurationError naming ``name`` and, for a
    wrong shape, the shape and the expected shape."""
    array = np.asanyarray(array)
    sizes: dict[str, int] = {}
    if not (array.ndim == len(shape) and all(
            # A letter takes the size of its first axis, and every later one
            # must agree with it.
            got >= 1 and sizes.setdefault(want, got) == got if isinstance(want, str)
            else got == want
            for got, want in zip(array.shape, shape))):
        letters = ", ".join(dict.fromkeys(d for d in shape if isinstance(d, str)))
        raise ConfigurationError(
            f"{name} has shape {_dims(array.shape)}, expected {_dims(shape)}"
            + (f" for some {letters} >= 1" if letters else ""))
    # Booleans, strings and objects fail here. NaN would slip past the <= and
    # < range checks that callers make after this one.
    if array.dtype.kind not in "iufc":
        raise ConfigurationError(
            f"{name} must hold integer, real or complex numbers, got dtype {array.dtype}")
    if not np.isfinite(array).all():
        raise ConfigurationError(f"{name} must be finite")
    return array


def check_real(name: str, value, shape: tuple, positive: bool = False) -> np.ndarray:
    """``value`` as ``check_array`` returns it if its entries are also real and
    nonnegative, or positive with ``positive``. Otherwise raises
    ConfigurationError naming ``name``."""
    array = check_array(name, value, shape)
    if array.dtype.kind == "c":
        raise ConfigurationError(f"{name} must be real, got dtype {array.dtype}")
    if np.any(array <= 0 if positive else array < 0):
        raise ConfigurationError(f"{name} must be {'positive' if positive else 'nonnegative'}")
    return array


def set_counts(obj: object, names: tuple[str, ...], minimum: int = 1) -> None:
    """Store each named field of the frozen ``obj`` as ``check_count`` returns it."""
    for name in names:
        object.__setattr__(obj, name, check_count(name, getattr(obj, name), minimum))


@dataclass(frozen=True, kw_only=True)
class ScenarioParams:
    """The scenario parameters that every config samples from: path-loss
    exponent, FC noise power and the ranges of the sensor distances and
    noise powers. ``ScenarioConfig``, ``ExperimentConfig`` and
    ``ConcentrationConfig`` inherit them, defaults and checks included."""

    path_loss_exp: float = 1.0
    fc_noise_power: float = 0.1
    distance_range: tuple[float, float] = (2.0, 7.0)
    sensor_noise_range: tuple[float, float] = (0.001, 0.01)

    def __post_init__(self):
        check_real("path_loss_exp", self.path_loss_exp, ())
        check_real("fc_noise_power", self.fc_noise_power, (), positive=True)
        for name in ("distance_range", "sensor_noise_range"):
            lo, hi = check_real(name, getattr(self, name), (2,))
            if lo <= 0 or lo > hi:
                raise ConfigurationError(
                    f"{name} must be a positive interval with low <= high, got ({lo}, {hi})"
                )
            # A tuple of floats, so that configs compare and hash as values.
            object.__setattr__(self, name, (float(lo), float(hi)))

    def params(self) -> dict:
        """This config's scenario parameters, by field name."""
        return {f.name: getattr(self, f.name) for f in fields(ScenarioParams)}


@dataclass(frozen=True)
class ScenarioConfig(ScenarioParams):
    """Sampling template for scenarios (fixed counts plus parameter ranges)."""

    n_sensors: int
    n_antennas: int

    def __post_init__(self):
        set_counts(self, ("n_sensors", "n_antennas"))
        super().__post_init__()


@dataclass(frozen=True)
class Scenario:
    """One static problem instance: counts, noise powers, sensor distances."""

    n_sensors: int
    n_antennas: int
    path_loss_exp: float
    fc_noise_power: float
    distances: np.ndarray
    sensor_noise_powers: np.ndarray
    theta: complex = 1.0 + 0.0j

    def __post_init__(self):
        set_counts(self, ("n_sensors", "n_antennas"))
        # Zero sensor/FC noise is allowed for noiseless synthesis; estimation
        # needs sigma_n^2 > 0, which the estimator checks itself.
        for name, positive in (("distances", True), ("sensor_noise_powers", False)):
            value = check_real(name, getattr(self, name), (self.n_sensors,), positive)
            object.__setattr__(self, name, np.asarray(value, dtype=float))
        for name in ("fc_noise_power", "path_loss_exp"):
            check_real(name, getattr(self, name), ())
        check_array("theta", self.theta, ())


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the M x N channel, |H[m, i]| = d_i^{-alpha} exactly."""

    matrix: np.ndarray  # (M, N) complex

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_array("matrix", self.matrix, ("M", "N")))


def channel_matrix(channel: ChannelRealization, scenario: Scenario) -> np.ndarray:
    """``channel.matrix``, checked to be the (n_antennas, n_sensors) channel
    of ``scenario``."""
    return check_array("channel.matrix", channel.matrix,
                       (scenario.n_antennas, scenario.n_sensors))


def sample_scenario(config: ScenarioConfig, rng: RngStream) -> Scenario:
    """Draw d_i and sigma_{v,i}^2 uniformly from the config ranges (theta = 1)."""
    gen = rng.generator()
    n = config.n_sensors
    d = gen.uniform(config.distance_range[0], config.distance_range[1], size=n)
    sv = gen.uniform(config.sensor_noise_range[0], config.sensor_noise_range[1], size=n)
    return Scenario(
        n_sensors=n,
        n_antennas=config.n_antennas,
        path_loss_exp=config.path_loss_exp,
        fc_noise_power=config.fc_noise_power,
        distances=d,
        sensor_noise_powers=sv,
    )


def generate_channel(scenario: Scenario, rng: RngStream) -> ChannelRealization:
    """Draw H[m, i] = d_i^{-alpha} e^{j g_{i,m}}, phases uniform on [0, 2pi).

    Raises DegenerateInstanceError when a gain d_i^{-alpha} overflows in
    floating point (a distance near 0 and a large alpha)."""
    gen = rng.generator()
    m, n = scenario.n_antennas, scenario.n_sensors
    phases = gen.uniform(0.0, TWO_PI, size=(m, n))
    with np.errstate(over="ignore"):  # reported below instead
        amps = scenario.distances ** (-scenario.path_loss_exp)  # (N,)
    if not np.isfinite(amps).all():
        raise DegenerateInstanceError("channel gains d^-alpha overflow in floating point")
    matrix = np.multiply(1j, phases)
    np.exp(matrix, out=matrix)
    np.multiply(amps[np.newaxis, :], matrix, out=matrix)
    return ChannelRealization(matrix=matrix)


def complex_gaussian(gen: np.random.Generator, variances, size) -> np.ndarray:
    """Circularly-symmetric CN(0, diag(variances)) draws of shape ``size``,
    ``variances`` broadcast along the last axis; variance split evenly
    between real and imaginary parts, every real part drawn first. Peak
    memory is the result plus one buffer of parts, 24 bytes per sample."""
    real = gen.standard_normal(size)
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = gen.standard_normal(out=real)
    # A complex product, as scale * (x + 1j y): scaling the halves as reals
    # would give -0.0 where the product gives +0.0 at a zero variance.
    out *= np.sqrt(np.asarray(variances, dtype=float) / 2.0)
    return out


def gaussian_projection(gen: np.random.Generator, variances, shape: tuple[int, ...],
                        weights) -> np.ndarray:
    """``complex_gaussian(gen, variances, shape) @ weights`` for a weight
    vector, from the same draws in the same order, without making the noise:
    every real part of the ``shape`` array in C order, then every imaginary
    part, each ``NOISE_BLOCK_ROWS`` rows at a time; ``gen`` ends where
    ``complex_gaussian`` leaves it. Only the association order differs, as
    ``x @ (scale * w) + 1j y @ (scale * w)``. Peak memory is the result, 16
    bytes per row, plus one block of parts."""
    shape = tuple(shape)
    rows = int(np.prod(shape[:-1]))
    scaled = np.sqrt(np.asarray(variances, dtype=float) / 2.0) * np.asarray(weights)
    out = np.zeros((rows, 2))
    block = np.empty((min(rows, NOISE_BLOCK_ROWS), shape[-1]))
    # One real GEMM per block: real parts x give x @ w as [Re, Im] side by
    # side, imaginary parts y give 1j y @ w as y @ [-Im w, Re w].
    for w in (np.stack([scaled.real, scaled.imag], axis=1),
              np.stack([-scaled.imag, scaled.real], axis=1)):
        for start in range(0, rows, NOISE_BLOCK_ROWS):
            x = gen.standard_normal(out=block[:min(NOISE_BLOCK_ROWS, rows - start)])
            out[start:start + len(x)] += x @ w
    return out.view(complex).reshape(shape[:-1])


@single_threaded()
def synthesize_received_signal(
    scenario: Scenario,
    channel: ChannelRealization,
    a: np.ndarray,
    rng: RngStream,
) -> np.ndarray:
    """One received vector y = H a theta + H D v + n at the fusion center."""
    h = channel_matrix(channel, scenario)
    a = check_array("a", a, (scenario.n_sensors,))
    gen = rng.generator()
    v = complex_gaussian(gen, scenario.sensor_noise_powers, scenario.n_sensors)
    n = complex_gaussian(gen, scenario.fc_noise_power, scenario.n_antennas)
    return h @ (a * scenario.theta) + h @ (a * v) + n
