# phasefuse/channel.py
"""Scenario sampling and path-loss channel generation.

Channel model: h_i = d_i^{-alpha} * [e^{j g_{i,1}}, ..., e^{j g_{i,M}}]^T
with phases i.i.d. uniform on [0, 2pi). Sensor measurement noise v is
circularly-symmetric complex Gaussian with diagonal covariance
diag(sigma_v^2), FC noise n is CN(0, sigma_n^2 I_M).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .blas import single_threaded
from .errors import ConfigurationError
from .rng import RngStream

TWO_PI = 2.0 * np.pi
# Rows of complex Gaussian noise made per step (complex_gaussian_blocks).
# Measured on verify_unbiasedness at 20000 samples (median of 25 calls, 2-core
# x86_64): the N = 30, M = 16 check took 56.0 ms at 128 rows, 53.2 ms at
# 1024, 57.7 ms at 4096 and 68.9 ms in one block; the N = 4, M = 4 check
# 14.7, 10.9, 10.5 and 11.2 ms.
NOISE_BLOCK_ROWS = 1024


def check_finite(obj: object, names: tuple[str, ...]) -> None:
    """Reject a non-finite value in any of ``obj``'s named fields. NaN slips
    past every ``<=``/``<`` range check, so this runs before them."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value).all():
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _check_counts(obj: object) -> None:
    if obj.n_sensors < 1 or obj.n_antennas < 1:
        raise ConfigurationError("n_sensors and n_antennas must be >= 1")


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
        check_finite(self, ("path_loss_exp", "fc_noise_power", "distance_range",
                            "sensor_noise_range"))
        if self.fc_noise_power <= 0:
            raise ConfigurationError("fc_noise_power must be positive")
        for name, (lo, hi) in (
            ("distance_range", self.distance_range),
            ("sensor_noise_range", self.sensor_noise_range),
        ):
            if lo <= 0 or lo > hi:
                raise ConfigurationError(
                    f"{name} must be a positive interval with low <= high, got ({lo}, {hi})"
                )

    def params(self) -> dict:
        """This config's scenario parameters, by field name."""
        return {f.name: getattr(self, f.name) for f in fields(ScenarioParams)}


@dataclass(frozen=True)
class ScenarioConfig(ScenarioParams):
    """Sampling template for scenarios (fixed counts plus parameter ranges)."""

    n_sensors: int
    n_antennas: int
    theta: complex = 1.0 + 0.0j

    def __post_init__(self):
        _check_counts(self)
        super().__post_init__()
        check_finite(self, ("theta",))


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
        _check_counts(self)
        d = np.asarray(self.distances, dtype=float)
        sv = np.asarray(self.sensor_noise_powers, dtype=float)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "sensor_noise_powers", sv)
        if d.shape != (self.n_sensors,) or sv.shape != (self.n_sensors,):
            raise ConfigurationError(
                "distances and sensor_noise_powers must have length n_sensors"
            )
        check_finite(self, ("distances", "sensor_noise_powers", "fc_noise_power",
                             "path_loss_exp", "theta"))
        if np.any(d <= 0):
            raise ConfigurationError("distances must be strictly positive")
        # Zero sensor/FC noise is allowed for noiseless synthesis; estimator
        # routines that need invertibility check fc_noise_power themselves.
        if np.any(sv < 0) or self.fc_noise_power < 0 or self.path_loss_exp < 0:
            raise ConfigurationError("noise powers and path_loss_exp must be nonnegative")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the M x N channel, |H[m, i]| = d_i^{-alpha} exactly."""

    matrix: np.ndarray  # (M, N) complex
    phases: np.ndarray  # (M, N) real in [0, 2pi)


def sample_scenario(config: ScenarioConfig, rng: RngStream) -> Scenario:
    """Draw d_i and sigma_{v,i}^2 uniformly from the config ranges."""
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
        theta=config.theta,
    )


def generate_channel(scenario: Scenario, rng: RngStream) -> ChannelRealization:
    """Draw H[m, i] = d_i^{-alpha} e^{j g_{i,m}}, phases uniform on [0, 2pi)."""
    gen = rng.generator()
    m, n = scenario.n_antennas, scenario.n_sensors
    phases = gen.uniform(0.0, TWO_PI, size=(m, n))
    amps = scenario.distances ** (-scenario.path_loss_exp)  # (N,)
    matrix = np.multiply(1j, phases)
    np.exp(matrix, out=matrix)
    np.multiply(amps[np.newaxis, :], matrix, out=matrix)
    return ChannelRealization(matrix=matrix, phases=phases)


def complex_gaussian_blocks(gen: np.random.Generator, variances, shape: tuple[int, ...]):
    """Yield ``(rows, block)`` pairs that together make ``complex_gaussian(gen,
    variances, shape)``: ``block`` is that result's ``[rows]``, ``rows`` a
    slice of the first axis, at most ``NOISE_BLOCK_ROWS`` long, in order.
    ``variances`` broadcast along the last axis, so ``shape`` needs two axes
    at least.

    The random stream is the same: every real part is drawn, into an
    8 bytes-per-sample buffer, when the first block is taken, then each
    block's imaginary parts. Take every block before drawing anything else
    from ``gen``. Every block is a view of one buffer: the caller may
    overwrite it, and the next block does."""
    real = gen.standard_normal(shape)
    scale = np.sqrt(np.asarray(variances, dtype=float) / 2.0)
    buffer = np.empty((min(shape[0], NOISE_BLOCK_ROWS), *shape[1:]), dtype=complex)
    imag = np.empty(buffer.shape)
    for start in range(0, shape[0], NOISE_BLOCK_ROWS):
        rows = slice(start, start + NOISE_BLOCK_ROWS)
        part = real[rows]
        block = buffer[:len(part)]
        block.real = part
        block.imag = gen.standard_normal(out=imag[:len(part)])
        # A complex product, as scale * (x + 1j y): scaling the halves as
        # reals would give -0.0 where the product gives +0.0 at a zero
        # variance.
        block *= scale
        yield rows, block


def complex_gaussian(gen: np.random.Generator, variances, size) -> np.ndarray:
    """Circularly-symmetric CN(0, diag(variances)) draws of shape ``size``,
    ``variances`` broadcast along the last axis; variance split evenly
    between real and imaginary parts, every real part drawn first. Peak
    memory is the result plus the real parts, 24 bytes per sample, plus one
    block (tracemalloc, 20000 x 30 draws: 25.5 bytes per sample)."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    # Blocks split the first axis; a 1-D shape's only axis is the variance
    # axis, so it is made as one row.
    out = np.empty(shape if len(shape) >= 2 else (1, *shape), dtype=complex)
    for rows, block in complex_gaussian_blocks(gen, variances, out.shape):
        out[rows] = block
    return out.reshape(shape)


@single_threaded()
def synthesize_received_signal(
    scenario: Scenario,
    channel: ChannelRealization,
    a: np.ndarray,
    rng: RngStream,
) -> np.ndarray:
    """One received vector y = H a theta + H D v + n at the fusion center."""
    a = np.asarray(a)
    if a.shape != (scenario.n_sensors,):
        raise ConfigurationError(
            f"phase vector has shape {a.shape}, expected ({scenario.n_sensors},)"
        )
    gen = rng.generator()
    v = complex_gaussian(gen, scenario.sensor_noise_powers, scenario.n_sensors)
    n = complex_gaussian(gen, scenario.fc_noise_power, scenario.n_antennas)
    h = channel.matrix
    return h @ (a * scenario.theta) + h @ (a * v) + n
