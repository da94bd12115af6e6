# phasefuse/rng.py
"""Reproducible random streams.

Every stochastic operation in the package takes an explicit ``RngStream``.
Streams are keyed by (master_seed, stream_index, sub-key path) through
numpy's ``SeedSequence``, so the draw sequence is a pure function of the key.
``master_seed``, ``stream_index`` and every ``key`` entry are whole numbers
>= 0 (``channel.check_count``), checked and stored as ints when a stream is
built, so a bad ``child(k)`` fails where it is made, not at ``generator()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import check_count, set_counts
from .errors import ConfigurationError


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    Identical (master_seed, stream_index, key) always produces an identical
    generator. ``child(k)`` derives statistically independent sub-streams,
    so parallel trials stay reproducible regardless of execution order.
    """

    master_seed: int
    stream_index: int = 0
    key: tuple = field(default=())

    def __post_init__(self):
        set_counts(self, ("master_seed", "stream_index"), minimum=0)
        if not isinstance(self.key, tuple):
            raise ConfigurationError(f"key must be a tuple, got {self.key!r}")
        object.__setattr__(self, "key", tuple(check_count("key", k, minimum=0)
                                              for k in self.key))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.stream_index, *self.key),
        )
        return np.random.default_rng(seq)

    def child(self, k: int) -> "RngStream":
        """Derive the k-th independent sub-stream."""
        return RngStream(self.master_seed, self.stream_index, self.key + (k,))
