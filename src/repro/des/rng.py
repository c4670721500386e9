"""Reproducible random-number streams.

Every stochastic component of a simulation draws from its *own* named
substream so that (a) runs are exactly reproducible from a single master
seed, and (b) changing one component's consumption pattern does not
perturb the draws seen by the others (common random numbers across
experiment arms).

Each substream is seeded with a :class:`numpy.random.SeedSequence` of
the master seed and a stable hash of the stream name.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


def _stable_key(name: str) -> int:
    """A deterministic 32-bit key for a stream name (stable across runs)."""
    return zlib.crc32(name.encode("utf-8"))


class RandomStreams:
    """A family of named, independent random generators.

    Parameters
    ----------
    master_seed:
        Seed for the whole family.  Two :class:`RandomStreams` with the
        same master seed produce identical draws for identically named
        streams.

    Example
    -------
    >>> streams = RandomStreams(7)
    >>> arrivals = streams.get("arrivals")
    >>> noise = streams.get("noise")
    >>> arrivals is streams.get("arrivals")
    True
    """

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {master_seed}")
        self.master_seed = int(master_seed)
        self._generators: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        generator = self._generators.get(name)
        if generator is None:
            seed_seq = np.random.SeedSequence([self.master_seed, _stable_key(name)])
            generator = np.random.default_rng(seed_seq)
            self._generators[name] = generator
        return generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self.master_seed})"
