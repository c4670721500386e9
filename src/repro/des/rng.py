"""Reproducible random-number streams.

Every stochastic component of a simulation draws from its *own* named
substream so that (a) runs are exactly reproducible from a single master
seed, and (b) changing one component's consumption pattern does not
perturb the draws seen by the others (common random numbers across
experiment arms).

Each substream is seeded with a :class:`numpy.random.SeedSequence` of
the master seed and a stable hash of the stream name.

:class:`AntitheticGenerator` mirrors the *uniform* stream of a wrapped
generator (``u -> 1 - u``) while delegating every other method
unchanged.  Pairing a plain lane with its antithetic twin at the same
seed yields negatively correlated loss fractions, so the pair mean has
lower variance than two independent lanes — the classical antithetic
variates trick, scoped to uniforms because the simulators' decision
draws (splits, RANDOM scheduling, fault coin-flips) all flow through
``uniform``/``random``.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "AntitheticGenerator"]


def _stable_key(name: str) -> int:
    """A deterministic 32-bit key for a stream name (stable across runs)."""
    return zlib.crc32(name.encode("utf-8"))


class AntitheticGenerator:
    """A :class:`numpy.random.Generator` proxy with mirrored uniforms.

    ``random(...)`` returns ``1 - u`` and ``uniform(low, high, ...)``
    returns ``low + high - u`` for the wrapped generator's draw ``u`` —
    the same marginal distribution, perfectly negatively correlated with
    the plain lane at the same seed.  Every other method (``poisson``,
    ``integers``, ``shuffle``, ...) delegates verbatim, so arrival
    processes and population choices stay *common* between the pair and
    only the contention decisions mirror.

    The proxy consumes the underlying bit stream through the identical
    method calls as an unwrapped generator, which keeps the engines'
    draw-order parity contract intact.
    """

    __slots__ = ("_base",)

    def __init__(self, base: np.random.Generator):
        if isinstance(base, AntitheticGenerator):
            base = base._base  # mirroring twice is the identity; never stack
        self._base = base

    def random(self, *args, **kwargs):
        return 1.0 - self._base.random(*args, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + high - self._base.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._base, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AntitheticGenerator({self._base!r})"


class RandomStreams:
    """A family of named, independent random generators.

    Parameters
    ----------
    master_seed:
        Seed for the whole family.  Two :class:`RandomStreams` with the
        same master seed produce identical draws for identically named
        streams.
    antithetic:
        Wrap every stream in :class:`AntitheticGenerator`, mirroring the
        uniform draws against the plain family at the same master seed.

    Example
    -------
    >>> streams = RandomStreams(7)
    >>> arrivals = streams.get("arrivals")
    >>> noise = streams.get("noise")
    >>> arrivals is streams.get("arrivals")
    True
    """

    def __init__(self, master_seed: int = 0, antithetic: bool = False):
        if master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {master_seed}")
        self.master_seed = int(master_seed)
        self.antithetic = bool(antithetic)
        self._generators: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        generator = self._generators.get(name)
        if generator is None:
            seed_seq = np.random.SeedSequence([self.master_seed, _stable_key(name)])
            generator = np.random.default_rng(seed_seq)
            if self.antithetic:
                generator = AntitheticGenerator(generator)
            self._generators[name] = generator
        return generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self.master_seed})"
