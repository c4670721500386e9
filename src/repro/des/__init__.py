"""Reproducible random streams.

:class:`RandomStreams` derives one independent named generator per
stochastic component from a single master seed, and
:class:`AntitheticGenerator` mirrors a generator's uniforms for
antithetic lane pairs.  The window-MAC simulator, the sweep executor
and the CLI take their seeded randomness from these.
"""

from .rng import AntitheticGenerator, RandomStreams

__all__ = ["RandomStreams", "AntitheticGenerator"]
