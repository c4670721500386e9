"""Reproducible random streams.

:class:`RandomStreams` derives one independent named generator per
stochastic component from a single master seed.  The window-MAC
simulator, the sweep executor and the CLI take their seeded randomness
from it.
"""

from .rng import RandomStreams

__all__ = ["RandomStreams"]
