"""Reproducible random streams.

:class:`RandomStreams` derives one independent named generator per
stochastic component from a single master seed.  The window-MAC
simulator, the sweep executor and the CLI take their seeded randomness
from it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {".rng": ("RandomStreams",)})

__all__ = ["RandomStreams"]
