"""Curve-shape check shared by the Figure-7 and robustness tests and benches."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["monotone_fraction"]


def monotone_fraction(values: Sequence[float], decreasing: bool = True) -> float:
    """Fraction of consecutive pairs ordered the expected way.

    Used to check curve shapes (e.g. loss falls with K) while tolerating
    simulation noise: 1.0 means perfectly monotone.
    """
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        raise ValueError("need at least two values")
    diffs = np.diff(data)
    good = (diffs <= 0) if decreasing else (diffs >= 0)
    return float(good.mean())
