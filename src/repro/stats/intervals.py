"""Confidence intervals for simulation output.

The sequential stopping rule forms a Wilson score interval on pooled
loss counts; :class:`ConfidenceInterval` is the record it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .normal import ndtri

__all__ = ["ConfidenceInterval", "wilson_interval"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric two-sided confidence interval.

    Attributes
    ----------
    mean:
        Point estimate.
    half_width:
        Distance from the mean to either bound.
    level:
        Confidence level (e.g. 0.95).
    n:
        Trials behind the estimate.
    """

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.3g} ({self.level:.0%}, n={self.n})"


def wilson_interval(
    successes: float, trials: float, level: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion (robust near 0/1).

    Unlike a t-interval on per-replication fractions, the width never
    collapses to zero at ``successes`` of exactly 0 or ``trials``: the
    score centre is pulled away from the boundary by ``z²/2n`` and the
    half-width stays strictly positive, so a sequential stopping rule
    keyed on the half-width cannot terminate spuriously on an all-zero
    first wave.  Bounds are clamped to [0, 1].

    Counts may be fractional: the sequential engine passes *effective*
    counts — pooled counts deflated by a cluster design effect — and
    the score formula is continuous in them.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    z = ndtri(0.5 + level / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    )
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    return ConfidenceInterval(
        mean=(low + high) / 2.0,
        half_width=(high - low) / 2.0,
        level=level,
        n=int(trials),
    )
