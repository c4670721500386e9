"""Confidence intervals and batch-means analysis for simulation output.

Steady-state simulation estimates need honest uncertainty: independent
replications (each with its own warm-up) or batch means over one long
run.  Both are provided, together with a plain t-interval for iid
observations (used on per-replication loss fractions) and the Wilson
score interval the sequential stopping rule forms on pooled loss counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "t_interval",
    "batch_means",
    "wilson_interval",
]


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
        Observations (or batches) behind the estimate.
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


def t_interval(observations: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Student-t interval for the mean of iid observations."""
    data = np.asarray(observations, dtype=float)
    if data.size < 2:
        raise ValueError(f"need at least two observations, got {data.size}")
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    from scipy import stats as sps  # not at module level: CLI start-up loads no scipy
    mean = float(data.mean())
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    critical = float(sps.t.ppf(0.5 + level / 2.0, df=data.size - 1))
    return ConfidenceInterval(mean=mean, half_width=critical * sem, level=level, n=data.size)


def batch_means(
    series: Sequence[float], n_batches: int = 20, level: float = 0.95
) -> ConfidenceInterval:
    """Batch-means interval for the mean of a correlated stationary series.

    The series is cut into ``n_batches`` equal batches whose means are
    treated as approximately iid; a t-interval is formed on them.  Series
    length must be at least ``2 · n_batches``.
    """
    data = np.asarray(series, dtype=float)
    if n_batches < 2:
        raise ValueError(f"need at least two batches, got {n_batches}")
    if data.size < 2 * n_batches:
        raise ValueError(
            f"series of length {data.size} too short for {n_batches} batches"
        )
    batch_size = data.size // n_batches
    trimmed = data[: batch_size * n_batches]
    means = trimmed.reshape(n_batches, batch_size).mean(axis=1)
    return t_interval(means, level=level)


def wilson_interval(
    successes: float, trials: float, level: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion (robust near 0/1).

    Unlike the t-interval on per-replication fractions, the width never
    collapses to zero at ``successes`` of exactly 0 or ``trials``: the
    score centre is pulled away from the boundary by ``z²/2n`` and the
    half-width stays strictly positive, so a sequential stopping rule
    keyed on the half-width cannot terminate spuriously on an all-zero
    first wave.  Bounds are clamped to [0, 1].

    Counts may be fractional: the sequential engine passes *effective*
    counts — pooled counts deflated by a cluster design effect — and
    the score formula is continuous in them.
    """
    from scipy.special import ndtri  # bitwise equal to norm.ppf (docs/statistics.md)
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    z = float(ndtri(0.5 + level / 2.0))
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
