"""Group-sequential stopping rules for replicated simulation arms.

Fixed replication counts waste most of a production sweep: arms whose
loss-rate CI converged after a handful of lanes keep burning lanes so
the slowest arm can catch up.  The sequential engine instead runs each
arm in *waves* and stops as soon as the confidence-interval half-width
on fraction-late reaches a target.

Peeking at a confidence interval after every wave inflates the error
rate — an interval that covers at 95% on one look does not cover at 95%
over ten looks.  The classical fix is **alpha spending** (Lan & DeMets):
a monotone function :math:`\\alpha(t)` allocates the total error budget
over information fractions :math:`t_k = n_k / n_{\\max}`, and look *k*
is only allowed to spend :math:`\\alpha(t_k) - \\alpha(t_{k-1})`.  Each
look's interval is therefore computed at level
:math:`1 - (\\alpha(t_k) - \\alpha(t_{k-1}))`, which keeps simultaneous
coverage at :math:`\\ge 1 - \\alpha` by the union bound no matter how
many waves actually run.  The spending shape is O'Brien–Fleming's,
:math:`2(1 - \\Phi(z_{\\alpha/2} / \\sqrt{t}))`: it spends almost nothing
early, so early stops require overwhelmingly tight intervals and the
final look runs near the nominal level.

Each look forms a **Wilson** score interval on the pooled
``(lost, resolved)`` message counts, with one further correction.
Messages inside one simulation run are **not** independent Bernoulli
trials — losses cluster under contention, so the between-replication
variance of the loss fraction can sit far above what pooled counts
suggest.  Every look therefore estimates a cluster **design effect**
(:func:`design_effect`: the ratio of the measured between-unit variance
of the mean to the binomial variance the pooled interval assumes) and
deflates the pooled counts to Kish's effective sample size
``n_eff = n / deff`` before forming the interval.  The factor is
clamped at 1, which keeps the plain Wilson width as the *floor* —
exactly the boundary guard Wilson exists for at p̂ ∈ {0, 1}, where the
between-unit variance degenerates to zero.

This is the only rule; ``docs/statistics.md`` records the coverage
audit that chose it over the alternatives.

Every decision here is a **pure function** of the accumulated
observations and the configuration — no clocks, no hidden state — so a
resumed sweep replays the identical wave-by-wave stopping sequence from
its journal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .intervals import ConfidenceInterval, wilson_interval

__all__ = [
    "SequentialConfig",
    "WaveDecision",
    "cumulative_alpha",
    "design_effect",
    "look_level",
    "decide_wave",
]


def cumulative_alpha(alpha: float, t: float) -> float:
    """O'Brien–Fleming cumulative error budget spent by fraction ``t``.

    ``t`` is clamped into (0, 1]; ``alpha`` is the total two-sided
    budget (e.g. 0.05 for 95% simultaneous coverage).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    from scipy.special import ndtr, ndtri  # == norm.cdf/ppf bitwise (docs/statistics.md)
    t = min(1.0, max(1e-12, t))
    z = float(ndtri(1.0 - alpha / 2.0))
    return 2.0 * (1.0 - float(ndtr(z / math.sqrt(t))))


@dataclass(frozen=True)
class SequentialConfig:
    """Stopping rule for one sequential sweep.

    Attributes
    ----------
    ci_target:
        Stop an arm once its half-width on fraction-late is ≤ this.
    level:
        Simultaneous confidence level across all looks (default 0.95).
    wave_size:
        Lanes added per wave.
    min_replications:
        Lanes required before the first look; no stopping decision is
        taken on fewer.
    max_replications:
        Hard cap per arm; the information-fraction denominator of the
        spending function.
    """

    ci_target: float
    level: float = 0.95
    wave_size: int = 4
    min_replications: int = 8
    max_replications: int = 64

    def __post_init__(self) -> None:
        if not self.ci_target > 0:
            raise ValueError(f"ci_target must be positive, got {self.ci_target}")
        if not 0 < self.level < 1:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {self.wave_size}")
        if self.min_replications < 2:
            raise ValueError(
                f"min_replications must be >= 2, got {self.min_replications}"
            )
        if self.max_replications < self.min_replications:
            raise ValueError(
                f"max_replications {self.max_replications} below "
                f"min_replications {self.min_replications}"
            )


@dataclass(frozen=True)
class WaveDecision:
    """One look of the group-sequential rule — journaled verbatim.

    A decision is a deterministic function of ``(config, wave,
    accumulated observations)``; resumed runs recompute it and must land
    on a bit-identical record.  ``design_effect`` is the cluster
    variance-inflation factor the pooled Wilson look applied.
    """

    wave: int
    n: int
    mean: float
    half_width: float
    look_level: float
    stop: bool
    reason: str
    design_effect: float = 1.0

    def to_dict(self) -> dict:
        return {
            "wave": self.wave,
            "n": self.n,
            "mean": self.mean,
            "half_width": self.half_width,
            "look_level": self.look_level,
            "stop": self.stop,
            "reason": self.reason,
            "design_effect": self.design_effect,
        }


def look_level(config: SequentialConfig, n: int, previous_n: int) -> float:
    """Per-look confidence level after accumulating ``n`` of ``max`` lanes.

    The look spends only the *increment* of the cumulative spending
    function between the previous look's information fraction and this
    one's, so the sum over all looks never exceeds ``1 - level``.
    """
    alpha = 1.0 - config.level
    t_now = n / config.max_replications
    spent_now = cumulative_alpha(alpha, t_now)
    if previous_n > 0:
        t_prev = previous_n / config.max_replications
        spent_prev = cumulative_alpha(alpha, t_prev)
    else:
        spent_prev = 0.0
    increment = max(spent_now - spent_prev, alpha * 1e-6)
    return 1.0 - min(increment, alpha)


def design_effect(fractions: Sequence[float], counts: Tuple[int, int]) -> float:
    """Cluster design effect of pooled per-message loss counts.

    Messages within one replication share a sample path, so their
    losses are correlated — under contention, heavily so — and treating
    the pooled ``(lost, resolved)`` counts as that many independent
    Bernoulli trials understates the sampling variance of the arm mean.
    The survey-sampling correction is the **design effect**: the ratio
    of the measured between-replication variance of the estimator
    (``s²/k`` over the per-lane loss fractions) to the binomial
    variance the pooled interval assumes (``p̂(1−p̂)/N`` over the ``N``
    pooled messages).  Dividing the pooled counts by this factor yields
    Kish's effective sample size — the number of genuinely independent
    trials the data carries.

    Clamped to ≥ 1: with fewer than two lanes, or at a degenerate
    p̂ ∈ {0, 1} where the between-unit variance collapses, the pooled
    interval is used as-is — the boundary regime Wilson exists to guard.
    """
    lost, resolved = counts
    k = len(fractions)
    if k < 2 or resolved <= 0:
        return 1.0
    p = lost / resolved
    binomial_var = p * (1.0 - p) / resolved
    if binomial_var <= 0.0:
        return 1.0
    mean = sum(fractions) / k
    s2 = sum((f - mean) ** 2 for f in fractions) / (k - 1)
    return max(1.0, (s2 / k) / binomial_var)


def _interval(
    counts: Tuple[int, int], level: float, deff: float
) -> ConfidenceInterval:
    lost, resolved = counts
    if resolved <= 0:
        raise ValueError("the Wilson look needs at least one resolved message")
    # Deflate pooled counts to the effective independent-trial count;
    # p-hat is unchanged, the width widens by ~sqrt(deff).
    return wilson_interval(lost / deff, resolved / deff, level=level)


def decide_wave(
    config: SequentialConfig,
    wave: int,
    fractions: Sequence[float],
    counts: Tuple[int, int],
    previous_n: int = 0,
) -> WaveDecision:
    """The stopping decision after ``wave`` with the data seen so far.

    Parameters
    ----------
    config:
        The stopping rule.
    wave:
        1-based wave index (for the journal record only).
    fractions:
        Per-lane loss fractions accumulated so far (they set the
        design effect).
    counts:
        Pooled ``(lost, resolved)`` message counts across the same
        lanes — the Wilson interval is formed on these.
    previous_n:
        Lanes held at the previous *look* (0 before the first look);
        sets the spending increment.
    """
    n = len(fractions)
    deff = design_effect(fractions, counts)
    level = look_level(config, n, previous_n)
    if n < config.min_replications:
        ci = _interval(counts, level, deff) if n >= 2 else None
        return WaveDecision(
            wave=wave,
            n=n,
            mean=ci.mean if ci else (fractions[0] if fractions else math.nan),
            half_width=ci.half_width if ci else math.inf,
            look_level=level,
            stop=False,
            reason="below-min-replications",
            design_effect=deff,
        )
    ci = _interval(counts, level, deff)
    if ci.half_width <= config.ci_target:
        stop, reason = True, "ci-target"
    elif n >= config.max_replications:
        stop, reason = True, "max-replications"
    else:
        stop, reason = False, "continue"
    return WaveDecision(
        wave=wave,
        n=n,
        mean=ci.mean,
        half_width=ci.half_width,
        look_level=level,
        stop=stop,
        reason=reason,
        design_effect=deff,
    )
