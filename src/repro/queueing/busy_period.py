"""Discrete-time M/G/1 busy-period distribution.

Needed for the non-preemptive LCFS waiting-time analysis
(:mod:`repro.queueing.lcfs`), the [Kurose 83] LCFS baseline of Figure 7.

In a slotted system with per-slot Bernoulli(a) arrivals,
``a = 1 − e^{−λ·δ}``, clearing work is a downward skip-free walk: each
slot removes one slot of work and, with probability a, an arrival adds a
service time X.  A busy period started by work R ~ r is the first
passage of ``S_n = R + Σ_{i≤n} (ξ_i − 1)``, ``ξ_i ~ (1 − a)δ₀ + a·X``,
to 0 — in pgf form ``D(z) = R̃(z·(1 − a + a·G(z)))`` with G the
ordinary busy period (R = X).  The hitting-time theorem (Kemperman,
Takács), ``P(τ_k = n) = (k/n)·P(ξ₁ + … + ξ_n = n − k)`` for a walk
started at k, gives D in one pass:

    P(D = 0) = r₀,
    P(D = n) = (1/n)·Σ_m C(n, m)·aᵐ·(1 − a)ⁿ⁻ᵐ·((k·r_k) ⊛ X^{*m})[n].

**Cost.**  ``(k·r_k) ⊛ X^{*m}`` vanishes below ``m·min X + δ``, so
only ``m ≤ ⌊horizon / min X⌋`` terms reach the horizon: one truncated
convolution with X each.  On Figure 7 the deadline grid scales with M,
so that is about a dozen convolutions per deadline.

**Truncation.**  ``P(D = n)`` reads r and X only at indices ≤ n, so
cutting every array at the horizon drops mass above it and changes
nothing below: the probabilities up to the horizon are exact to
rounding, and the returned pmf is sub-stochastic by the mass beyond.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import LatticePMF

__all__ = ["busy_period_pmf", "delay_busy_period_pmf"]


def _first_passage_pmf(
    initial: np.ndarray, service: np.ndarray, a: float, limit: int
) -> np.ndarray:
    """``P(D = n)`` for ``n < limit`` by the hitting-time formula.

    ``initial`` and ``service`` are lattice pmfs (``service[0] == 0``)
    and ``a`` is the per-slot arrival probability.
    """
    r = initial[:limit]
    out = np.zeros(limit)
    if a == 0.0:  # no arrivals: the initial work drains slot by slot
        out[: r.size] = r
        return out
    x = service[:limit]
    n = np.arange(limit)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(limit)])
    log_a, log_1ma = np.log(a), np.log1p(-a)
    term = np.zeros(limit)  # (k·r_k) ⊛ X^{*m}, truncated at the horizon
    term[: r.size] = n[: r.size] * r
    m = 0
    while term.any():
        # C(n, m)·aᵐ·(1 − a)ⁿ⁻ᵐ for n ≥ m, in log space so (1 − a)ⁿ
        # cannot underflow at large n.
        log_w = (
            log_fact[m:]
            - log_fact[m]
            - log_fact[: limit - m]
            + m * log_a
            + n[: limit - m] * log_1ma
        )
        out[m:] += np.exp(log_w) * term[m:]
        term = np.convolve(term, x)[:limit]
        m += 1
    out[1:] /= n[1:]
    out[0] = r[0]
    return out


def busy_period_pmf(
    service: LatticePMF, arrival_rate: float, horizon: float
) -> LatticePMF:
    """Busy-period pmf of the slotted M/G/1 queue, truncated at ``horizon``.

    The busy period is the delay busy period started by one service
    time (see :func:`delay_busy_period_pmf`).

    Parameters
    ----------
    service:
        Lattice service-time distribution (no mass at 0).
    arrival_rate:
        Poisson rate λ; per-slot arrival probability ``a = 1 − e^{−λ·delta}``.
    horizon:
        Truncation horizon: mass beyond it is dropped (the returned pmf is
        sub-stochastic; probabilities below the horizon are exact).
    """
    return delay_busy_period_pmf(service, service, arrival_rate, horizon)


def delay_busy_period_pmf(
    initial_delay: LatticePMF,
    service: LatticePMF,
    arrival_rate: float,
    horizon: float,
) -> LatticePMF:
    """PMF of a busy period initiated by work drawn from ``initial_delay``.

    This is the *delay busy period*: the time to clear an initial amount
    of work ``R`` when every arrival during the clearing also jumps ahead
    (as later arrivals do under non-preemptive LCFS).  In pgf form
    ``D(z) = R̃(z·(1 − a + a·G(z)))`` with ``G`` the ordinary busy period.
    """
    if service.p[0] > 0:
        raise ValueError("service times must be at least one lattice slot")
    delta = service.delta
    if abs(initial_delay.delta - delta) > 1e-12:
        raise ValueError("initial delay and service must share the lattice step")
    a = 1.0 - np.exp(-arrival_rate * delta)
    limit = int(np.floor(horizon / delta + 1e-9)) + 1
    return LatticePMF(_first_passage_pmf(initial_delay.p, service.p, a, limit), delta)
