"""Collision-resolution analysis of the binary window-splitting process.

When an initial window contains n ≥ 2 message arrivals, the protocol
splits it in half and examines the older half first (Theorem 1, policy
element 3).  Because arrival instants are iid uniform within the window
(Poisson arrivals conditioned on their count), the number of arrivals
falling in the older half is Binomial(n, 1/2), independently at every
level of the splitting tree.

This module computes, for a window *known to contain n ≥ 2 arrivals*
(the collision-detection slot already spent):

* ``expected_resolution_steps(n)`` — expected further idle + collision
  slots until the first successful transmission begins, and
* ``resolution_time_pmf(n_max, t_max)`` — the full distribution of that
  count for every n up to ``n_max``.

Step accounting convention (see DESIGN.md §7): examining a sub-window
costs one slot when the outcome is *idle* or *collision*; a slot in
which exactly one station is enabled starts the message transmission
itself and therefore adds no scheduling overhead.  Under this convention
a message arriving alone in a fresh window has zero scheduling time,
matching the paper's observation that the scheduling delay is exactly
zero when K = 0.

Recursion (q_j = C(n,j)/2ⁿ, the binomial split probabilities):

    D(n) = q₀·(1 + D(n))        -- older half idle: examine, then the
                                    newer half is known to hold all n and
                                    is split immediately (§2)
         + q₁·0                 -- success begins
         + Σ_{j≥2} q_j·(1 + D(j))  -- collision in the older half

which resolves to ``D(n)·(1 − q₀ − q_n) = (1 − q₁) + Σ_{2≤j≤n−1} q_j·D(j)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "binomial_split_probabilities",
    "expected_resolution_steps",
    "resolution_time_pmf",
    "resolution_success_probability",
]


@lru_cache(maxsize=None)
def binomial_split_probabilities(n: int) -> tuple:
    """P(j of n uniform arrivals fall in the older half), j = 0..n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    scale = 0.5**n
    return tuple(math.comb(n, j) * scale for j in range(n + 1))


@lru_cache(maxsize=None)
def expected_resolution_steps(n: int) -> float:
    """Expected idle+collision slots to isolate one message from n ≥ 2.

    The count excludes the slot in which the successful transmission
    begins and excludes the initial collision-detection slot (already
    spent when the window is *known* to contain n ≥ 2).
    """
    if n < 2:
        raise ValueError(f"resolution requires n >= 2 arrivals, got {n}")
    q = binomial_split_probabilities(n)
    constant = 1.0 - q[1]
    cross = sum(q[j] * expected_resolution_steps(j) for j in range(2, n))
    self_coefficient = 1.0 - q[0] - q[n]
    return (constant + cross) / self_coefficient


def resolution_time_pmf(n_max: int, t_max: int) -> np.ndarray:
    """P(resolution takes t slots | window known to contain n arrivals).

    Returns an array ``pmf[n, t]`` for ``n = 0..n_max``, ``t = 0..t_max``.
    Rows ``n = 0`` and ``n = 1`` are degenerate (no resolution needed:
    all mass at t = 0).  Rows with n ≥ 2 may be sub-stochastic if
    ``t_max`` truncates the tail; the missing mass is the probability
    resolution takes longer than ``t_max`` slots.

    The recursion mirrors :func:`expected_resolution_steps`:

        P_n(t) = q₁·[t = 0] + q₀·P_n(t−1) + Σ_{j≥2} q_j·P_j(t−1)

    and is evaluated jointly for all n, increasing t: each column is one
    multiply and one ``np.cumsum``.  Column n − 2 of ``coef`` holds row
    n's terms in scalar-loop order (q₀·P_n, q₂·P₂, …, q_n·P_n, then
    zeros), and ``np.cumsum`` adds strictly in order, so every value is
    the scalar loop's bit for bit (``np.sum``, ``@`` and ``dot`` are not).
    """
    if n_max < 0 or t_max < 0:
        raise ValueError("n_max and t_max must be non-negative")
    pmf = np.zeros((n_max + 1, t_max + 1))
    pmf[0, 0] = 1.0
    if n_max >= 1:
        pmf[1, 0] = 1.0
    if n_max < 2:
        return pmf

    cols = np.ascontiguousarray(pmf.T)  # cols[t] is column t
    coef = np.zeros((n_max, n_max - 1))
    source = np.zeros((n_max, n_max - 1), dtype=np.intp)
    for n in range(2, n_max + 1):
        q = binomial_split_probabilities(n)
        cols[0, n] = q[1]
        coef[:n, n - 2] = (q[0],) + q[2:]
        source[:n, n - 2] = (n, *range(2, n + 1))
    for t in range(1, t_max + 1):
        cols[t, 2:] = np.cumsum(coef * cols[t - 1][source], axis=0)[-1]
    return cols.T.copy()


def resolution_success_probability(n: int, t_max: int) -> float:
    """Probability that n arrivals are resolved within ``t_max`` slots."""
    if n < 2:
        return 1.0
    pmf = resolution_time_pmf(n, t_max)
    return float(pmf[n].sum())
