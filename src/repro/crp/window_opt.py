"""Policy element 2 — the initial window length heuristic.

The paper leaves the optimal window length open (its SMDP computation is
"too computationally expensive to be of practical use") and instead
adopts the heuristic: *choose the length that minimizes the average time
required by the windowing process to schedule a message* (§4.1).

Because the scheduling time depends on the window length only through
the mean window occupancy μ = λ·w, the heuristic reduces to a
one-dimensional minimisation of E[T](μ) (see
:func:`repro.crp.scheduling_time.mean_scheduling_slots`).  E[T] → ∞ as
μ → 0 (endless empty windows) and grows like the splitting cost for
μ → ∞, so the minimiser is interior and unique in practice (the function
is strictly convex on the region of interest; we verify unimodality
numerically in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheduling_time import mean_scheduling_slots

__all__ = ["optimal_window_occupancy", "WindowSizer"]

OPTIMAL_OCCUPANCY = 1.0884437710489236


def optimal_window_occupancy() -> float:
    """The occupancy μ* minimising the mean scheduling slots per message.

    A universal constant of the binary splitting rule (it does not depend
    on the arrival rate), so it is pinned, not optimised on every start;
    the test suite recomputes it and requires exact equality.
    """
    return OPTIMAL_OCCUPANCY


@dataclass(frozen=True)
class WindowSizer:
    """Computes initial window lengths from the occupancy heuristic.

    Parameters
    ----------
    occupancy:
        Target mean arrivals per window; defaults to the heuristic
        optimum μ*.

    Example
    -------
    >>> sizer = WindowSizer()
    >>> w = sizer.window_length(arrival_rate=0.02)  # ~ μ*/0.02 slots
    """

    occupancy: float | None = None

    @property
    def target_occupancy(self) -> float:
        """The occupancy the sizer aims for."""
        return self.occupancy if self.occupancy is not None else optimal_window_occupancy()

    def window_length(self, arrival_rate: float) -> float:
        """Window length w = μ*/λ for the given (accepted) arrival rate.

        Raises for a non-positive rate: with no traffic there is no
        meaningful window scale (callers should use a fallback such as
        the time constraint K).
        """
        if arrival_rate <= 0:
            raise ValueError(
                f"window sizing requires a positive arrival rate, got {arrival_rate}"
            )
        return self.target_occupancy / arrival_rate

    def mean_scheduling_slots(self) -> float:
        """E[T] at the sizer's occupancy."""
        return mean_scheduling_slots(self.target_occupancy)
