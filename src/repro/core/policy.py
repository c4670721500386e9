"""The four control-policy elements of the window protocol (§2–§3).

A :class:`ControlPolicy` bundles the paper's four policy elements:

1. **position** — where the initial window starts
   (:class:`OldestFirstPosition` is Theorem 1's optimal choice;
   :class:`NewestFirstPosition` and :class:`RandomPosition` realise the
   LCFS and RANDOM disciplines of [Kurose 83]);
2. **length** — how long the initial window is
   (:class:`OccupancyLength` is the §4.1 heuristic: target the occupancy
   μ* that minimises the mean scheduling time;
   :class:`FixedLength`/:class:`FullBacklogLength` for ablations);
3. **split** — which half of a split window is examined first
   (``"older"`` is Theorem 1's optimal choice);
4. **discard** — whether messages older than the constraint K are
   discarded at the sender (element 4; disabling it recovers the
   uncontrolled protocols, which lose messages only at the receiver).

Factory methods :meth:`ControlPolicy.optimal`,
:meth:`ControlPolicy.uncontrolled_fcfs`, :meth:`~ControlPolicy.uncontrolled_lcfs`
and :meth:`~ControlPolicy.uncontrolled_random` build the four protocols
evaluated in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..crp.window_opt import WindowSizer
from .timeline import IntervalSet, Span

__all__ = [
    "PositionRule",
    "OldestFirstPosition",
    "NewestFirstPosition",
    "RandomPosition",
    "LengthRule",
    "FixedLength",
    "FullBacklogLength",
    "OccupancyLength",
    "ControlPolicy",
]


# -- element 1: window position ---------------------------------------------------


class PositionRule:
    """Strategy choosing where the initial window sits in the backlog."""

    def select(
        self, unresolved: IntervalSet, length: float, rng: Optional[np.random.Generator]
    ) -> Span:
        """Carve a window span of (at most) ``length`` from the backlog."""
        raise NotImplementedError


class OldestFirstPosition(PositionRule):
    """Window starts at the oldest unresolved instant (Theorem 1, element 1)."""

    def select(self, unresolved, length, rng=None) -> Span:
        return unresolved.slice_oldest(length)


class NewestFirstPosition(PositionRule):
    """Window covers the youngest unresolved time (LCFS discipline)."""

    def select(self, unresolved, length, rng=None) -> Span:
        return unresolved.slice_youngest(length)


class RandomPosition(PositionRule):
    """Window placed uniformly at random within the backlog (RANDOM)."""

    def select(self, unresolved, length, rng) -> Span:
        if rng is None:
            raise ValueError("RandomPosition requires an rng")
        slack = max(0.0, unresolved.measure - length)
        offset = rng.uniform(0.0, slack) if slack > 0 else 0.0
        return unresolved.slice_offset(offset, length)


# -- element 2: window length -----------------------------------------------------


class LengthRule:
    """Strategy choosing the initial window length."""

    def length(self, unresolved_measure: float) -> float:
        """Desired window length given the current backlog measure."""
        raise NotImplementedError

    def constant_length(self) -> Optional[float]:
        """The rule's backlog-independent length, or ``None``.

        The compiled engine (:mod:`repro.mac.kernels.engine`) asks once
        per run instead of re-deriving the length at every decision
        epoch; rules whose length depends on the backlog return ``None``
        and are evaluated per epoch.
        """
        return None


@dataclass(frozen=True)
class FixedLength(LengthRule):
    """A constant window length (clipped to the backlog by the caller)."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"window length must be positive, got {self.value}")

    def length(self, unresolved_measure: float) -> float:
        return self.value

    def constant_length(self) -> Optional[float]:
        return self.value


class FullBacklogLength(LengthRule):
    """Window covers the entire backlog (one pass, heavy splitting)."""

    def length(self, unresolved_measure: float) -> float:
        return unresolved_measure if unresolved_measure > 0 else 1.0


@dataclass(frozen=True)
class OccupancyLength(LengthRule):
    """The §4.1 heuristic: target occupancy μ* at the given arrival rate.

    Parameters
    ----------
    arrival_rate:
        The rate of messages the windows will encounter (for the
        controlled protocol, the *accepted* rate).
    occupancy:
        Target mean arrivals per window; ``None`` uses the universal
        optimum μ* ≈ 1.09 of :func:`repro.crp.window_opt.optimal_window_occupancy`.
    """

    arrival_rate: float
    occupancy: Optional[float] = None

    def __post_init__(self):
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.arrival_rate}")

    def length(self, unresolved_measure: float) -> float:
        sizer = WindowSizer(occupancy=self.occupancy)
        return sizer.window_length(self.arrival_rate)

    def constant_length(self) -> Optional[float]:
        return self.length(0.0)


# -- the bundled policy -------------------------------------------------------------


@dataclass(frozen=True)
class ControlPolicy:
    """The four policy elements bundled (see module docstring).

    Attributes
    ----------
    position:
        Element 1 — initial window position rule.
    length:
        Element 2 — initial window length rule.
    split:
        Element 3 — ``"older"``, ``"newer"`` or ``"random"``.
    discard_deadline:
        Element 4 — discard messages older than this at the sender;
        ``None`` disables sender discards (uncontrolled operation).
    name:
        Human-readable label used in experiment output.
    """

    position: PositionRule
    length: LengthRule
    split: str
    discard_deadline: Optional[float]
    name: str
    split_arity: int = 2

    def __post_init__(self):
        if self.split not in ("older", "newer", "random"):
            raise ValueError(f"unknown split rule: {self.split!r}")
        if self.discard_deadline is not None and self.discard_deadline <= 0:
            raise ValueError(
                f"discard deadline must be positive, got {self.discard_deadline}"
            )
        if self.split_arity < 2:
            raise ValueError(f"split arity must be at least 2, got {self.split_arity}")

    # -- factories -----------------------------------------------------------

    @classmethod
    def optimal(
        cls,
        deadline: float,
        accepted_rate: float,
        occupancy: Optional[float] = None,
    ) -> "ControlPolicy":
        """Theorem 1 elements + the §4.1 length heuristic + element 4."""
        return cls(
            position=OldestFirstPosition(),
            length=OccupancyLength(accepted_rate, occupancy),
            split="older",
            discard_deadline=deadline,
            name="controlled",
        )

    @classmethod
    def uncontrolled_fcfs(cls, arrival_rate: float) -> "ControlPolicy":
        """[Kurose 83] FCFS: oldest-first windows, everything transmitted."""
        return cls(
            position=OldestFirstPosition(),
            length=OccupancyLength(arrival_rate),
            split="older",
            discard_deadline=None,
            name="fcfs",
        )

    @classmethod
    def uncontrolled_lcfs(cls, arrival_rate: float) -> "ControlPolicy":
        """[Kurose 83] LCFS: newest-first windows, everything transmitted."""
        return cls(
            position=NewestFirstPosition(),
            length=OccupancyLength(arrival_rate),
            split="newer",
            discard_deadline=None,
            name="lcfs",
        )

    @classmethod
    def uncontrolled_random(cls, arrival_rate: float) -> "ControlPolicy":
        """[Kurose 83] RANDOM: uniformly placed windows, everything sent."""
        return cls(
            position=RandomPosition(),
            length=OccupancyLength(arrival_rate),
            split="random",
            discard_deadline=None,
            name="random",
        )
