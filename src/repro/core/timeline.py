"""Bookkeeping of the station's view of the time axis (Figure 2).

Every station tracks which intervals of past time may still contain
untransmitted message arrivals.  Intervals known to be empty — examined
idle windows, resolved chunks, transmitted sub-windows, and (under
policy element 4) anything older than the constraint — are removed from
consideration.  The remaining *unresolved* time is what initial windows
are drawn from; measuring along it is exactly the paper's pseudo time
(§3.1).

:class:`IntervalSet` stores the unresolved region as disjoint, sorted
intervals and supports the measure-based slicing the window policies
need: "the oldest w units of unresolved time" is a :class:`Span` — a
list of real-time intervals of total length w — and splitting a span in
half by measure is the real-axis realisation of splitting the pseudo-time
window in half.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Tuple

__all__ = ["Span", "IntervalSet", "split_pieces"]

_EPS = 1e-12

Pieces = Sequence[Tuple[float, float]]


def split_pieces(
    pieces: Pieces, offset: float
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """Split raw ``(lo, hi)`` pieces into (oldest ``offset`` of measure, the rest).

    The walk behind :meth:`Span.split_at_measure`, on bare tuples, for
    callers that keep spans in flat form (the compiled engine).  No
    range check: callers pass an offset inside the pieces' measure.
    """
    older: List[Tuple[float, float]] = []
    newer: List[Tuple[float, float]] = []
    remaining = offset
    for lo, hi in pieces:
        width = hi - lo
        if remaining >= width - _EPS:
            older.append((lo, hi))
            remaining -= width
        elif remaining <= _EPS:
            newer.append((lo, hi))
        else:
            older.append((lo, lo + remaining))
            newer.append((lo + remaining, hi))
            remaining = 0.0
    return older, newer


@dataclass(frozen=True)
class Span:
    """A finite union of disjoint real-time intervals, sorted ascending.

    Represents a window (or window half) on the real axis; its *measure*
    is the window's pseudo-time length.  Real time increases to the
    right; *older* means smaller values.
    """

    pieces: Tuple[Tuple[float, float], ...]

    @cached_property
    def measure(self) -> float:
        """Total length of all pieces.

        Cached: spans are frozen, and the hot kernels (split descents
        under feedback faults especially) query the same span's measure
        several times per slot.  The cached value is the identical
        left-to-right float sum, so bit-parity is unaffected.
        """
        pieces = self.pieces
        if len(pieces) == 1:
            lo, hi = pieces[0]
            return hi - lo
        return sum(hi - lo for lo, hi in pieces)

    @property
    def start(self) -> float:
        """Oldest instant covered."""
        if not self.pieces:
            raise ValueError("empty span has no start")
        return self.pieces[0][0]

    @property
    def end(self) -> float:
        """Youngest instant covered."""
        if not self.pieces:
            raise ValueError("empty span has no end")
        return self.pieces[-1][1]

    def is_empty(self) -> bool:
        """Whether the span covers no time."""
        return self.measure <= _EPS

    def split_half(self) -> Tuple["Span", "Span"]:
        """Split into (older half, newer half) of equal measure."""
        half = 0.5 * self.measure
        return self.split_at_measure(half)

    def split_at_measure(self, offset: float) -> Tuple["Span", "Span"]:
        """Split into (oldest ``offset`` of measure, the rest)."""
        pieces = self.pieces
        if len(pieces) == 1:
            # Single-interval fast path: the overwhelmingly common case
            # in the slot kernels (contiguous windows).  Reproduces
            # split_pieces exactly — same branches, same float endpoint
            # ``lo + offset`` — so every kernel still produces
            # bit-identical spans.
            lo, hi = pieces[0]
            width = hi - lo
            if offset < -_EPS or offset > width + _EPS:
                raise ValueError(
                    f"split offset {offset} outside span measure {width}"
                )
            if offset >= width - _EPS:
                return self, Span(())
            if offset <= _EPS:
                return Span(()), self
            cut = lo + offset
            return Span(((lo, cut),)), Span(((cut, hi),))
        if offset < -_EPS or offset > self.measure + _EPS:
            raise ValueError(
                f"split offset {offset} outside span measure {self.measure}"
            )
        older, newer = split_pieces(pieces, offset)
        return Span(tuple(older)), Span(tuple(newer))

    def contains(self, t: float) -> bool:
        """Whether instant ``t`` lies inside the span."""
        return any(lo <= t <= hi for lo, hi in self.pieces)


@dataclass
class IntervalSet:
    """Disjoint, sorted intervals of time possibly containing arrivals."""

    _lows: List[float] = field(default_factory=list)
    _highs: List[float] = field(default_factory=list)

    @property
    def measure(self) -> float:
        """Total unresolved time (the pseudo-time backlog extent)."""
        return sum(hi - lo for lo, hi in zip(self._lows, self._highs))

    @property
    def n_intervals(self) -> int:
        """Number of disjoint unresolved intervals (gap complexity)."""
        return len(self._lows)

    def is_empty(self) -> bool:
        """Whether no unresolved time remains."""
        return not self._lows

    def oldest(self) -> float:
        """The oldest unresolved instant (the paper's t_past)."""
        if not self._lows:
            raise ValueError("interval set is empty")
        return self._lows[0]

    def youngest(self) -> float:
        """The youngest unresolved instant."""
        if not self._highs:
            raise ValueError("interval set is empty")
        return self._highs[-1]

    def intervals(self) -> List[Tuple[float, float]]:
        """A copy of the interval list."""
        return list(zip(self._lows, self._highs))

    # -- mutation ----------------------------------------------------------

    def add(self, lo: float, hi: float) -> None:
        """Mark ``[lo, hi]`` as possibly containing arrivals (union)."""
        if hi <= lo + _EPS:
            return
        i = bisect.bisect_left(self._highs, lo)
        j = bisect.bisect_right(self._lows, hi)
        if i < j:
            lo = min(lo, self._lows[i])
            hi = max(hi, self._highs[j - 1])
        self._lows[i:j] = [lo]
        self._highs[i:j] = [hi]

    def subtract(self, lo: float, hi: float) -> None:
        """Mark ``[lo, hi]`` as resolved (set difference)."""
        if hi <= lo + _EPS:
            return
        i = bisect.bisect_right(self._highs, lo + _EPS)
        j = bisect.bisect_left(self._lows, hi - _EPS)
        if i >= j:
            # Check the single interval possibly containing [lo, hi].
            if i < len(self._lows) and self._lows[i] < lo and hi < self._highs[i]:
                # Split one interval in two.
                old_hi = self._highs[i]
                self._highs[i] = lo
                self._lows.insert(i + 1, hi)
                self._highs.insert(i + 1, old_hi)
            return
        new_lows: List[float] = []
        new_highs: List[float] = []
        if self._lows[i] < lo - _EPS:
            new_lows.append(self._lows[i])
            new_highs.append(lo)
        if self._highs[j - 1] > hi + _EPS:
            new_lows.append(hi)
            new_highs.append(self._highs[j - 1])
        self._lows[i:j] = new_lows
        self._highs[i:j] = new_highs

    def subtract_span(self, span: Span) -> None:
        """Resolve every piece of ``span``."""
        for lo, hi in span.pieces:
            self.subtract(lo, hi)

    def clamp_before(self, t: float) -> float:
        """Drop everything older than ``t`` (policy element 4).

        Returns the measure removed (time aged past the constraint).
        """
        removed = 0.0
        while self._lows and self._highs[0] <= t + _EPS:
            removed += self._highs[0] - self._lows[0]
            del self._lows[0]
            del self._highs[0]
        if self._lows and self._lows[0] < t:
            removed += t - self._lows[0]
            self._lows[0] = t
        return removed

    # -- slicing -----------------------------------------------------------

    def slice_oldest(self, length: float) -> Span:
        """The oldest ``length`` units of unresolved measure as a span."""
        return self._slice(length, from_old_end=True)

    def slice_youngest(self, length: float) -> Span:
        """The youngest ``length`` units of unresolved measure."""
        return self._slice(length, from_old_end=False)

    def slice_offset(self, offset: float, length: float) -> Span:
        """``length`` units of measure starting ``offset`` from the old end."""
        whole = Span(tuple(self.intervals()))
        _, after = whole.split_at_measure(min(offset, whole.measure))
        window, _ = after.split_at_measure(min(length, after.measure))
        return window

    def _slice(self, length: float, from_old_end: bool) -> Span:
        whole = Span(tuple(self.intervals()))
        length = min(length, whole.measure)
        if from_old_end:
            window, _ = whole.split_at_measure(length)
        else:
            _, window = whole.split_at_measure(whole.measure - length)
        return window
