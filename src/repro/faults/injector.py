"""Slot- and station-level fault injection.

:class:`FaultInjector` turns a :class:`~repro.faults.model.FaultModel`
into concrete events against a station population:

* **station health** — crashes, restarts, deaf periods and recoveries
  are scheduled *event-driven* (exponential inter-event times kept in a
  heap) rather than by per-slot Bernoulli draws, so a 100k-slot run with
  rare faults costs a handful of draws instead of millions;
* **feedback observation** — per-slot corruption of the true ternary
  symbol, vectorized over the observing stations (one uniform vector per
  slot when a confusion probability is positive, zero draws otherwise).

The injector owns its own random generator, independent of the
simulation's arrival/policy stream, so enabling faults never perturbs
the underlying traffic sample path (common-random-numbers across fault
configurations — and bit-identical zero-fault runs).
"""

from __future__ import annotations

import enum
import heapq
from typing import List, Tuple

import numpy as np

from ..core.window import ChannelFeedback
from .model import FaultModel

__all__ = ["StationHealth", "FaultEvent", "FaultInjector"]


class StationHealth(enum.Enum):
    """Health state of one station."""

    UP = "up"
    CRASHED = "crashed"
    DEAF = "deaf"


class FaultEvent(enum.Enum):
    """Station-level fault transitions reported by :meth:`FaultInjector.poll`."""

    CRASH = "crash"
    RESTART = "restart"
    DEAF = "deaf"
    HEAR = "hear"


class FaultInjector:
    """Stateful fault source for one simulation run.

    Parameters
    ----------
    model:
        The fault configuration.
    n_stations:
        Station population size.
    rng:
        Dedicated generator (keep it separate from the traffic stream).
    """

    def __init__(self, model: FaultModel, n_stations: int, rng: np.random.Generator):
        self.model = model
        self.n_stations = n_stations
        self.rng = rng
        self.health: List[StationHealth] = [StationHealth.UP] * n_stations
        self._events: List[Tuple[float, int, int, FaultEvent]] = []
        self._seq = 0
        self._down = 0
        if model.crash_rate > 0:
            for station in range(n_stations):
                self._schedule(0.0, model.crash_rate, station, FaultEvent.CRASH)
        if model.deaf_rate > 0:
            for station in range(n_stations):
                self._schedule(0.0, model.deaf_rate, station, FaultEvent.DEAF)

    # -- station health -------------------------------------------------------

    def _schedule(self, now: float, rate: float, station: int, event: FaultEvent):
        delay = self.rng.exponential(1.0 / rate)
        self._push(now + delay, station, event)

    def _push(self, when: float, station: int, event: FaultEvent) -> None:
        heapq.heappush(self._events, (when, self._seq, station, event))
        self._seq += 1

    def poll(self, now: float) -> List[Tuple[FaultEvent, int]]:
        """Pop and apply every station transition due by ``now``.

        Returns the applied ``(event, station)`` pairs in time order so
        the simulator can mirror them (drop a crashed backlog, reset a
        recovered replica).  Impossible transitions — e.g. a deaf onset
        scheduled for a station that crashed in the meantime — are
        silently rescheduled.
        """
        model = self.model
        applied: List[Tuple[FaultEvent, int]] = []
        while self._events and self._events[0][0] <= now:
            _, _, station, event = heapq.heappop(self._events)
            state = self.health[station]
            if event is FaultEvent.CRASH:
                if state is not StationHealth.UP:
                    self._schedule(now, model.crash_rate, station, FaultEvent.CRASH)
                    continue
                self.health[station] = StationHealth.CRASHED
                self._down += 1
                downtime = 1.0 + self.rng.exponential(max(model.mean_downtime, 1.0))
                self._push(now + downtime, station, FaultEvent.RESTART)
            elif event is FaultEvent.RESTART:
                self.health[station] = StationHealth.UP
                self._down -= 1
                self._schedule(now, model.crash_rate, station, FaultEvent.CRASH)
            elif event is FaultEvent.DEAF:
                if state is not StationHealth.UP:
                    self._schedule(now, model.deaf_rate, station, FaultEvent.DEAF)
                    continue
                self.health[station] = StationHealth.DEAF
                self._down += 1
                span = 1.0 + self.rng.exponential(max(model.mean_deaf_slots, 1.0))
                self._push(now + span, station, FaultEvent.HEAR)
            else:  # HEAR
                if self.health[station] is not StationHealth.DEAF:
                    continue  # crashed while deaf; the restart path re-arms
                self.health[station] = StationHealth.UP
                self._down -= 1
                self._schedule(now, model.deaf_rate, station, FaultEvent.DEAF)
            applied.append((event, station))
        return applied

    @property
    def any_down(self) -> bool:
        """Whether any station is currently crashed or deaf."""
        return self._down > 0

    def is_up(self, station: int) -> bool:
        """Whether the station is fully operational."""
        return self.health[station] is StationHealth.UP

    def is_crashed(self, station: int) -> bool:
        """Whether the station is down (loses arrivals and backlog)."""
        return self.health[station] is StationHealth.CRASHED

    # -- feedback observation --------------------------------------------------

    def observe(
        self, feedback: ChannelFeedback, n_observers: int
    ) -> List[ChannelFeedback]:
        """Per-station observations of one slot's true feedback symbol.

        Vectorized: a single uniform draw of size ``n_observers`` when a
        confusion applies, no draws when the true symbol cannot be
        confused under the model.
        """
        pairs = self.model.confusion_for(feedback)
        if all(p == 0.0 for p, _ in pairs):
            return [feedback] * n_observers
        u = self.rng.random(n_observers)
        observed: List[ChannelFeedback] = []
        for ui in u:
            symbol = feedback
            threshold = 0.0
            for p, corrupted in pairs:
                threshold += p
                if ui < threshold:
                    symbol = corrupted
                    break
            observed.append(symbol)
        return observed
