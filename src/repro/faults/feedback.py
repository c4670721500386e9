"""Feedback-channel error families for the unified kernel stack.

The legacy :class:`~repro.faults.model.FaultModel` routes a run through
per-station controller replicas (:mod:`repro.faults.replicas`) — the
right machinery when stations can *disagree* about what they heard, but
ineligible for every accelerated backend.  This module models the
complementary regime: **common-mode** feedback errors, where every
station observes the *same* (possibly wrong) symbol, so the network
keeps a single shared protocol state and the compiled engine can execute
the run directly.

Three fault families, all driven by one :class:`FeedbackFaultModel`:

**Per-slot feedback misdetection** — each examination slot's true
ternary outcome may be mis-observed by the whole network at once:

* ``p_collision_as_success`` — one colliding signal dominates and is
  captured as if it were alone (the capture effect); every transmitter
  believes its frame got through and silently dequeues it;
* ``p_success_as_idle`` — a successful frame fades below the carrier
  threshold; the frame is lost and the examined span is (wrongly)
  resolved idle;
* ``p_erasure`` — the feedback symbol is destroyed and read as
  COLLISION whatever truly happened, sending the windowing process into
  a spurious split descent.

**Per-station missed feedback** — a per-slot hazard (``miss_rate``)
under which one station loses a feedback symbol.  Its local window
state has then diverged from the network's, so it must stop
transmitting until a :ref:`recovery policy <recovery>` re-admits it.

**Adversarial continuous injection** — a jammer (``jam_rate`` bursts of
mean length ``mean_jam_slots``) forces the channel to read COLLISION
for the duration of each burst, destroying any frame transmitted into
it (Hradovich et al., arXiv 1808.02216 motivate this arm).

.. _recovery:

**Divergence-recovery policies** (``recovery``) decide what a diverged
party does:

* ``"reset-to-epoch"`` — re-adopt the shared state at the next decision
  epoch (cheapest; risks re-colliding with in-flight resolution);
* ``"gated-rejoin"`` — listen without transmitting for
  ``rejoin_listen_slots`` first, then rejoin at an epoch boundary;
* ``"drop-out"`` — give up the diverged backlog entirely (messages are
  lost to the fault) and rejoin with a clean queue.

The same three policies drive the shared-state divergence abort: an
erasure on a truly idle span marches the windowing process down an
idle descent that fault-free feedback cannot produce, so the process is
declared diverged past ``max_split_depth`` and aborted under the
selected policy.

Randomness is drawn from the run's dedicated fault stream (the
``"faults"`` substream of :class:`~repro.des.rng.RandomStreams`, or the
``0xFA17``-keyed derived generator for plain seeds), so every fault
setting replays the same traffic sample path.  Event scheduling and
per-slot draws are consumed in a fixed order shared by the reference
loop and the compiled engine — the bit-parity contract of
``tests/mac/test_faulted_parity.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..choices import RECOVERY_POLICIES
from ..core.window import ChannelFeedback
from .model import FaultTelemetry

__all__ = ["FeedbackFaultModel", "FeedbackFaultState", "RECOVERY_POLICIES"]

_PROB_FIELDS = ("p_collision_as_success", "p_success_as_idle", "p_erasure")

# Event kinds of the injection heap.
_JAM = 0
_MISS = 1

# Module-level aliases: observe() runs once per examination slot.
_IDLE = ChannelFeedback.IDLE
_SUCCESS = ChannelFeedback.SUCCESS
_COLLISION = ChannelFeedback.COLLISION


@dataclass(frozen=True)
class FeedbackFaultModel:
    """Common-mode feedback fault configuration (see module docstring).

    Every field is validated at construction with a ``ValueError``
    naming the offending field, mirroring
    :class:`~repro.experiments.sweep.MACRunSpec` — bad grid parameters
    must fail at spec construction, not deep inside a kernel.
    """

    p_collision_as_success: float = 0.0
    p_success_as_idle: float = 0.0
    p_erasure: float = 0.0
    miss_rate: float = 0.0
    jam_rate: float = 0.0
    mean_jam_slots: float = 8.0
    recovery: str = "reset-to-epoch"
    rejoin_listen_slots: float = 16.0
    #: Split depth beyond which the shared process is declared diverged
    #: and aborted under ``recovery``.  Must stay at most 59: depth can
    #: grow by one per feedback symbol, and the abort fires strictly
    #: before :class:`~repro.core.window.WindowingProcess` would hit its
    #: hard depth-60 indistinguishability error.
    max_split_depth: int = 40

    def __post_init__(self):
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
        if self.p_erasure + self.p_collision_as_success > 1.0:
            raise ValueError(
                "p_erasure + p_collision_as_success must sum to at most 1, "
                f"got {self.p_erasure} + {self.p_collision_as_success}"
            )
        if self.p_erasure + self.p_success_as_idle > 1.0:
            raise ValueError(
                "p_erasure + p_success_as_idle must sum to at most 1, "
                f"got {self.p_erasure} + {self.p_success_as_idle}"
            )
        for name in ("miss_rate", "jam_rate"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.mean_jam_slots <= 0:
            raise ValueError(
                f"mean_jam_slots must be positive, got {self.mean_jam_slots}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got {self.recovery!r}"
            )
        if self.rejoin_listen_slots < 0:
            raise ValueError(
                "rejoin_listen_slots must be non-negative, "
                f"got {self.rejoin_listen_slots}"
            )
        if self.rejoin_listen_slots != math.floor(self.rejoin_listen_slots):
            # Slot accounting adds this value directly to float clocks;
            # whole-slot values keep that addition exact.
            raise ValueError(
                "rejoin_listen_slots must be a whole number of slots, "
                f"got {self.rejoin_listen_slots}"
            )
        if not 1 <= self.max_split_depth <= 59:
            raise ValueError(
                f"max_split_depth must be in [1, 59], got {self.max_split_depth}"
            )

    # -- factories -----------------------------------------------------------

    @classmethod
    def none(cls) -> "FeedbackFaultModel":
        """The fault-free configuration (exercises the fault hooks)."""
        return cls()

    @classmethod
    def noise(
        cls, error_rate: float, recovery: str = "reset-to-epoch"
    ) -> "FeedbackFaultModel":
        """Symmetric misdetection: every confusion occurs at ``error_rate``.

        The single knob of the degradation sweeps.  Erasure and capture
        share the collision symbol's probability budget, so the rate
        must be at most 0.5.
        """
        if not 0.0 <= error_rate <= 0.5:
            raise ValueError(
                f"symmetric error rate must be in [0, 0.5], got {error_rate}"
            )
        return cls(
            p_collision_as_success=error_rate,
            p_success_as_idle=error_rate,
            p_erasure=error_rate,
            recovery=recovery,
        )

    # -- queries -------------------------------------------------------------

    @property
    def has_noise(self) -> bool:
        """Whether any per-slot misdetection probability is positive."""
        return any(getattr(self, name) > 0 for name in _PROB_FIELDS)

    @property
    def has_events(self) -> bool:
        """Whether missed-feedback or jamming events can fire."""
        return self.miss_rate > 0 or self.jam_rate > 0

    @property
    def is_null(self) -> bool:
        """Whether the model injects no faults at all."""
        return not (self.has_noise or self.has_events)


class FeedbackFaultState:
    """Per-run runtime of one :class:`FeedbackFaultModel`.

    Owns the event heap (jam bursts, per-station misses), the set of
    currently desynchronized stations, and the per-slot observation
    rule.  Both the reference loop and the compiled engine drive one
    instance through the identical call sequence — ``poll`` at every
    decision epoch and examination slot, ``rejoin`` at epoch tops only,
    ``observe`` once per examination slot — so the fault stream's draw
    order (and therefore the whole run) is bit-identical across
    kernels.
    """

    __slots__ = (
        "model",
        "rng",
        "telemetry",
        "desynced",
        "jam_until",
        "_events",
        "_seq",
        "_noise",
        "_p_erasure",
        "_p_capture",
        "_p_fade",
        "_stash",
        "_stash_pos",
    )

    def __init__(
        self,
        model: FeedbackFaultModel,
        n_stations: int,
        rng: np.random.Generator,
        telemetry: Optional[FaultTelemetry] = None,
    ):
        self.model = model
        self.rng = rng
        self.telemetry = telemetry if telemetry is not None else FaultTelemetry()
        #: station id -> (rejoin instant, miss instant) while desynced.
        self.desynced: Dict[int, Tuple[float, float]] = {}
        self.jam_until = -math.inf
        self._events: List[Tuple[float, int, int, int]] = []
        self._seq = 0
        # Seed the heap in a fixed order: the jam process first, then
        # one miss clock per station — part of the draw-order contract.
        if model.jam_rate > 0:
            self._push(rng.exponential(1.0 / model.jam_rate), -1, _JAM)
        if model.miss_rate > 0:
            for station in range(n_stations):
                self._push(rng.exponential(1.0 / model.miss_rate), station, _MISS)
        self._noise = model.has_noise
        self._p_erasure = model.p_erasure
        self._p_capture = model.p_erasure + model.p_collision_as_success
        self._p_fade = model.p_erasure + model.p_success_as_idle
        # Pre-drawn uniforms (see scan_idle) served to observe() in order.
        self._stash: Optional[List[float]] = None
        self._stash_pos = 0

    def _push(self, when: float, station: int, kind: int) -> None:
        heapq.heappush(self._events, (when, self._seq, station, kind))
        self._seq += 1

    # -- event machinery -----------------------------------------------------

    def poll(self, now: float) -> List[int]:
        """Apply every fault event due by ``now``.

        Returns the stations that drop out this instant (``recovery ==
        "drop-out"`` only); the caller destroys their pending backlogs.
        Called at every decision epoch and at every examination slot —
        a second call at the same instant pops nothing and draws
        nothing, so the two loops' slightly different call sites stay
        draw-identical.
        """
        dropped: List[int] = []
        events = self._events
        model = self.model
        while events and events[0][0] <= now:
            when, _, station, kind = heapq.heappop(events)
            if kind == _JAM:
                burst = 1.0 + self.rng.exponential(model.mean_jam_slots)
                if when + burst > self.jam_until:
                    self.jam_until = when + burst
                self.telemetry.jam_bursts += 1
                self._push(
                    self.jam_until + self.rng.exponential(1.0 / model.jam_rate),
                    -1,
                    _JAM,
                )
                continue
            # Missed feedback: reschedule the station's clock first so the
            # draw happens whether or not the station was already down.
            self._push(
                when + self.rng.exponential(1.0 / model.miss_rate), station, _MISS
            )
            if station in self.desynced:
                continue
            self.telemetry.missed_feedback += 1
            if model.recovery == "gated-rejoin":
                self.desynced[station] = (when + model.rejoin_listen_slots, when)
            else:
                # reset-to-epoch and drop-out both rejoin at the first
                # epoch boundary after the miss.
                self.desynced[station] = (when, when)
                if model.recovery == "drop-out":
                    dropped.append(station)
        return dropped

    def rejoin(self, now: float) -> None:
        """Re-admit desynced stations whose rejoin instant has passed.

        Called at decision-epoch tops only — a station never rejoins in
        the middle of a windowing process, which keeps the process's
        window-occupancy inferences coherent.
        """
        if not self.desynced:
            return
        ready = sorted(
            station
            for station, (rejoin_at, _) in self.desynced.items()
            if rejoin_at <= now
        )
        for station in ready:
            _, missed_at = self.desynced.pop(station)
            self.telemetry.resyncs += 1
            self.telemetry.diverged_slots += now - missed_at

    def jammed(self, now: float) -> bool:
        """Whether an adversarial burst covers this slot."""
        return now < self.jam_until

    def scan_idle(self, n: int) -> int:
        """Number of leading *clean* IDLE observations among the next ``n``.

        The compiled engine's idle fast-forward hook: an idle examination
        slot consumes exactly one uniform under misdetection noise
        (none otherwise), and only an erasure corrupts a truly idle
        span.  This consumes the draws of up to ``n`` such slots in one
        vectorised block and reports how many read clean — those slots
        the engine may jump in closed form.  When a corrupting draw is
        met it stays queued, so the caller's next :meth:`observe` reads
        the COLLISION from exactly the value the reference loop's
        slot-by-slot draw would produce; pre-drawn leftovers are served
        to the following observations in order.  The block draw may
        leave the underlying generator ahead of the reference loop's at
        run end, which is unobservable: every *served* value matches,
        and event-carrying models — whose exponential clocks share this
        generator — never scan (see the ``has_events`` gate in
        :class:`~repro.mac.kernels.engine.FlatLane`).
        """
        if not self._noise:
            return n
        clean = 0
        p_erasure = self._p_erasure
        stash = self._stash
        if stash is not None:
            pos = self._stash_pos
            limit = len(stash)
            while pos < limit and clean < n:
                if stash[pos] < p_erasure:
                    self._stash_pos = pos
                    return clean
                pos += 1
                clean += 1
            self._stash_pos = pos
            if pos >= limit:
                self._stash = None
            if clean >= n:
                return clean
        draws = self.rng.random(n - clean)
        bad = np.flatnonzero(draws < p_erasure)
        if bad.size == 0:
            return n
        first = int(bad[0])
        # A list serves the per-slot observations as plain floats.
        self._stash = draws[first:].tolist()
        self._stash_pos = 0
        return clean + first

    # -- the observation rule -----------------------------------------------

    def observe(self, true_feedback: ChannelFeedback) -> ChannelFeedback:
        """The network's (possibly corrupted) reading of a true symbol.

        Exactly one uniform draw per examination slot when the model has
        misdetection noise, zero otherwise — including jammed slots, so
        the draw count per slot is state-independent and both kernels
        consume the fault stream identically.
        """
        if not self._noise:
            return true_feedback
        stash = self._stash
        if stash is None:
            u = self.rng.random()
        else:
            pos = self._stash_pos
            u = stash[pos]
            pos += 1
            if pos >= len(stash):
                self._stash = None
            else:
                self._stash_pos = pos
        observed = true_feedback
        if u < self._p_erasure:
            observed = _COLLISION
        elif true_feedback is _COLLISION and u < self._p_capture:
            observed = _SUCCESS
        elif true_feedback is _SUCCESS and u < self._p_fade:
            observed = _IDLE
        if observed is not true_feedback:
            self.telemetry.corrupted_observations += 1
        return observed
