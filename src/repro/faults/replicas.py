"""Per-station protocol-state replicas with divergence recovery.

The paper treats the whole network's protocol state as *one* object
because error-free feedback keeps every station's copy identical (§2).
Under the faults of :mod:`repro.faults.model` that identity breaks, so
this module replaces the single shared
:class:`~repro.core.controller.ProtocolController` with a bank of
replicas that are allowed to diverge and must win their consistency
back.

**Cohorts.**  Simulating one controller per station would cost
``n_stations``× the work even when no fault ever fires.  The bank
instead tracks *cohorts*: maximal groups of stations whose replica state
is identical.  A fault-free network is one cohort forever — the bank
then *is* the shared controller, driven through the very same code
path, which is how the zero-fault regression test can require
bit-identical results.  A divergent observation splits a cohort (the
minority's state is deep-copied, including its policy RNG — exactly as
real stations sharing a seeded pseudo-random sequence would drift once
their draw counts differ); re-converged cohorts are merged back.

**Inconsistency detection.**  A replica cannot see the network's true
state, but three local symptoms expose divergence:

* *phantom activity* — the replica believes all time is resolved (its
  controller declined to open a window) yet the channel is not idle;
* *unheard own transmission* — a station transmitted in this slot yet
  observes IDLE;
* *runaway splitting* — the windowing process descends past
  :data:`MAX_SPLIT_DEPTH` (a span the replica believes occupied keeps
  examining idle, which fault-free feedback cannot produce), or runs
  longer than the per-process timeout of
  ``8 · (RESYNC_TIMEOUT_BASE_SLOTS + M)`` slots.

**Bounded re-synchronization.**  A replica that detects divergence (or
returns from a crash/deaf period, where divergence is certain) resets
its unresolved set to ``[now − K, now]`` via
:meth:`~repro.core.controller.ProtocolController.resynchronize` and
listens without transmitting for :data:`RESYNC_LISTEN_SLOTS` before it
rejoins.  ``K`` is the policy's discard deadline, or
:data:`RESYNC_HORIZON_MESSAGES` message lengths for a policy without
element 4.  The reset is safe: element 4 discards anything older than
``K`` regardless, and re-declaring resolved time unresolved only costs
idle re-examinations — it can never orphan a pending message.
Degradation is therefore graceful (wasted slots, higher loss) rather
than catastrophic (deadlock or permanent divergence).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.controller import ProtocolController
from ..core.policy import ControlPolicy, RandomPosition
from ..core.window import ChannelFeedback, WindowingProcess
from .injector import FaultInjector
from .model import FaultModel, FaultTelemetry

__all__ = ["ReplicaCohort", "ReplicatedControllerBank"]

#: Listen-only slots a resyncing replica waits before it rejoins.
RESYNC_LISTEN_SLOTS = 4.0

#: Split depth beyond which a replica declares itself diverged.  A
#: fault-free split needs >= 2 arrivals in the span, so depth d means
#: two arrivals within (window / 2^d) of each other — at 40 that is
#: astronomically unlikely, while a corrupted idle-descent marches past
#: it quickly (and must be stopped before float resolution degenerates
#: the span, around depth ~48 for realistic horizons).
MAX_SPLIT_DEPTH = 40

#: Resync horizon, in message lengths M, of a policy without element 4
#: (a policy with one resyncs over its discard deadline K).
RESYNC_HORIZON_MESSAGES = 16.0

#: A windowing process older than ``8 · (RESYNC_TIMEOUT_BASE_SLOTS + M)``
#: slots is declared diverged.
RESYNC_TIMEOUT_BASE_SLOTS = 120.0

_SYMBOL_ORDER = (
    ChannelFeedback.IDLE,
    ChannelFeedback.SUCCESS,
    ChannelFeedback.COLLISION,
)


class ReplicaCohort:
    """A maximal set of stations whose protocol replicas agree exactly."""

    __slots__ = (
        "uid",
        "stations",
        "controller",
        "process",
        "process_start",
        "eligible",
        "expects_idle",
        "listen_until",
        "enabled",
    )

    def __init__(self, uid: int, stations: set, controller: ProtocolController):
        self.uid = uid
        self.stations = stations
        self.controller = controller
        self.process: Optional[WindowingProcess] = None
        self.process_start = 0.0
        self.eligible: Optional[Dict] = None
        self.expects_idle = False
        self.listen_until = -float("inf")
        self.enabled: Dict = {}

    def at_boundary(self, now: float) -> bool:
        """Whether the cohort should pick its next action this slot."""
        return self.process is None and now >= self.listen_until and bool(self.stations)

    def _clear_process(self) -> None:
        self.process = None
        self.eligible = None
        self.enabled = {}


class ReplicatedControllerBank:
    """All stations' replicas, organized into agreement cohorts.

    Parameters
    ----------
    policy:
        The control policy every station runs.
    n_stations:
        Station population size.
    root_controller:
        The initial (network-wide) controller replica; in a fault-free
        run it is driven exactly as the shared controller would be.
    fault_model / fault_rng:
        The fault configuration and its dedicated generator.
    transmission_slots:
        Message length M, which scales the resync horizon of a policy
        without element 4 and the process timeout.
    """

    def __init__(
        self,
        policy: ControlPolicy,
        n_stations: int,
        root_controller: ProtocolController,
        fault_model: FaultModel,
        fault_rng: np.random.Generator,
        transmission_slots: int,
    ):
        self.policy = policy
        self.n_stations = n_stations
        self.injector = FaultInjector(fault_model, n_stations, fault_rng)
        self.telemetry = FaultTelemetry()
        root = ReplicaCohort(0, set(range(n_stations)), root_controller)
        self.cohorts: List[ReplicaCohort] = [root]
        self._station_cohort: Dict[int, ReplicaCohort] = {
            s: root for s in range(n_stations)
        }
        self._next_uid = 1
        # Divergence detection is pointless (and must stay inert for
        # bit-identical regression) when no fault can ever fire.
        self._detect = not fault_model.is_null
        self._stochastic = (
            isinstance(policy.position, RandomPosition) or policy.split == "random"
        )
        if policy.discard_deadline is not None:
            self._resync_horizon = policy.discard_deadline
        else:
            self._resync_horizon = RESYNC_HORIZON_MESSAGES * transmission_slots
        self._resync_timeout = 8.0 * (RESYNC_TIMEOUT_BASE_SLOTS + transmission_slots)

    # -- queries -----------------------------------------------------------------

    def any_boundary(self, now: float) -> bool:
        """Whether any cohort picks its next action this slot."""
        return any(c.at_boundary(now) for c in self.cohorts)

    def any_process(self) -> bool:
        """Whether any cohort currently drives a windowing process."""
        return any(c.process is not None for c in self.cohorts)

    def cohort_of(self, station: int) -> ReplicaCohort:
        """The cohort a station currently belongs to."""
        return self._station_cohort[station]

    def _covers_network(self, cohort: ReplicaCohort) -> bool:
        return (
            len(self.cohorts) == 1
            and len(cohort.stations) == self.n_stations
            and not self.injector.any_down
        )

    # -- the per-slot protocol steps ------------------------------------------------

    def begin_processes(self, now: float, registry) -> None:
        """Every boundary cohort selects its next window (or waits).

        Mirrors the shared-path call order: merge opportunities are taken
        first so a re-converged group issues one decision, then each
        cohort runs ``begin_process`` exactly as the shared controller
        would at this instant.
        """
        if len(self.cohorts) > 1:
            self._merge_boundary_cohorts(now)
        for cohort in sorted(self.cohorts, key=lambda c: c.uid):
            if not cohort.at_boundary(now):
                continue
            process = cohort.controller.begin_process(now)
            if process is None:
                cohort.expects_idle = True
                continue
            cohort.process = process
            cohort.process_start = now
            cohort.expects_idle = False
            cohort.eligible = (
                registry.eligible_for_window(process.current_span)
                if registry.has_scaled_stations
                else None
            )

    def collect_transmitters(self, now: float, registry) -> Dict:
        """The union of stations transmitting this slot, across cohorts.

        Each cohort with a process in flight enables its own stations
        against its *own* current span; diverged cohorts may therefore
        enable stations for different windows in the same slot — the
        channel resolves the union, which is precisely how inconsistent
        replicas manufacture extra collisions in a real network.
        """
        union: Dict = {}
        injector = self.injector
        for cohort in self.cohorts:
            process = cohort.process
            if process is None:
                cohort.enabled = {}
                continue
            span = process.current_span
            if span.pieces and span.end > now + 1e-9:
                raise ValueError(
                    f"window end {span.end} lies in the future (now = {now})"
                )
            if cohort.eligible is None:
                enabled = registry.enabled_stations(span)
            else:
                # The cached eligibility map can go stale under faults: a
                # crash or phantom dequeue removes a message from the
                # registry mid-process.  (Fate compared by value to avoid
                # a circular import with repro.mac.)
                enabled = {
                    station: message
                    for station, message in cohort.eligible.items()
                    if span.contains(message.arrival)
                    and message.fate.value == "pending"
                }
            if not self._covers_network(cohort):
                enabled = {
                    station: message
                    for station, message in enabled.items()
                    if station in cohort.stations and injector.is_up(station)
                }
            cohort.enabled = enabled
            union.update(enabled)
        return union

    def apply_feedback(
        self,
        true_feedback: ChannelFeedback,
        now: float,
        on_phantom_delivery: Callable,
    ) -> None:
        """Distribute one slot's feedback to every replica.

        ``on_phantom_delivery(message)`` is invoked for each message its
        sender dequeues after observing a (corrupted) SUCCESS that never
        happened — the silent-loss mode of the capture effect.
        """
        if not self._detect:
            # Fault-free fast path: exactly one cohort, true symbol.
            cohort = self.cohorts[0]
            if cohort.process is not None:
                self._deliver(cohort, true_feedback, true_feedback, now, None)
            return
        for cohort in list(self.cohorts):
            ids = sorted(cohort.stations)
            symbols = self.injector.observe(true_feedback, len(ids))
            self.telemetry.corrupted_observations += sum(
                1 for s in symbols if s is not true_feedback
            )
            groups: Dict[ChannelFeedback, List[int]] = {}
            for station, symbol in zip(ids, symbols):
                groups.setdefault(symbol, []).append(station)
            for subcohort, symbol in self._split(cohort, groups):
                self._deliver(
                    subcohort, symbol, true_feedback, now, on_phantom_delivery
                )
        if len(self.cohorts) > self.telemetry.peak_cohorts:
            self.telemetry.peak_cohorts = len(self.cohorts)

    # -- station-level fault transitions ---------------------------------------------

    def remove_station(self, station: int) -> None:
        """Take a crashed or deaf station out of its cohort."""
        cohort = self._station_cohort.pop(station, None)
        if cohort is None:
            return
        cohort.stations.discard(station)
        if not cohort.stations:
            self.cohorts.remove(cohort)

    def restore_station(self, station: int, now: float) -> None:
        """Re-admit a restarted/recovered station as a fresh resync cohort.

        The station knows its state is stale (it was down or missed
        feedback), so it boots straight into the re-synchronization
        epoch: unresolved ``[now − K, now]``, listen-only rejoin.
        """
        rng = np.random.default_rng(self.injector.rng.integers(0, 2**63))
        controller = ProtocolController(self.policy, rng=rng)
        controller.resynchronize(now, self._resync_horizon)
        cohort = ReplicaCohort(self._next_uid, {station}, controller)
        self._next_uid += 1
        cohort.listen_until = now + RESYNC_LISTEN_SLOTS
        self.cohorts.append(cohort)
        self._station_cohort[station] = cohort
        self.telemetry.resyncs += 1
        if len(self.cohorts) > self.telemetry.peak_cohorts:
            self.telemetry.peak_cohorts = len(self.cohorts)

    # -- internals --------------------------------------------------------------------

    def _split(
        self, cohort: ReplicaCohort, groups: Dict[ChannelFeedback, List[int]]
    ) -> List:
        """Split a cohort whose members observed different symbols.

        The group that heard the *true* symbol (or, failing that, the
        largest group) keeps the original replica objects; every other
        group receives a joint deep copy of (controller, process) so the
        policy RNG stays shared *within* the copy but diverges *between*
        cohorts — the same drift a fleet of stations running a common
        seeded PRNG would experience once their decision counts differ.
        """
        if len(groups) == 1:
            ((symbol, _),) = groups.items()
            return [(cohort, symbol)]
        order = sorted(
            groups,
            key=lambda s: (-len(groups[s]), _SYMBOL_ORDER.index(s)),
        )
        keeper_symbol = order[0]
        result = []
        for symbol, stations in groups.items():
            if symbol is keeper_symbol:
                cohort.stations = set(stations)
                cohort.enabled = {
                    s: m for s, m in cohort.enabled.items() if s in cohort.stations
                }
                result.append((cohort, symbol))
                continue
            controller, process = copy.deepcopy((cohort.controller, cohort.process))
            twin = ReplicaCohort(self._next_uid, set(stations), controller)
            self._next_uid += 1
            twin.process = process
            twin.process_start = cohort.process_start
            twin.eligible = dict(cohort.eligible) if cohort.eligible else None
            twin.expects_idle = cohort.expects_idle
            twin.listen_until = cohort.listen_until
            twin.enabled = {s: m for s, m in cohort.enabled.items() if s in twin.stations}
            self.cohorts.append(twin)
            for station in twin.stations:
                self._station_cohort[station] = twin
            self.telemetry.cohort_splits += 1
            result.append((twin, symbol))
        return result

    def _deliver(
        self,
        cohort: ReplicaCohort,
        symbol: ChannelFeedback,
        true_feedback: ChannelFeedback,
        now: float,
        on_phantom_delivery: Optional[Callable],
    ) -> None:
        """Advance one cohort's replica with its observed symbol."""
        if now < cohort.listen_until:
            return  # re-synchronizing: listen-only, ignore the symbol
        process = cohort.process
        if process is None:
            if (
                self._detect
                and cohort.expects_idle
                and symbol is not ChannelFeedback.IDLE
            ):
                # Phantom activity: the replica believes all past time is
                # resolved, yet the channel is busy.
                self._resync(cohort, now)
            return
        if self._detect and cohort.enabled and symbol is ChannelFeedback.IDLE:
            # A station of this cohort transmitted this very slot; hearing
            # IDLE contradicts its own action.
            self._resync(cohort, now)
            return
        if (
            self._detect
            and symbol is ChannelFeedback.SUCCESS
            and true_feedback is not ChannelFeedback.SUCCESS
            and cohort.enabled
            and on_phantom_delivery is not None
        ):
            # Captured/corrupted SUCCESS: each transmitter of this cohort
            # believes its message got through and dequeues it — a silent
            # loss the protocol itself never sees.
            for message in cohort.enabled.values():
                on_phantom_delivery(message)
                self.telemetry.phantom_deliveries += 1
        process.on_feedback(symbol)
        if process.done:
            cohort.controller.complete_process(process)
            cohort._clear_process()
            return
        if self._detect and process.depth > MAX_SPLIT_DEPTH:
            self._resync(cohort, now)
        elif self._detect and now - cohort.process_start > self._resync_timeout:
            self._resync(cohort, now)

    def _resync(self, cohort: ReplicaCohort, now: float) -> None:
        """Run the bounded re-synchronization epoch on one cohort: reset
        its state and listen for :data:`RESYNC_LISTEN_SLOTS` before it
        rejoins."""
        cohort._clear_process()
        cohort.expects_idle = False
        cohort.controller.resynchronize(now, self._resync_horizon)
        cohort.listen_until = now + RESYNC_LISTEN_SLOTS
        self.telemetry.divergence_detections += 1
        self.telemetry.resyncs += 1

    def _fingerprint(self, cohort: ReplicaCohort):
        controller = cohort.controller
        parts = [
            tuple(controller.unresolved.intervals()),
            controller.frontier,
        ]
        if self._stochastic and controller.rng is not None:
            parts.append(repr(controller.rng.bit_generator.state))
        return tuple(parts)

    def _merge_boundary_cohorts(self, now: float) -> None:
        """Fuse cohorts whose replica state re-converged.

        Only idle (between-process, not listening) cohorts are compared:
        that is where re-convergence actually happens — e.g. once element
        4 has aged the disagreeing past out of every replica — and it
        keeps the fingerprint cheap.
        """
        groups: Dict[tuple, List[ReplicaCohort]] = {}
        for cohort in self.cohorts:
            if cohort.process is None and now >= cohort.listen_until:
                groups.setdefault(self._fingerprint(cohort), []).append(cohort)
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort(key=lambda c: c.uid)
            keeper = members[0]
            for other in members[1:]:
                keeper.stations |= other.stations
                for station in other.stations:
                    self._station_cohort[station] = keeper
                self.cohorts.remove(other)
                self.telemetry.cohort_merges += 1
