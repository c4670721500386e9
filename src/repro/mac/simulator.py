"""The slot-level multiple-access simulator.

Drives the full stack — Poisson arrivals over a station population, the
shared :class:`~repro.core.controller.ProtocolController`, the windowing
state machine and the slotted channel — and scores message losses the
way the paper's simulations do (§4.2): a message is lost when its *true*
waiting time exceeds the constraint, whether that happens at the sender
(policy element 4 discards it) or at the receiver (it was transmitted
too late).  The paper-definition waiting time is recorded alongside so
both loss definitions can be compared.

This simulator is the reproduction's ground truth for Figure 7's
simulation points and for the ablation benches (element 4 on/off, window
length, split rule, arity, priorities).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..choices import BACKENDS
from ..core.controller import ProtocolController
from ..core.policy import ControlPolicy
from ..core.window import ChannelFeedback
from ..des.rng import RandomStreams
from ..faults import (
    FaultEvent,
    FaultModel,
    FaultTelemetry,
    FeedbackFaultModel,
    FeedbackFaultState,
    ReplicatedControllerBank,
)
from ..obs.metrics import MetricsRegistry
from ..resilience.invariants import invariants_enabled, require
from .channel import ChannelStats, SlottedChannel
from .kernels.primitives import ObsBuffers, WaitStats
from .messages import Message, MessageFate
from .station import StationRegistry

__all__ = [
    "MACSimResult",
    "WindowMACSimulator",
    "count_late",
    "flush_fault_metrics",
    "flush_result_metrics",
    "rescore",
    "rescore_metrics",
]

#: Sub-seed mixed into the fault stream when no RandomStreams family is
#: given, keeping fault draws independent of the traffic sample path.
_FAULT_STREAM_KEY = 0xFA17

logger = logging.getLogger(__name__)

#: Backend downgrades already logged, keyed by arm parameters.
#: Module-level so a sweep re-running the same arm hundreds of times
#: produces one notice, not hundreds; the per-run
#: ``kernel.fallbacks`` metric keeps the exact count.
_FALLBACK_NOTICES: set = set()


@dataclass(frozen=True)
class MACSimResult:
    """Aggregated outcome of one MAC simulation run.

    Counts cover messages *arriving* inside the measurement interval.

    Attributes
    ----------
    arrivals:
        Messages generated in the measurement interval.
    delivered_on_time / delivered_late / discarded:
        Their terminal outcomes (late = true wait above the deadline;
        discarded = dropped by policy element 4 at the sender).
    unresolved:
        Messages still pending when the run ended (excluded from the
        loss denominator; large values signal saturation).
    lost_to_faults:
        Messages destroyed by injected faults (station crashes, phantom
        successes); zero in fault-free runs.
    loss_fraction:
        (late + discarded + lost to faults) / (arrivals − unresolved).
    mean_true_wait / mean_paper_wait:
        Mean waits over delivered messages.
    channel:
        Slot-usage breakdown.
    deadline:
        The constraint K the run was scored against (None = no scoring).
    faults:
        Fault-layer telemetry when a :class:`FaultModel` drove the run
        (None on the shared-controller path).  Excluded from equality so
        zero-fault replica runs compare bit-identical to shared runs.
    """

    arrivals: int
    delivered_on_time: int
    delivered_late: int
    discarded: int
    unresolved: int
    mean_true_wait: float
    mean_paper_wait: float
    channel: ChannelStats
    deadline: Optional[float]
    lost_to_faults: int = 0
    faults: Optional[FaultTelemetry] = field(default=None, compare=False)

    @property
    def resolved(self) -> int:
        """Messages with a terminal outcome."""
        return self.arrivals - self.unresolved

    @property
    def loss_fraction(self) -> float:
        """Fraction of resolved messages that missed the constraint."""
        if self.resolved <= 0:
            return float("nan")
        return (
            self.delivered_late + self.discarded + self.lost_to_faults
        ) / self.resolved

    @property
    def saturated(self) -> bool:
        """Warning flag: more than 10% of arrivals never resolved.

        A saturated run's loss figures describe only the messages the
        protocol managed to resolve; treat them as lower bounds (the
        CLI surfaces this as an explicit warning).
        """
        if self.arrivals <= 0:
            return False
        return self.unresolved / self.arrivals > 0.10

    def loss_stderr(self) -> float:
        """Binomial standard error of the loss estimate."""
        if self.resolved <= 0:
            return float("nan")
        p = self.loss_fraction
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.resolved)


def count_late(waits: Sequence[float], deadline: Optional[float]) -> int:
    """How many scored waits miss ``deadline`` (``None``: none do).

    The one scoring rule of every engine's result and of every rescored
    deadline: a delivery is late when its wait exceeds K.
    """
    if deadline is None:
        return 0
    return int(np.count_nonzero(np.asarray(waits, dtype=np.float64) > deadline))


def rescore(
    result: MACSimResult, waits: Sequence[float], deadline: Optional[float]
) -> MACSimResult:
    """``result`` scored against ``deadline`` instead of its own.

    ``waits`` is the run's record of scored waits
    (:attr:`WindowMACSimulator.scored_waits`).  The deadline reaches a
    run's sample path only through the policy's ``discard_deadline``, so
    this equals a separate run of the same spec at ``deadline``.
    """
    late = count_late(waits, deadline)
    return replace(
        result,
        delivered_on_time=len(waits) - late,
        delivered_late=late,
        deadline=deadline,
    )


def rescore_metrics(state: Dict[str, Any], result: MACSimResult) -> Dict[str, Any]:
    """A run's registry ``state`` rescored as :func:`rescore` rescored
    its ``result``.

    Of everything a run records, only the on-time and late counts that
    :func:`flush_result_metrics` writes read the scoring deadline; every
    other name, ``faults.*`` included, is a function of the sample path.
    """
    registry = MetricsRegistry.from_dict(state)
    registry.counter("mac.messages.on_time").value = result.delivered_on_time
    registry.counter("mac.messages.late").value = result.delivered_late
    return registry.to_dict()


def flush_result_metrics(metrics: MetricsRegistry, result: MACSimResult) -> None:
    """Record one run's outcome into ``metrics``.

    Slot counters are copied verbatim from :class:`ChannelStats`, so the
    metrics view of channel usage agrees *exactly* with
    :meth:`ChannelStats.breakdown` — the parity test in
    ``tests/mac/test_obs_parity.py`` holds all three accountings (the
    reference loop, the compiled engine, and these counters) to
    identical values.  Shared by every simulation path.  The on-time and
    late counts are its only deadline-dependent names; keep
    :func:`rescore_metrics` in step with them.
    """
    metrics.inc("mac.runs")
    stats = result.channel
    metrics.inc("mac.slots.idle", stats.idle_slots)
    metrics.inc("mac.slots.collision", stats.collision_slots)
    metrics.inc("mac.slots.transmission", stats.transmission_slots)
    metrics.inc("mac.slots.wait", stats.wait_slots)
    metrics.inc("mac.messages.arrivals", result.arrivals)
    metrics.inc("mac.messages.on_time", result.delivered_on_time)
    metrics.inc("mac.messages.late", result.delivered_late)
    metrics.inc("mac.messages.discarded", result.discarded)
    metrics.inc("mac.messages.unresolved", result.unresolved)
    metrics.inc("mac.messages.lost_to_faults", result.lost_to_faults)


def flush_fault_metrics(metrics: MetricsRegistry, telemetry: FaultTelemetry) -> None:
    """Record one faulted run's fault-layer activity into ``metrics``.

    Shared by every fault-driven path — the shared reference loop and
    the compiled engine under feedback faults, and the replica bank — so
    the ``faults.*`` counters are backend-independent (part of the registry
    parity contract).  The replicated path skips it for a null model,
    keeping null-replica runs registry-identical to shared runs.
    """
    metrics.inc(
        "faults.injected",
        telemetry.corrupted_observations
        + telemetry.jam_slots
        + telemetry.missed_feedback
        + telemetry.crashes
        + telemetry.deaf_events,
    )
    metrics.inc(
        "faults.detected",
        telemetry.divergence_detections
        + telemetry.missed_feedback
        + telemetry.cohort_splits,
    )
    metrics.inc("faults.resynced", telemetry.resyncs)
    metrics.counter("faults.diverged_slots", unit="slots").inc(
        telemetry.diverged_slots
    )


class WindowMACSimulator:
    """Simulates the window protocol on a slotted broadcast channel.

    Parameters
    ----------
    policy:
        The four-element control policy (see :class:`ControlPolicy`).
    arrival_rate:
        Network-wide Poisson arrival rate λ, messages per slot.
    transmission_slots:
        Message length M in τ units.
    n_stations:
        Station population (arrivals are assigned uniformly).
    deadline:
        The constraint K used for *scoring* losses.  Independent of the
        policy's ``discard_deadline`` so uncontrolled protocols can be
        scored against any K.  It never changes the sample path: every
        engine records the wait each measured delivery is scored on
        (:attr:`scored_waits`), so one run scores any other K through
        :func:`rescore`.
    loss_definition:
        ``"true"`` (the paper's simulation convention, default) or
        ``"paper"`` (the analysis convention).
    backend:
        ``"compiled"`` (default) runs the compiled engine
        (:mod:`repro.mac.kernels.compiled`, the struct-of-arrays
        :class:`~repro.mac.kernels.engine.FlatLane`), bit-identical to
        the reference loop — same RNG draw order, same float
        arithmetic.  ``"reference"`` forces the reference loop (the
        oracle and the benchmark baseline).
        Replica-fault runs take their own loop (see :meth:`run`); any
        other run the compiled engine cannot reproduce falls back to the
        reference loop with a one-time logged notice and a
        ``kernel.fallbacks`` count.
    seed / streams:
        Randomness source.  A :class:`~repro.des.rng.RandomStreams`
        family (when given) supersedes ``seed`` and draws traffic and
        fault randomness from independent named substreams.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        per-run channel/outcome counters and per-epoch backlog and
        window-size histograms (see ``docs/observability.md``).
        ``None`` or a disabled registry is normalised to ``None`` here,
        so the uninstrumented hot path is bit- and speed-identical to
        the pre-observability code.  Recording never changes a result:
        instrumented runs stay bit-identical to uninstrumented ones.
    fault_model:
        ``None`` (default) runs the classic shared-controller path.  A
        :class:`~repro.faults.FaultModel` — even ``FaultModel.none()`` —
        routes the run through per-station controller replicas
        (:mod:`repro.faults.replicas`); the null model reproduces the
        shared path bit-for-bit, non-null models inject the configured
        channel and station faults.
    feedback_faults:
        A :class:`~repro.faults.FeedbackFaultModel` — the *common-mode*
        feedback-error family (misdetection noise, missed feedback,
        adversarial jamming) in which every station still observes the
        same symbol.  Unlike ``fault_model`` this keeps one shared
        protocol state, so faulted runs execute on the compiled engine
        bit-identically to the shared reference loop, which applies the
        faults as a branch of each examination slot.  Mutually exclusive
        with ``fault_model``.
    """

    def __init__(
        self,
        policy: ControlPolicy,
        arrival_rate: float,
        transmission_slots: int,
        n_stations: int = 200,
        deadline: Optional[float] = None,
        loss_definition: str = "true",
        seed: int = 0,
        workload=None,
        fault_model: Optional[FaultModel] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: str = "compiled",
        feedback_faults: Optional[FeedbackFaultModel] = None,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {arrival_rate}")
        if fault_model is not None and feedback_faults is not None:
            raise ValueError(
                "fault_model and feedback_faults are mutually exclusive: "
                "per-station replica faults (fault_model) and common-mode "
                "feedback-channel errors (feedback_faults) model disjoint "
                "failure domains"
            )
        if loss_definition not in ("true", "paper"):
            raise ValueError(f"unknown loss definition: {loss_definition!r}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend: {backend!r} (expected one of {BACKENDS})"
            )
        self.backend = backend
        self.policy = policy
        self.arrival_rate = arrival_rate
        self.transmission_slots = transmission_slots
        self.deadline = deadline
        self.loss_definition = loss_definition
        if streams is not None:
            self.rng = streams.get("mac-simulator")
            fault_rng = streams.get("faults")
            # Workload arrivals draw from their own named substream so
            # swapping the traffic model never perturbs the protocol or
            # fault streams (the seed-derivation contract).
            arrival_rng = (
                streams.get("workload") if workload is not None else self.rng
            )
        else:
            self.rng = np.random.default_rng(seed)
            fault_rng = np.random.default_rng(
                np.random.SeedSequence([abs(int(seed)), _FAULT_STREAM_KEY])
            )
            # Plain-seed runs keep the historical shared generator so
            # every pinned result stands.
            arrival_rng = self.rng
        # Retained for feedback-faulted runs (both engines draw fault
        # randomness from this one generator, in identical order).
        self._fault_rng = fault_rng
        # All arrival generation — reference loop and kernels alike —
        # must draw from this generator, never self.rng directly.
        self._arrival_rng = arrival_rng
        self.workload = workload  # None = homogeneous Poisson at arrival_rate
        # A disabled registry is normalised away so hot loops test one
        # reference against None and nothing else.
        self.metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )
        #: The wait each measured delivery was scored on, in delivery
        #: order; every engine fills it (see :func:`rescore`).
        self.scored_waits: List[float] = []

        self.registry = StationRegistry(n_stations)
        if invariants_enabled():
            # Guard the lazy struct-of-arrays station bookkeeping
            # (O(1) construction at any population size).
            self.registry.check_invariants()
        self.channel = SlottedChannel(self.registry, transmission_slots)
        self.controller = ProtocolController(policy, rng=self.rng)
        self.fault_model = fault_model
        self.feedback_faults = feedback_faults
        self.bank: Optional[ReplicatedControllerBank] = None
        if fault_model is not None:
            # The root cohort drives *this* controller with *this* rng, so
            # a fault-free replicated run consumes randomness draw-for-draw
            # like the shared path.
            self.bank = ReplicatedControllerBank(
                policy,
                n_stations,
                self.controller,
                fault_model,
                fault_rng,
                transmission_slots,
            )

    # -- arrival generation ------------------------------------------------------

    def _generate_arrivals(self, horizon: float) -> list:
        """Arrival instants from the workload (default: Poisson, uniform
        station assignment)."""
        if self.workload is not None:
            times, stations = self.workload.generate(
                horizon, self.registry.n_stations, self._arrival_rng
            )
        else:
            rng = self._arrival_rng
            n = rng.poisson(self.arrival_rate * horizon)
            times = np.sort(rng.uniform(0.0, horizon, size=n))
            stations = rng.integers(0, self.registry.n_stations, size=n)
        return [
            Message(arrival=float(t), station=int(s), uid=i)
            for i, (t, s) in enumerate(zip(times, stations))
        ]

    # -- main loop -----------------------------------------------------------------

    def run(self, horizon_slots: float, warmup_slots: float = 0.0) -> MACSimResult:
        """Simulate ``warmup + horizon`` slots and score the horizon part.

        Messages arriving during warm-up are simulated but not scored.
        Dispatch, in order: a replica :class:`FaultModel` runs the
        replicated loop; ``backend="reference"`` runs the shared
        reference loop; a run the compiled engine reproduces (feedback
        faults and invariant guards included) runs on it; anything else
        falls back to the shared reference loop (counted and noted by
        :meth:`_note_fallback`).
        """
        if horizon_slots <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_slots}")
        total_time = warmup_slots + horizon_slots
        if self.feedback_faults is not None and self.registry.has_scaled_stations:
            raise ValueError(
                "feedback_faults cannot drive a run with §5 priority "
                "(window-scaled) stations; use fault_model for per-station "
                "failure domains"
            )
        if self.bank is not None:
            return self._run_replicated(total_time, warmup_slots)
        if self.backend == "reference":
            return self._run_shared(total_time, warmup_slots)
        # Resolved through the module attribute at call time, so
        # wrappers installed on compiled.run_compiled see every run.
        from .kernels import compiled

        if compiled.compiled_eligible(self):
            return compiled.run_compiled(self, total_time, warmup_slots)
        self._note_fallback()
        return self._run_shared(total_time, warmup_slots)

    def _note_fallback(self) -> None:
        """Account a downgrade from the compiled engine to the reference loop.

        Every downgraded run increments the ``kernel.fallbacks`` counter
        (when instrumented); the log notice is emitted once per arm
        fingerprint so sweeps re-running one arm hundreds of times
        do not flood the log.
        """
        if self.metrics is not None:
            self.metrics.inc("kernel.fallbacks")
        key = (
            repr(self.policy),
            self.arrival_rate,
            self.transmission_slots,
            self.registry.n_stations,
            self.deadline,
            self.loss_definition,
        )
        if key in _FALLBACK_NOTICES:
            return
        _FALLBACK_NOTICES.add(key)
        logger.info(
            "the compiled engine cannot reproduce this run (see "
            "compiled_eligible); running the reference loop (further "
            "identical downgrades logged only in the kernel.fallbacks "
            "metric)"
        )

    def _run_shared(self, total_time: float, warmup_slots: float) -> MACSimResult:
        """The shared-controller loop: one protocol state for every station (§2).

        Under a feedback fault model the faults stay common-mode — every
        station observes the same symbol — so the state stays shared and
        the fault hook is a branch of each slot: events due by then (jam
        starts, misses, drop-outs) fire, desynced stations sit the slot
        out, a jam burst forces a physical COLLISION, and the network
        observes a possibly corrupted symbol.  Physical truth decides
        delivery; the observed symbol decides what the senders and the
        windowing process do.  An idle descent deeper than
        ``max_split_depth`` is aborted under the configured recovery
        policy.  Without a fault model the hook is ``None`` and none of
        this runs.

        Deliveries are scored in the slot that makes them: a windowing
        process transmits at most one message, and that success ends it.
        """
        model = self.feedback_faults
        faults = (
            FeedbackFaultState(model, self.registry.n_stations, self._fault_rng)
            if model is not None
            else None
        )
        arrivals = self._generate_arrivals(total_time)
        arrival_index = 0

        channel = self.channel
        controller = self.controller
        registry = self.registry

        measured = lambda msg: msg.arrival >= warmup_slots  # noqa: E731
        counts = {fate: 0 for fate in MessageFate}
        n_measured = 0
        waits = WaitStats()
        # Hot-loop guards (REPRO_CHECK_INVARIANTS): monotone clock and
        # window non-negativity, checked as state evolves rather than
        # inferred from a corrupt merged table downstream.
        check = invariants_enabled()
        last_now = -math.inf
        # Per-epoch instrumentation: one `is not None` test per decision
        # epoch when disabled (never per slot inside a process).
        obs = self.metrics
        ob = ObsBuffers() if obs is not None else None

        def lose(message: Message) -> None:
            """Fault-destroy a backlogged message."""
            registry.remove(message)
            message.tx_start = None
            message.fate = MessageFate.LOST_TO_FAULT
            if measured(message):
                counts[MessageFate.LOST_TO_FAULT] += 1

        def drop_station(station: int) -> None:
            """A dropping-out station destroys its pending backlog."""
            for message in registry.drop_station(station):
                message.fate = MessageFate.LOST_TO_FAULT
                faults.telemetry.dropped_messages += 1
                if measured(message):
                    counts[MessageFate.LOST_TO_FAULT] += 1

        while channel.now < total_time:
            now = channel.now
            if check:
                require(now > last_now, f"clock stalled at slot {now}")
                last_now = now
            # Ingest arrivals that have occurred.
            while arrival_index < len(arrivals) and arrivals[arrival_index].arrival <= now:
                message = arrivals[arrival_index]
                registry.ingest(message)
                if measured(message):
                    n_measured += 1
                arrival_index += 1

            if ob is not None:
                ob.epochs += 1
                ob.backlog_sizes.append(len(registry))

            if faults is not None:
                # Fault events due by now, then rejoins (stations
                # re-engage only at a decision boundary).
                for station in faults.poll(now):
                    drop_station(station)
                faults.rejoin(now)

            # begin_process applies element 4 to the time axis; mirror it
            # on the message backlog (stations drop their stale messages).
            process = controller.begin_process(now)
            if self.policy.discard_deadline is not None:
                horizon = now - self.policy.discard_deadline
                for message in registry.drop_older_than(horizon):
                    message.fate = MessageFate.DISCARDED_AT_SENDER
                    if measured(message):
                        counts[MessageFate.DISCARDED_AT_SENDER] += 1

            if process is None:
                channel.wait_slot()
                continue

            process_start = now
            initial_span = process.current_span
            if ob is not None:
                ob.window_sizes.append(initial_span.measure)
            # §5 priority extension: participation is decided once per
            # windowing process against the initial window.
            eligible = (
                registry.eligible_for_window(initial_span)
                if registry.has_scaled_stations
                else None
            )
            while not process.done:
                span = process.current_span
                if check:
                    require(
                        span.measure >= 0.0,
                        f"window span has negative measure at slot {channel.now}",
                    )
                if faults is None:
                    true_symbol, transmitted = channel.examine(span, eligible)
                    observed = true_symbol
                else:
                    # Mid-process fault events (jam starts, misses,
                    # drop-outs), then the participants.
                    for station in faults.poll(channel.now):
                        drop_station(station)
                    enabled = registry.enabled_stations(span)
                    if faults.desynced:
                        enabled = {
                            s: m for s, m in enabled.items()
                            if s not in faults.desynced
                        }
                    if channel.now < faults.jam_until:
                        # Adversarial burst: the channel reads COLLISION
                        # whatever happened; a frame sent into it is
                        # destroyed (the sender aborts after one slot, as
                        # on a real collision) so nothing is delivered.
                        true_symbol = ChannelFeedback.COLLISION
                        transmitted = None
                        channel.now += 1.0
                        channel.stats.collision_slots += 1.0
                        faults.telemetry.jam_slots += 1
                    else:
                        true_symbol, transmitted = channel.resolve_slot(enabled)
                    observed = faults.observe(true_symbol)

                if true_symbol is ChannelFeedback.SUCCESS:
                    if observed is ChannelFeedback.SUCCESS:
                        transmitted.process_start = process_start
                        registry.remove(transmitted)
                        self._score_delivery(transmitted, counts, waits, measured)
                    elif observed is ChannelFeedback.IDLE:
                        # Faded frame: transmitted but decoded nowhere,
                        # and the span resolves idle — unrecoverable.
                        lose(transmitted)
                        faults.telemetry.faded_frames += 1
                    else:
                        # Erasure: the sender reads COLLISION and keeps
                        # the message pending; the split descent will
                        # isolate and retransmit it.
                        transmitted.tx_start = None
                elif (
                    true_symbol is ChannelFeedback.COLLISION
                    and observed is ChannelFeedback.SUCCESS
                ):
                    # Capture: every participating station believes its
                    # frame got through and dequeues it.
                    for message in list(enabled.values()):
                        lose(message)
                        faults.telemetry.phantom_deliveries += 1

                process.on_feedback(observed)
                if (
                    faults is not None
                    and not process.done
                    and process.depth > model.max_split_depth
                ):
                    # Divergence abort: a descent this deep cannot occur
                    # under fault-free feedback (FeedbackFaultModel
                    # notes); stop it before the split machinery's own
                    # depth ceiling turns it into a crash.
                    telemetry = faults.telemetry
                    telemetry.divergence_detections += 1
                    telemetry.diverged_slots += process.slots_spent
                    telemetry.resyncs += 1
                    if model.recovery == "drop-out":
                        for message in registry.messages_in_span(initial_span):
                            lose(message)
                            telemetry.dropped_messages += 1
                    elif model.recovery == "gated-rejoin":
                        channel.now += model.rejoin_listen_slots
                        channel.stats.wait_slots += model.rejoin_listen_slots
                    # complete_process refuses unfinished processes;
                    # fold back what did resolve, abandon the rest.
                    for resolved in process.resolved_spans:
                        controller.unresolved.subtract_span(resolved)
                    break
            else:
                controller.complete_process(process)

        result = self._finish(
            arrivals, measured, counts, n_measured, waits, check,
            None if faults is None else faults.telemetry,
        )
        if obs is not None:
            flush_result_metrics(obs, result)
            if faults is None:
                ob.replay(obs)
            else:
                ob.flush(obs)
                flush_fault_metrics(obs, faults.telemetry)
        return result

    def _run_replicated(self, total_time: float, warmup_slots: float) -> MACSimResult:
        """The fault-injected path: per-station controller replicas.

        Structurally mirrors :meth:`_run_shared` — same arrival stream,
        same decision instants, same slot accounting — but every station
        belongs to a replica *cohort* (:mod:`repro.faults.replicas`)
        whose view of the protocol state may diverge under injected
        faults.  Truth (who actually transmitted, what the slot outcome
        physically was, which message was delivered) is resolved against
        the union of all cohorts' enabled stations; each replica then
        observes a possibly corrupted symbol and evolves on its own.

        With ``FaultModel.none()`` exactly one cohort ever exists and
        this loop replays the shared path decision-for-decision,
        producing a bit-identical :class:`MACSimResult` — the regression
        test of the refactor.
        """
        fault_model = self.fault_model
        bank = self.bank
        injector = bank.injector
        arrivals = self._generate_arrivals(total_time)
        arrival_index = 0

        channel = self.channel
        registry = self.registry

        measured = lambda msg: msg.arrival >= warmup_slots  # noqa: E731
        counts = {fate: 0 for fate in MessageFate}
        n_measured = 0
        waits = WaitStats()
        check = invariants_enabled()
        last_now = -math.inf

        def lose_to_fault(message: Message, in_registry: bool = True) -> None:
            if in_registry:
                registry.remove(message)
            message.fate = MessageFate.LOST_TO_FAULT
            if measured(message):
                counts[MessageFate.LOST_TO_FAULT] += 1

        while channel.now < total_time:
            now = channel.now
            if check:
                require(now > last_now, f"clock stalled at slot {now}")
                last_now = now

            # Station-level fault transitions due by now.
            if fault_model.has_station_faults:
                for event, station in injector.poll(now):
                    if event is FaultEvent.CRASH:
                        bank.telemetry.crashes += 1
                        bank.remove_station(station)
                        for message in registry.drop_station(station):
                            lose_to_fault(message, in_registry=False)
                    elif event is FaultEvent.RESTART:
                        bank.telemetry.restarts += 1
                        bank.restore_station(station, now)
                    elif event is FaultEvent.DEAF:
                        bank.telemetry.deaf_events += 1
                        bank.remove_station(station)
                    else:  # HEAR
                        bank.telemetry.deaf_recoveries += 1
                        bank.restore_station(station, now)

            # Decision boundary: some cohort picks its next action at this
            # instant — mirror the shared path's outer-iteration bookkeeping
            # (arrival ingest, begin_process, element-4 backlog drop).
            if bank.any_boundary(now):
                while (
                    arrival_index < len(arrivals)
                    and arrivals[arrival_index].arrival <= now
                ):
                    message = arrivals[arrival_index]
                    if injector.is_crashed(message.station):
                        # Arrivals at a down station are lost with it.
                        lose_to_fault(message, in_registry=False)
                    else:
                        registry.ingest(message)
                    if measured(message):
                        n_measured += 1
                    arrival_index += 1
                bank.begin_processes(now, registry)
                if self.policy.discard_deadline is not None:
                    horizon = now - self.policy.discard_deadline
                    for message in registry.drop_older_than(horizon):
                        message.fate = MessageFate.DISCARDED_AT_SENDER
                        if measured(message):
                            counts[MessageFate.DISCARDED_AT_SENDER] += 1

            if not bank.any_process():
                # Every replica believes there is nothing to do (or is in a
                # listen-only resync epoch): the channel idles one slot.
                channel.wait_slot()
                if fault_model.has_channel_noise:
                    bank.apply_feedback(ChannelFeedback.IDLE, now, lose_to_fault)
                continue

            transmitters = bank.collect_transmitters(now, registry)
            feedback, transmitted = channel.resolve_slot(transmitters)
            if transmitted is not None:
                # Physical delivery is truth, whatever any replica believes.
                transmitted.process_start = bank.cohort_of(
                    transmitted.station
                ).process_start
                registry.remove(transmitted)
                self._score_delivery(transmitted, counts, waits, measured)
            bank.apply_feedback(feedback, now, lose_to_fault)

        result = self._finish(
            arrivals, measured, counts, n_measured, waits, check, bank.telemetry
        )
        # Replica runs flush the end-of-run accounting only: epoch-level
        # histograms describe the shared-controller decision structure,
        # which diverged cohorts do not share.  Fault counters flush only
        # for non-null models so null-replica registries stay identical
        # to shared-path registries.
        if self.metrics is not None:
            flush_result_metrics(self.metrics, result)
            if not fault_model.is_null:
                flush_fault_metrics(self.metrics, bank.telemetry)
        return result

    def _finish(
        self, arrivals, measured, counts, n_measured, waits, check, telemetry
    ) -> MACSimResult:
        """The end of both reference loops: count the unresolved backlog,
        run the conservation guard, keep the scored messages and build
        the result (metrics are each loop's own to flush)."""
        unresolved = sum(
            1 for message in self.registry.messages_in_span(_everything())
            if measured(message)
        )
        if check:
            accounted = (
                counts[MessageFate.DELIVERED_ON_TIME]
                + counts[MessageFate.DELIVERED_LATE]
                + counts[MessageFate.DISCARDED_AT_SENDER]
                + counts[MessageFate.LOST_TO_FAULT]
                + unresolved
            )
            require(
                accounted == n_measured,
                f"message conservation violated: {n_measured} measured "
                f"arrivals but {accounted} accounted for",
            )
        # Retain per-message records (measured interval only) so callers
        # can compute custom breakdowns, e.g. per-station-class loss.
        self.scored_messages = [m for m in arrivals if measured(m)]
        return MACSimResult(
            arrivals=n_measured,
            delivered_on_time=counts[MessageFate.DELIVERED_ON_TIME],
            delivered_late=counts[MessageFate.DELIVERED_LATE],
            discarded=counts[MessageFate.DISCARDED_AT_SENDER],
            unresolved=unresolved,
            mean_true_wait=waits.mean_true,
            mean_paper_wait=waits.mean_paper,
            channel=self.channel.stats,
            deadline=self.deadline,
            lost_to_faults=counts[MessageFate.LOST_TO_FAULT],
            faults=telemetry,
        )

    def _score_delivery(self, message, counts, waits, measured) -> None:
        wait = message.wait(self.loss_definition)
        if self.deadline is not None and wait > self.deadline:
            message.fate = MessageFate.DELIVERED_LATE
        else:
            message.fate = MessageFate.DELIVERED_ON_TIME
        if measured(message):
            counts[message.fate] += 1
            waits.observe(message.true_wait, message.paper_wait)
            self.scored_waits.append(wait)


def _everything():
    """A span covering all representable time (for backlog enumeration)."""
    from ..core.timeline import Span

    return Span(((-math.inf, math.inf),))
