"""The faulted kernel: feedback-fault runs at kernel speed.

Common-mode feedback errors (a
:class:`~repro.faults.feedback.FeedbackFaultModel`) leave the network
with a *single* shared protocol state — exactly the structure
struct-of-arrays bookkeeping models — so this module executes them at
kernel speed instead of on the reference loop.

:func:`execute_epoch_faulted` runs one decision epoch with the
reference loop's controller call sequence, plus per-slot fault
application — jam bursts force COLLISION, the observation rule corrupts
the symbol the windowing process sees, dispositions (delivery, faded
frame, phantom capture dequeue) act on the struct-of-arrays backlog,
and the divergence abort stops idle descents at ``max_split_depth``
under the selected recovery policy.

:func:`run_fast_faulted` wraps it into a full run over a
struct-of-arrays backlog, with two deliberate differences from the
faulted reference loop's bookkeeping:

* **fault-aware idle fast-forward** — an idle examination slot consumes
  exactly one fault-stream uniform under misdetection noise, and only
  an erasure corrupts a truly idle span, so the kernel pre-draws an
  idle stretch's uniforms in one block
  (:meth:`~repro.faults.feedback.FeedbackFaultState.scan_idle`), jumps
  the clean prefix in closed form, and runs the first corrupted slot
  (and its split descent) through the real epoch machinery on the very
  same draw values.  Models with *event* faults (missed feedback,
  jamming) never fast-forward: their clocks are anchored to executed
  epoch tops, so every epoch runs for real in both loops;
* **no companion stranding** — messages that can never transmit again
  (same-station companions of a success span, desynced leftovers)
  simply stay in the backlog and count as unresolved at the end, which
  is observably identical and keeps the two loops' backlog bookkeeping
  in lockstep.

Bit-parity contract: for every fault family, recovery policy and
protocol (seeded RANDOM included) the result *and* the metrics registry
equal the faulted reference loop's
(:meth:`~repro.mac.simulator.WindowMACSimulator._run_shared_faulted`)
field for field — enforced by ``tests/mac/test_faulted_parity.py``.
Epoch-granularity histograms (``mac.epochs``, ``mac.backlog.size``,
``mac.window.size``) cover *executed* epochs only, exactly as on the
compiled engine: fast-forwarded idle examinations are accounted
under ``mac.fastforward.*`` instead, so those names — and only those —
legitimately differ from the reference loop when the noise-only
fast-forward fires.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from ...core.splits import examination_order
from ...core.window import ChannelFeedback
from ...faults.feedback import FeedbackFaultState
from ...resilience.invariants import invariants_enabled, require
from ..channel import ChannelStats
from ..messages import Message
from .primitives import (
    FATE_OF_CODE,
    LATE,
    LOST,
    ON_TIME,
    PENDING,
    EpochContext,
    ObsBuffers,
    WaitStats,
    kernel_traits,
    try_fast_forward,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator import MACSimResult, WindowMACSimulator

__all__ = ["execute_epoch_faulted", "execute_phantom_epoch", "run_fast_faulted"]

_IDLE = ChannelFeedback.IDLE
_SUCCESS = ChannelFeedback.SUCCESS
_COLLISION = ChannelFeedback.COLLISION

_EPS = 1e-12  # matches repro.core.timeline._EPS

#: Distinct from ``None``: ``None`` is the *empty span*; this marks "no
#: unexamined sibling yet" (the initial window, before any split).
_NO_SIBLING = object()


def _scalar_split(piece, offset):
    """Mirror ``Span.split_at_measure`` for a 0/1-piece span.

    ``piece`` is ``(lo, hi)`` or ``None`` (the empty span).  Branch
    structure, epsilon comparisons and the ``lo + offset`` cut are the
    exact walk :meth:`~repro.core.timeline.Span.split_at_measure`
    performs, so the scalar phantom descent produces bit-identical
    endpoints to the :class:`~repro.core.window.WindowingProcess` one.
    """
    if piece is None:
        if offset < -_EPS or offset > _EPS:
            raise ValueError(f"split offset {offset} outside span measure 0.0")
        return None, None
    lo, hi = piece
    width = hi - lo
    if offset < -_EPS or offset > width + _EPS:
        raise ValueError(f"split offset {offset} outside span measure {width}")
    if offset >= width - _EPS:
        return piece, None
    if offset <= _EPS:
        return None, piece
    cut = lo + offset
    return (lo, cut), (cut, hi)


def _scalar_parts(piece, arity):
    """Mirror :func:`~repro.core.splits.split_parts` on a 0/1-piece span."""
    total = 0.0 if piece is None else piece[1] - piece[0]
    parts = []
    rest = piece
    for _ in range(arity - 1):
        part, rest = _scalar_split(rest, total / arity)
        parts.append(part)
    parts.append(rest)
    return parts


def _dequeue(ctx: EpochContext, index: int) -> None:
    """Remove one message from the struct-of-arrays backlog."""
    backlog_t = ctx.backlog_t
    backlog_i = ctx.backlog_i
    position = bisect_left(backlog_t, ctx.arr_t[index])
    while backlog_i[position] != index:
        position += 1
    del backlog_t[position]
    del backlog_i[position]


def drop_station_backlog(
    ctx: EpochContext, state: FeedbackFaultState, station: int
) -> int:
    """Destroy a dropping-out station's pending backlog (fate LOST).

    Mirrors ``registry.drop_station`` + per-message loss marking on the
    reference loop.  Returns the measured-interval loss count.
    """
    lost_d = 0
    backlog_t = ctx.backlog_t
    backlog_i = ctx.backlog_i
    arr_s = ctx.arr_s
    fate = ctx.fate
    keep_t: List[float] = []
    keep_i: List[int] = []
    for t, index in zip(backlog_t, backlog_i):
        if arr_s[index] == station:
            fate[index] = LOST
            state.telemetry.dropped_messages += 1
            if t >= ctx.warmup_slots:
                lost_d += 1
        else:
            keep_t.append(t)
            keep_i.append(index)
    if lost_d or len(keep_t) != len(backlog_t):
        backlog_t[:] = keep_t
        backlog_i[:] = keep_i
    return lost_d


def execute_epoch_faulted(ctx: EpochContext, state: FeedbackFaultState, now: float):
    """One fault-injected decision epoch.

    The reference epoch's controller call sequence with fault
    application at every examination slot.  Returns ``(now, idle,
    collision, transmission, wait, on_time, late, discarded, lost)``:
    the advanced clock plus this epoch's deltas.
    """
    controller = ctx.controller
    backlog_t = ctx.backlog_t
    backlog_i = ctx.backlog_i
    arr_t = ctx.arr_t
    arr_s = ctx.arr_s
    warmup_slots = ctx.warmup_slots
    fate = ctx.fate
    discard_deadline = ctx.discard_deadline
    model = state.model
    telemetry = state.telemetry
    desynced = state.desynced

    idle_d = 0.0
    collision_d = 0.0
    transmission_d = 0.0
    wait_d = 0.0
    on_time_d = 0
    late_d = 0
    discarded_d = 0
    lost_d = 0

    process = controller.begin_process(now)
    if discard_deadline is not None:
        horizon = now - discard_deadline
        cut = bisect_left(backlog_t, horizon)
        if cut:
            for index in backlog_i[:cut]:
                fate[index] = 3  # DISCARDED
                if arr_t[index] >= warmup_slots:
                    discarded_d += 1
            del backlog_t[:cut]
            del backlog_i[:cut]

    if process is None:
        return (now + 1.0, 0.0, 0.0, 0.0, 1.0, 0, 0, discarded_d, 0)

    process_start = now
    if ctx.obs is not None:
        ctx.obs.window_sizes.append(process.current_span.measure)
    # Per-process arrival bins, as in the clean executor.  Entries can
    # die mid-process here (phantom capture, drop-out), so every slot
    # filters the snapshot by fate and desync status.
    snap_t: List[float] = []
    snap_s: List[int] = []
    snap_i: List[int] = []
    for lo, hi in process.current_span.pieces:
        left = bisect_left(backlog_t, lo)
        right = bisect_right(backlog_t, hi)
        for k in range(left, right):
            snap_t.append(backlog_t[k])
            index = backlog_i[k]
            snap_s.append(arr_s[index])
            snap_i.append(index)

    m_slots = ctx.m_slots
    aborted = False
    while not process.done:
        # Fault events due this slot: jam starts, misses, drop-outs.
        for station in state.poll(now):
            lost_d += drop_station_backlog(ctx, state, station)
        span = process.current_span
        # Participants: alive, non-desynced snapshot entries in the span.
        first = -1
        first_station = -1
        collided = False
        for lo, hi in span.pieces:
            left = bisect_left(snap_t, lo)
            right = bisect_right(snap_t, hi)
            for k in range(left, right):
                if fate[snap_i[k]] != PENDING:
                    continue
                s = snap_s[k]
                if desynced and s in desynced:
                    continue
                if first < 0:
                    first = k
                    first_station = s
                elif s != first_station:
                    collided = True
                    break
            if collided:
                break
        if now < state.jam_until:
            # Adversarial burst: the channel reads COLLISION whatever
            # happened; any frame transmitted into it is destroyed
            # (stations abort after one slot, as on a real collision).
            true_symbol = _COLLISION
            duration = 1.0
            collision_d += 1.0
            telemetry.jam_slots += 1
        elif first < 0:
            true_symbol = _IDLE
            duration = 1.0
            idle_d += 1.0
        elif collided:
            true_symbol = _COLLISION
            duration = 1.0
            collision_d += 1.0
        else:
            true_symbol = _SUCCESS
            duration = float(m_slots)
            transmission_d += m_slots
        observed = state.observe(true_symbol)

        # Dispositions: physical truth decides delivery; the observed
        # symbol decides what the protocol state (and the sender) does.
        if true_symbol is _SUCCESS:
            index = snap_i[first]
            if observed is _SUCCESS:
                _dequeue(ctx, index)
                ctx.tx_start[index] = now
                ctx.process_start_of[index] = process_start
                arrival = arr_t[index]
                true_value = now - arrival
                paper_value = max(0.0, process_start - arrival)
                wait = true_value if ctx.true_definition else paper_value
                late = (
                    ctx.score_deadline is not None and wait > ctx.score_deadline
                )
                fate[index] = LATE if late else ON_TIME
                if arrival >= warmup_slots:
                    if late:
                        late_d += 1
                    else:
                        on_time_d += 1
                    ctx.waits.observe(true_value, paper_value)
            elif observed is _IDLE:
                # Faded frame: the transmission happened but nobody —
                # receiver included — decoded it, and the span resolves
                # idle, so the message can never be rescheduled.
                _dequeue(ctx, index)
                fate[index] = LOST
                telemetry.faded_frames += 1
                if arr_t[index] >= warmup_slots:
                    lost_d += 1
            # observed COLLISION (erasure): the frame is retransmitted
            # when the split descent isolates it again — stays pending.
        elif true_symbol is _COLLISION and observed is _SUCCESS:
            # Capture: every participating station believes its frame
            # got through and dequeues its oldest in-span message.
            captured: Dict[int, int] = {}
            for lo, hi in span.pieces:
                left = bisect_left(snap_t, lo)
                right = bisect_right(snap_t, hi)
                for k in range(left, right):
                    index = snap_i[k]
                    if fate[index] != PENDING:
                        continue
                    s = snap_s[k]
                    if desynced and s in desynced:
                        continue
                    if s not in captured:
                        captured[s] = index
            for index in captured.values():
                _dequeue(ctx, index)
                fate[index] = LOST
                telemetry.phantom_deliveries += 1
                if arr_t[index] >= warmup_slots:
                    lost_d += 1

        now += duration
        process.on_feedback(observed)
        if not process.done and process.depth > model.max_split_depth:
            # Divergence abort: a split descent this deep cannot happen
            # under fault-free feedback (see FeedbackFaultModel notes).
            telemetry.divergence_detections += 1
            telemetry.diverged_slots += process.slots_spent
            telemetry.resyncs += 1
            if model.recovery == "drop-out":
                # Every station entangled in the diverged process gives
                # up its in-window backlog.
                for k in range(len(snap_i)):
                    index = snap_i[k]
                    if fate[index] != PENDING:
                        continue
                    _dequeue(ctx, index)
                    fate[index] = LOST
                    telemetry.dropped_messages += 1
                    if arr_t[index] >= warmup_slots:
                        lost_d += 1
            elif model.recovery == "gated-rejoin":
                # The network listens before re-engaging.
                now += model.rejoin_listen_slots
                wait_d += model.rejoin_listen_slots
            # Fold the resolved pieces back (the done-check in
            # complete_process forbids calling it on an aborted
            # process); the unexamined remainder stays unresolved.
            for resolved in process.resolved_spans:
                controller.unresolved.subtract_span(resolved)
            aborted = True
            break
    if not aborted:
        controller.complete_process(process)

    return (
        now,
        idle_d,
        collision_d,
        transmission_d,
        wait_d,
        on_time_d,
        late_d,
        discarded_d,
        lost_d,
    )


def execute_phantom_epoch(ctx: EpochContext, state: FeedbackFaultState, now: float):
    """A faulted decision epoch on an **empty backlog**, noise-only model.

    Precondition: no pending messages and ``model.has_events`` is false.
    Every examination is then truly IDLE — no participants, no jam
    window, no event clocks — so the epoch is driven entirely by the
    per-slot misdetection draws: a clean draw resolves the examined
    span, an erasure observes a phantom COLLISION and sends the state
    machine into a split descent that (with binary splits) can only end
    at the divergence-abort depth.  :func:`execute_epoch_faulted` walks
    that descent through :class:`~repro.core.window.WindowingProcess`
    span arithmetic; this executor replays the identical state machine
    on scalar ``(lo, hi)`` endpoints (via :func:`_scalar_split`, the
    exact ``split_at_measure`` walk) and the same
    :meth:`~repro.faults.feedback.FeedbackFaultState.observe` draws, so
    results, telemetry and unresolved-set mutations are bit-identical —
    at a fraction of the cost.  Multi-piece initial windows (fragmented
    unresolved time under uncontrolled policies) drive the real process
    object instead, skipping only the participant scan that an empty
    snapshot makes vacuous.

    Same return contract as :func:`execute_epoch_faulted`.
    """
    controller = ctx.controller
    model = state.model
    telemetry = state.telemetry

    process = controller.begin_process(now)
    if process is None:
        return (now + 1.0, 0.0, 0.0, 0.0, 1.0, 0, 0, 0, 0)

    if ctx.obs is not None:
        ctx.obs.window_sizes.append(process.current_span.measure)

    idle_d = 0.0
    wait_d = 0.0
    unresolved = controller.unresolved
    max_depth = model.max_split_depth
    gated = model.recovery == "gated-rejoin"

    if len(process.current_span.pieces) == 1 and process.arity == 2:
        # Scalar replay of the windowing state machine, binary splits
        # (the paper's rule): after the first split there is always
        # exactly one unexamined sibling, so the level bookkeeping is a
        # single variable, and the misdetection draw is inlined from
        # ``FeedbackFaultState.observe`` (true IDLE: only the erasure
        # threshold applies) with the same stash discipline.
        split_rule = process.split
        rng = process._rng
        noise = state._noise
        p_erasure = state._p_erasure
        rng_random = state.rng.random
        current = process.current_span.pieces[0]
        sibling = _NO_SIBLING
        depth = 0
        slots = 0
        resolved: List = []
        while True:
            idle_d += 1.0
            now += 1.0
            slots += 1
            erased = False
            if noise:
                stash = state._stash
                if stash is None:
                    u = rng_random()
                else:
                    pos = state._stash_pos
                    u = stash[pos]
                    pos += 1
                    if pos >= len(stash):
                        state._stash = None
                    else:
                        state._stash_pos = pos
                if u < p_erasure:
                    erased = True
                    telemetry.corrupted_observations += 1
            if not erased:
                if current is not None:
                    resolved.append(current)
                if sibling is _NO_SIBLING:
                    # Initial window examined idle: the process is done.
                    for lo, hi in resolved:
                        unresolved.subtract(lo, hi)
                    return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)
                piece = sibling  # all earlier siblings idle: split (§2)
            else:
                piece = current  # phantom COLLISION: recurse, abandon
            depth += 1
            if piece is None:
                p0 = p1 = None
            else:
                lo, hi = piece
                width = hi - lo
                offset = width / 2
                if offset >= width - _EPS:
                    p0, p1 = piece, None
                elif offset <= _EPS:
                    p0, p1 = None, piece
                else:
                    cut = lo + offset
                    p0, p1 = (lo, cut), (cut, hi)
            if split_rule == "older":
                current, sibling = p0, p1
            elif split_rule == "newer":
                current, sibling = p1, p0
            elif examination_order("random", 2, rng)[0] == 0:
                current, sibling = p0, p1
            else:
                current, sibling = p1, p0
            if depth > max_depth:
                telemetry.divergence_detections += 1
                telemetry.diverged_slots += slots
                telemetry.resyncs += 1
                if gated:
                    now += model.rejoin_listen_slots
                    wait_d += model.rejoin_listen_slots
                for lo, hi in resolved:
                    unresolved.subtract(lo, hi)
                return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)

    if len(process.current_span.pieces) == 1:
        # General-arity scalar replay.
        arity = process.arity
        split_rule = process.split
        rng = process._rng
        current = process.current_span.pieces[0]
        siblings = None
        depth = 0
        slots = 0
        resolved = []
        while True:
            idle_d += 1.0
            observed = state.observe(_IDLE)
            now += 1.0
            slots += 1
            if observed is _IDLE:
                resolved.append(current)
                if siblings is None:
                    # Initial window examined idle: the process is done.
                    for piece in resolved:
                        if piece is not None:
                            unresolved.subtract(piece[0], piece[1])
                    return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)
                if len(siblings) == 1:
                    # All earlier siblings idle: split the last (§2).
                    depth += 1
                    parts = _scalar_parts(siblings[0], arity)
                    order = examination_order(split_rule, len(parts), rng)
                    current = parts[order[0]]
                    siblings = [parts[i] for i in order[1:]]
                else:
                    current = siblings[0]
                    siblings = siblings[1:]
            else:
                # Phantom COLLISION: recurse, abandoning any siblings.
                depth += 1
                parts = _scalar_parts(current, arity)
                order = examination_order(split_rule, len(parts), rng)
                current = parts[order[0]]
                siblings = [parts[i] for i in order[1:]]
            if depth > max_depth:
                telemetry.divergence_detections += 1
                telemetry.diverged_slots += slots
                telemetry.resyncs += 1
                if gated:
                    now += model.rejoin_listen_slots
                    wait_d += model.rejoin_listen_slots
                for piece in resolved:
                    if piece is not None:
                        unresolved.subtract(piece[0], piece[1])
                return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)

    # Fragmented window: drive the real state machine (rare and cheap —
    # the expensive participant/jam/event work is vacuous here).
    while not process.done:
        idle_d += 1.0
        observed = state.observe(_IDLE)
        now += 1.0
        process.on_feedback(observed)
        if not process.done and process.depth > max_depth:
            telemetry.divergence_detections += 1
            telemetry.diverged_slots += process.slots_spent
            telemetry.resyncs += 1
            if gated:
                now += model.rejoin_listen_slots
                wait_d += model.rejoin_listen_slots
            for span in process.resolved_spans:
                unresolved.subtract_span(span)
            return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)
    controller.complete_process(process)
    return (now, idle_d, 0.0, 0.0, wait_d, 0, 0, 0, 0)


def run_fast_faulted(
    sim: "WindowMACSimulator", total_time: float, warmup_slots: float
) -> "MACSimResult":
    """Run the faulted kernel.

    Same contract as ``_run_shared_faulted`` (the faulted reference
    loop), bit for bit — results, telemetry and metrics registry.
    """
    from ..simulator import (  # deferred: import cycle
        MACSimResult,
        flush_fault_metrics,
        flush_result_metrics,
    )

    policy = sim.policy
    controller = sim.controller
    rng = sim.rng
    m_slots = sim.transmission_slots
    discard_deadline = policy.discard_deadline
    score_deadline = sim.deadline
    true_definition = sim.loss_definition == "true"
    model = sim.feedback_faults
    state = FeedbackFaultState(model, sim.registry.n_stations, sim._fault_rng)
    telemetry = state.telemetry
    traits = kernel_traits(policy)
    # Idle fast-forward and the scalar phantom executor are only sound
    # for noise-only models: event clocks (misses, jam bursts) interact
    # with executed epoch tops — a skipped epoch would shift rejoin
    # instants and jam telemetry.
    phantom_ok = not model.has_events
    can_scan = phantom_ok and traits.entry_discard_ok

    # -- arrival generation: identical draws to _generate_arrivals ----------
    arrival_rng = sim._arrival_rng
    if sim.workload is not None:
        gen_times, gen_stations = sim.workload.generate(
            total_time, sim.registry.n_stations, arrival_rng
        )
    else:
        n = arrival_rng.poisson(sim.arrival_rate * total_time)
        gen_times = np.sort(arrival_rng.uniform(0.0, total_time, size=n))
        gen_stations = arrival_rng.integers(0, sim.registry.n_stations, size=n)
    arr_t: List[float] = [float(t) for t in gen_times]
    arr_s: List[int] = [int(s) for s in gen_stations]
    n_arrivals = len(arr_t)
    fate = np.zeros(n_arrivals, dtype=np.int8)
    tx_start = np.full(n_arrivals, np.nan)
    process_start_of = np.full(n_arrivals, np.nan)

    # -- state ---------------------------------------------------------------
    now = 0.0
    idle_slots = 0.0
    collision_slots = 0.0
    transmission_slots = 0.0
    wait_slots = 0.0

    backlog_t: List[float] = []
    backlog_i: List[int] = []
    next_arrival = 0

    n_measured = 0
    delivered_on_time = 0
    delivered_late = 0
    discarded = 0
    lost = 0
    waits = WaitStats()

    check = invariants_enabled()
    last_now = -math.inf
    obs = sim.metrics
    ob = ObsBuffers() if obs is not None else None

    ctx = EpochContext(
        controller,
        m_slots,
        discard_deadline,
        score_deadline,
        true_definition,
        warmup_slots,
        arr_t,
        arr_s,
        backlog_t,
        backlog_i,
        fate,
        tx_start,
        process_start_of,
        waits,
        ob,
    )

    while now < total_time:
        if check:
            require(now > last_now, f"faulted-path clock stalled at slot {now}")
            last_now = now
        while next_arrival < n_arrivals and arr_t[next_arrival] <= now:
            backlog_t.append(arr_t[next_arrival])
            backlog_i.append(next_arrival)
            if arr_t[next_arrival] >= warmup_slots:
                n_measured += 1
            next_arrival += 1

        # -- idle-period fast-forward (noise-only models) -------------------
        if can_scan and not backlog_t:
            upcoming = (
                arr_t[next_arrival] if next_arrival < n_arrivals else math.inf
            )
            skipped = try_fast_forward(
                controller, policy, traits, now, upcoming, total_time, check,
                scan=state.scan_idle,
            )
            if skipped:
                # A scan capped below the stretch length means the next
                # idle examination reads a corrupted symbol; the re-entry
                # scan returns 0 there and the real epoch consumes the
                # stashed draw.
                idle_slots += skipped
                now += skipped
                if ob is not None:
                    ob.ff_skips.append(skipped)
                continue

        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(len(backlog_t))

        if phantom_ok and not backlog_t:
            # Empty backlog, noise-only model: poll/rejoin are vacuous
            # and every slot is truly idle — take the scalar executor.
            (
                now,
                idle_d,
                collision_d,
                transmission_d,
                wait_d,
                on_time_d,
                late_d,
                discarded_d,
                lost_d,
            ) = execute_phantom_epoch(ctx, state, now)
        else:
            # Epoch-top fault bookkeeping: events due by now, then
            # rejoins (stations only ever rejoin at a decision boundary).
            for station in state.poll(now):
                lost += drop_station_backlog(ctx, state, station)
            state.rejoin(now)

            (
                now,
                idle_d,
                collision_d,
                transmission_d,
                wait_d,
                on_time_d,
                late_d,
                discarded_d,
                lost_d,
            ) = execute_epoch_faulted(ctx, state, now)
        idle_slots += idle_d
        collision_slots += collision_d
        transmission_slots += transmission_d
        wait_slots += wait_d
        delivered_on_time += on_time_d
        delivered_late += late_d
        discarded += discarded_d
        lost += lost_d

    unresolved_count = sum(
        1 for index in backlog_i if arr_t[index] >= warmup_slots
    )
    if check:
        accounted = (
            delivered_on_time
            + delivered_late
            + discarded
            + lost
            + unresolved_count
        )
        require(
            accounted == n_measured,
            f"message conservation violated (faulted kernel): "
            f"{n_measured} measured arrivals but {accounted} accounted for",
        )

    scored: List[Message] = []
    for index in range(n_arrivals):
        arrival = arr_t[index]
        if arrival < warmup_slots:
            continue
        message = Message(arrival=arrival, station=arr_s[index], uid=index)
        message.fate = FATE_OF_CODE[int(fate[index])]
        if not math.isnan(tx_start[index]):
            message.tx_start = float(tx_start[index])
            message.process_start = float(process_start_of[index])
        scored.append(message)
    sim.scored_messages = scored

    stats = ChannelStats(
        idle_slots=idle_slots,
        collision_slots=collision_slots,
        transmission_slots=transmission_slots,
        wait_slots=wait_slots,
    )
    sim.channel.now = now
    sim.channel.stats = stats
    result = MACSimResult(
        arrivals=n_measured,
        delivered_on_time=delivered_on_time,
        delivered_late=delivered_late,
        discarded=discarded,
        unresolved=unresolved_count,
        mean_true_wait=waits.mean_true,
        mean_paper_wait=waits.mean_paper,
        channel=stats,
        deadline=score_deadline,
        lost_to_faults=lost,
        faults=telemetry,
    )
    if obs is not None:
        ob.flush(obs)
        flush_result_metrics(obs, result)
        flush_fault_metrics(obs, telemetry)
    return result
