"""The flat struct-of-arrays engine behind the compiled backend.

:class:`FlatLane` is one simulator run reduced to struct-of-arrays form
and advanced in fused rounds.  It has two modes:

**VEC** — the unresolved pseudo-time set is *empty*, so the controller
state is one scalar (the frontier F).  Everything the reference loop
would do from that state has a closed form that consumes **zero RNG
draws**: the idle fast-forward jump, and a decision epoch whose initial
window covers the whole unresolved span ``[max(F, now−K), now)`` — the
window then admits the in-window backlog verbatim (no placement slack,
so even RANDOM draws nothing), and a 0- or 1-message backlog resolves in
a single idle or success examination.  At the paper's operating points
runs of isolated arrivals are drained by the steady-state *sprint* over
tables precomputed on the arrival axis (:meth:`FlatLane._prepare_sprint`).

**GEN** — any other situation (≥2 in-window messages, a window shorter
than the span, an exotic length rule).  One decision epoch — controller
bookkeeping, window selection, the splitting state machine, scoring —
runs as straight-line Python, in one of two forms chosen once per lane:

* **One interval** (:meth:`FlatLane._one_epoch`), on a clean lane whose
  policy has Theorem 1's elements 1 and 3: the oldest-first position and
  the ``"older"`` split order.  The initial window then starts at the
  oldest unresolved instant, and a collision examines its oldest part
  first; an idle part is resolved and the next part starts where it
  ended, so every examined span starts at the oldest unresolved instant
  and resolving it leaves one interval.  The unresolved set is therefore
  always one interval ``[oldest, fr)`` up to the frontier, or empty: the
  scalar pseudo-time backlog of §3 and Appendix A.  The lane holds it as
  one float (``oldest``, ``None`` when empty), every set operation is a
  scalar branch, each collision is cut by
  :func:`repro.core.splits.split_interval`, and each examination bisects
  the backlog directly (a clean lane's backlog does not change during a
  process).  The argument holds for the float arithmetic too, up to
  rounding at the ``1e-12`` edges; where the list helpers would leave a
  set other than ``[oldest, fr)``, the epoch raises
  :class:`~repro.resilience.invariants.InvariantViolation`, armed or not,
  rather than diverge from the reference loop.
* **Interval lists** (:meth:`FlatLane._gen_epoch`), on every other lane
  (newest-first and random placement, the newer and random split orders,
  feedback faults): the unresolved set lives in two parallel
  ``list[float]`` columns (``u_lo``/``u_hi``) plus the frontier scalar,
  and each examination reads a per-process snapshot of the window's
  messages.

When the set empties again the lane snaps back to VEC.

**Feedback faults** (a :class:`~repro.faults.feedback.FeedbackFaultModel`
keeps one shared protocol state, so they are branches of the same
machine): a faulted lane runs every epoch in GEN mode, applying the
shared reference loop's fault hook at the epoch top and at each
examination slot, and caps its idle fast-forward at the first
corrupting fault draw (see :class:`FlatLane`).

**Bit parity.**  Every closed form replicates the reference loop's float
arithmetic operation for operation (clamp = ``max``, measure = one
subtraction, the same Welford mean update per event), and every column
helper here is a literal transcription of the corresponding
:mod:`repro.core.timeline` method — same epsilon (``1e-12``), same
bisect bounds, same branch structure, same sequential measure folds.
The one-interval operations are those helpers' branches on a
one-interval set.  The split rules are not transcribed here: a
collision calls the canonical :func:`repro.core.splits.split_parts` (in
its flat form, on the raw pieces) or, on a one-interval lane, its
one-interval coding :func:`repro.core.splits.split_interval`, and
``examination_order``.  Two deliberate deviations that provably cannot
change results:

* resolved sub-spans are subtracted from the unresolved columns *as the
  process resolves them* rather than batched in
  ``complete_process`` — the same subtract calls in the same order on a
  set nothing reads in between;
* ``advance_time``'s backwards-clock guard is dropped — the lane clock
  is strictly monotone by construction (``REPRO_CHECK_INVARIANTS``
  re-checks it once per round).

**RNG.**  The lane draws from the simulator's own generator at the same
two sites as the reference loop: the
:class:`~repro.core.policy.RandomPosition` placement draw (only when the
slack is positive) and the random split shuffle inside
``examination_order``.  All other paths are draw-free.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from ...core.splits import examination_order, split_interval, split_parts
from ...core.timeline import split_pieces
from ...core.window import _MAX_SPLIT_DEPTH, ChannelFeedback
from ...faults.feedback import FeedbackFaultState
from ...obs.metrics import MetricsRegistry
from ...resilience.invariants import InvariantViolation, require
from ..channel import ChannelStats
from ..simulator import (
    MACSimResult,
    count_late,
    flush_fault_metrics,
    flush_result_metrics,
)
from .primitives import ObsBuffers, kernel_traits

__all__ = ["FlatLane"]

_EPS = 1e-12

_IDLE = ChannelFeedback.IDLE
_SUCCESS = ChannelFeedback.SUCCESS
_COLLISION = ChannelFeedback.COLLISION

_SPLIT_DEPTH_MESSAGE = (
    "window splitting exceeded the maximum depth; two arrivals "
    "are indistinguishable at double precision"
)


def _breach(now: float) -> None:
    """A one-interval lane reached a branch where the list helpers would
    leave an unresolved set that is not ``[oldest, fr)``."""
    raise InvariantViolation(
        f"unresolved backlog is no longer one interval ending at the "
        f"frontier at slot {now}"
    )


def _iv_add(lows: List[float], highs: List[float], lo: float, hi: float) -> None:
    """``IntervalSet.add`` on parallel columns (verbatim arithmetic)."""
    if hi <= lo + _EPS:
        return
    i = bisect_left(highs, lo)
    j = bisect_right(lows, hi)
    if i < j:
        lo = min(lo, lows[i])
        hi = max(hi, highs[j - 1])
    lows[i:j] = [lo]
    highs[i:j] = [hi]


def _iv_subtract(lows: List[float], highs: List[float], lo: float, hi: float) -> None:
    """``IntervalSet.subtract`` on parallel columns (verbatim arithmetic)."""
    if hi <= lo + _EPS:
        return
    i = bisect_right(highs, lo + _EPS)
    j = bisect_left(lows, hi - _EPS)
    if i >= j:
        # Check the single interval possibly containing [lo, hi].
        if i < len(lows) and lows[i] < lo and hi < highs[i]:
            # Split one interval in two.
            old_hi = highs[i]
            highs[i] = lo
            lows.insert(i + 1, hi)
            highs.insert(i + 1, old_hi)
        return
    new_lows: List[float] = []
    new_highs: List[float] = []
    if lows[i] < lo - _EPS:
        new_lows.append(lows[i])
        new_highs.append(lo)
    if highs[j - 1] > hi + _EPS:
        new_lows.append(hi)
        new_highs.append(highs[j - 1])
    lows[i:j] = new_lows
    highs[i:j] = new_highs


def _iv_clamp_before(lows: List[float], highs: List[float], t: float) -> None:
    """``IntervalSet.clamp_before`` on parallel columns.

    The removed-measure return value feeds only the
    :class:`~repro.core.controller.DiscardReport` nobody on this path
    reads, so it is not computed.
    """
    while lows and highs[0] <= t + _EPS:
        del lows[0]
        del highs[0]
    if lows and lows[0] < t:
        lows[0] = t


def sprint_walk(
    arrl, cl, tl, iso, p, n, prev_now, last_fr, warmup, record, m,
    kf, tot, wc, wt, wp,
):
    """The uninstrumented mask walk, one epoch per event.

    ``record`` appends each measured delivery's wait to the lane's
    scored-wait record.

    Two event shapes run inline; anything else exits to the rounds:

    * an *isolated* arrival (``iso[p]``): jump to its landing slot,
      deliver on one slot — the precomputed tables' case.  The static
      ready-before premise is replaced by the dynamic ``u > prev_now``
      so the walk stays valid after busy events (``prev_now`` remains
      integer-valued, so the ceil decoupling argument of
      :meth:`FlatLane._prepare_sprint` is unchanged).
    * a *busy* arrival (``u <= prev_now``: it landed during the
      predecessor's transmission and is due the instant the lane is
      ready): the inlined single-success epoch, exactly
      :meth:`FlatLane.advance_round`'s ``succ_epoch`` path.  Its window
      preconditions are static under the sprint gate — the span is
      ``prev_now − last_fr = m`` clamped to ``min(m, K)``, the measure
      the gate already proved coverable — leaving only the dynamic
      checks: it is the *only* due arrival, the horizon is not reached,
      and the message is inside the clamped window (``u >= lo``, which
      also makes the element-4 cut a no-op).
    """
    nm = 0
    idle_acc = 0.0
    tx_acc = 0.0
    while p < n:
        u = arrl[p]
        if u > prev_now:
            if not iso[p]:
                break
            c = cl[p]
            idle_acc += c - prev_now
            tv = tl[p]
            if u >= warmup:
                wc += 1
                d = tv - wt
                wt += d / wc
                d = tv - wp
                wp += d / wc
                record(tv)
                nm += 1
            tx_acc += m
            last_fr = c
            prev_now = c + m
            p += 1
        else:
            if p + 1 < n and arrl[p + 1] <= prev_now:
                break  # >= 2 due arrivals: the general epoch
            if prev_now >= tot:
                break  # the horizon check belongs to the rounds
            pk = prev_now - kf
            lo = last_fr if last_fr >= pk else pk
            if u < lo:
                break  # outside the clamped window: discard path
            tv = prev_now - u
            if u >= warmup:
                wc += 1
                d = tv - wt
                wt += d / wc
                d = tv - wp
                wp += d / wc
                record(tv)
                nm += 1
            tx_acc += m
            last_fr = prev_now
            prev_now = prev_now + m
            p += 1
    return p, prev_now, last_fr, idle_acc, tx_acc, wc, wt, wp, nm


class FlatLane:
    """One run: its arm scalars, backlog, RNG, and the per-round hot
    state the round loop reads (plain Python floats/ints — at these
    widths a scalar attribute update is far cheaper than a NumPy per-op
    dispatch).

    ``pos_code`` is derived from the policy's position rule: 0 for
    oldest-first, 1 for newest-first, 2 for random placement.  The
    eligibility gate (:func:`repro.mac.kernels.compiled.compiled_eligible`)
    guarantees the rule is one of the three canonical classes before a
    ``FlatLane`` is built.  ``registry`` (when given) receives the run's
    metrics at :meth:`finalize`.

    The lane never reads a scoring deadline: each measured delivery
    appends the wait it is scored on to ``scored``, and
    :meth:`finalize` counts the late ones against the deadline it is
    given, by the rule :func:`~repro.mac.simulator.rescore` applies to
    any other K.

    ``faults`` is the run's feedback fault hook (a
    :class:`~repro.faults.feedback.FeedbackFaultState`, ``None`` on clean
    runs).  A faulted lane never enters VEC mode — the closed forms and
    the sprint draw no fault uniforms — so every epoch is a GEN epoch
    with the fault branches of :meth:`_gen_epoch`, and the flat idle
    fast-forward is capped by
    :meth:`~repro.faults.feedback.FeedbackFaultState.scan_idle` on
    noise-only models (event models never fast-forward: their clocks
    are anchored to executed epochs).

    ``one_interval`` is chosen here, from the policy and the fault hook:
    a clean lane with the oldest-first position and the ``"older"``
    split order keeps its unresolved set as the one interval ``[oldest,
    fr)`` and runs :meth:`_one_epoch`; every other lane keeps the
    ``u_lo``/``u_hi`` columns and runs :meth:`_gen_epoch`.

    ``check`` arms the ``REPRO_CHECK_INVARIANTS`` guards: a monotone
    clock once per round, a non-negative unresolved measure at every
    GEN epoch and flat fast-forward, and message conservation at
    :meth:`finalize`.
    """

    __slots__ = (
        "policy",
        "traits",
        "rng",
        "m_slots",
        "m_f",
        "discard_deadline",
        "k_f",
        "true_definition",
        "warmup",
        "arr_t",
        "arr_s",
        "n_arrivals",
        "total_time",
        "ceil_t",
        "true_t",
        "iso",
        "backlog_t",
        "backlog_i",
        "stuck_i",
        "ob",
        "registry",
        "faults",
        "events",
        "check",
        "last_now",
        # hot per-round state
        "now",
        "frontier",
        "idle",
        "coll",
        "tx",
        "wait",
        "upcoming",
        "const",
        "covers",
        "steady",
        "entry_ok",
        "vec",
        "wcount",
        "wtrue",
        "wpaper",
        "scored",
        "disc",
        "lost",
        "n_meas",
        "ptr",
        # flat controller state (GEN mode)
        "u_lo",
        "u_hi",
        "oldest",
        "one_interval",
        "fr",
        "vec_ok",
        "pos_code",
    )

    def __init__(
        self,
        policy,
        rng: np.random.Generator,
        m_slots: int,
        loss_definition: str,
        warmup: float,
        total_time: float,
        arr_t: List[float],
        arr_s: List[int],
        registry: Optional[MetricsRegistry] = None,
        pos_code: int = 0,
        faults: Optional[FeedbackFaultState] = None,
        check: bool = False,
    ):
        self.policy = policy
        traits = kernel_traits(policy)
        self.traits = traits
        # The generator that produced the arrival draws keeps driving
        # the policy draws, in the same order as the reference loop.
        self.rng = rng
        self.m_slots = m_slots
        self.m_f = float(m_slots)
        self.discard_deadline = policy.discard_deadline
        self.k_f = (
            float(policy.discard_deadline)
            if policy.discard_deadline is not None
            else math.inf
        )
        self.true_definition = loss_definition == "true"
        self.warmup = float(warmup)

        self.arr_t = arr_t
        self.arr_s = arr_s
        self.n_arrivals = len(arr_t)
        self.total_time = float(total_time)
        self.backlog_t: List[float] = []
        self.backlog_i: List[int] = []
        self.stuck_i: List[int] = []
        self.faults = faults
        self.events = faults is not None and faults.model.has_events
        self.check = check
        self.last_now = -math.inf
        # Lanes whose length rule has no closed form, and faulted lanes,
        # run GEN epochs from slot zero (the flat controller state starts
        # at (∅, 0)).
        self.vec_ok = traits.closed_form and faults is None
        self._prepare_sprint(self.total_time, traits)

        self.registry = registry
        self.ob = ObsBuffers() if registry is not None else None

        # Seed the hot state.
        self.now = 0.0
        self.frontier = 0.0
        self.idle = 0.0
        self.coll = 0.0
        self.tx = 0.0
        self.wait = 0.0
        self.upcoming = self.arr_t[0] if self.arr_t else math.inf
        self.const = traits.const_length
        self.covers = traits.covers_backlog
        self.steady = traits.steady_skippable
        self.entry_ok = traits.entry_discard_ok and not self.events
        self.vec = self.vec_ok
        self.wcount = 0
        self.wtrue = 0.0
        self.wpaper = 0.0
        self.scored: List[float] = []
        self.disc = 0
        self.lost = 0
        self.n_meas = 0
        self.ptr = 0

        self.u_lo: List[float] = []
        self.u_hi: List[float] = []
        self.oldest: Optional[float] = None
        self.one_interval = (
            pos_code == 0 and policy.split == "older" and faults is None
        )
        self.fr = 0.0
        self.pos_code = pos_code

    def _observe(self, true_value: float, paper_value: float) -> None:
        """One Welford update of both wait means (the
        :class:`~repro.mac.kernels.primitives.WaitStats` arithmetic)."""
        count = self.wcount + 1
        self.wcount = count
        delta = true_value - self.wtrue
        self.wtrue += delta / count
        delta = paper_value - self.wpaper
        self.wpaper += delta / count

    # -- steady-state sprint -------------------------------------------------

    def _prepare_sprint(self, total_time: float, traits) -> None:
        """Precompute the arrival-axis tables the sprint loop walks.

        In the happy steady state every event is *jump to the next
        arrival, deliver it on one slot*.  With an integer transmission
        length the clock only ever advances by integers, and for an
        integer-valued float ``prev`` with ``0 <= prev <= u`` the
        subtraction ``u - prev`` is exact (the difference's bits span at
        most 53 positions), so the kernel's ``prev + ceil(u - prev)``
        equals ``ceil(u)`` *bitwise* — the jump recurrence decouples and
        every landing instant, wait value, and isolation predicate can
        be precomputed on the arrival axis in one NumPy pass.  Arrival
        ``p`` is *isolated* when the lane was ready before it
        (``u_p > ceil(u_{p-1}) + m``), it is alone in its landing slot
        (``u_{p+1} > ceil(u_p)``), and the landing is inside the
        horizon.  The window checks reduce to per-lane constants: the
        pre-jump span is ``min(m, K)`` and the landing span exactly
        ``1.0`` (the clamp ``max(c-1, c-K)`` returns the representable
        bound ``c-1`` for any ``K >= 1``), so coverability folds into
        the one-time gate below.  Lanes with fractional transmission
        lengths or awkward sub-``m`` fractional deadlines simply skip
        the sprint and stay on the phased rounds.
        """
        m_f = float(self.m_slots)
        kk = self.discard_deadline
        axis = (
            self.vec_ok
            and traits.steady_skippable
            and traits.entry_discard_ok
            and self.n_arrivals > 0
            and m_f.is_integer()
            and (
                kk is None
                or kk >= m_f
                or (kk >= 1.0 and float(kk).is_integer())
            )
        )
        if axis:
            meas_jump = m_f if (kk is None or kk >= m_f) else float(kk)
            covers = traits.covers_backlog
            const = traits.const_length
            axis = (covers or (const is not None and const >= meas_jump)) and (
                covers or (const is not None and const >= 1.0)
            )
        if not axis:
            self.ceil_t = None
            self.true_t = None
            self.iso = None
            return
        arr = np.asarray(self.arr_t, dtype=np.float64)
        c = np.ceil(arr)
        self.ceil_t = c.tolist()
        self.true_t = (c - arr).tolist()
        n = self.n_arrivals
        iso = np.empty(n, dtype=bool)
        iso[0] = False  # the run's first event is validated dynamically
        if n > 1:
            iso[1:] = arr[1:] > c[:-1] + m_f  # lane ready before arrival
            iso[:-1] &= arr[1:] > c[:-1]  # alone in its landing slot
        iso &= c < total_time  # landing inside the horizon
        self.iso = iso.tolist()

    def sprint(self) -> None:
        """Drain this lane's run of isolated arrivals.

        The caller (:meth:`advance_round`) has already established the
        jump preconditions — VEC mode, empty backlog, positive-measure
        coverable window — so this validates only the parts of the
        first jump+success pair the precomputed tables cannot know
        (any failed condition defers the lane, untouched, to the
        phased round), then walks the precomputed isolation mask:
        per event only the Welford updates are inherently sequential.
        Every accumulator update is an exact integer-valued float sum,
        so batching them locally and storing once is bit-identical to
        the per-event stores.
        """
        iso = self.iso
        if iso is None:
            return
        arrl = self.arr_t
        n = self.n_arrivals
        p = self.ptr
        if p >= n:
            return
        now = self.now
        u = arrl[p]
        if u <= now:
            return  # due arrival: the phased ingest must run first
        tot = self.total_time
        kf = self.k_f
        covers = self.covers
        const = self.const
        stop = u if u < tot else tot
        sk0 = math.ceil(stop - now)
        new_now = now + sk0
        if new_now >= tot:
            return  # dying jump: the phased round applies it
        nxt = arrl[p + 1] if p + 1 < n else math.inf
        if nxt <= new_now:
            return  # arrival cluster at the landing slot
        new_fr = new_now - 1.0
        lo2 = max(new_fr, new_now - kf)
        meas2 = new_now - lo2
        if not (
            meas2 > _EPS
            and (covers or (const is not None and const >= meas2))
            and u >= lo2
        ):
            return
        warmup = self.warmup
        record = self.scored.append
        m = self.m_f
        cl = self.ceil_t
        tl = self.true_t
        ob = self.ob
        wc = self.wcount
        wt = self.wtrue
        wp = self.wpaper
        nm = 0
        idle_acc = 0.0
        tx_acc = 0.0
        # The entry event (dynamic state; new_now == ceil(u) by the
        # decoupling argument, keeping the iso mask's premises true).
        idle_acc += sk0
        tv = new_now - u
        # tx and process start coincide at the epoch instant and
        # tv >= 0, so both loss definitions observe the same value.
        if u >= warmup:
            wc += 1
            d = tv - wt
            wt += d / wc
            d = tv - wp
            wp += d / wc
            record(tv)
            nm += 1
        tx_acc += m
        if ob is not None:
            ob.ff_skips.append(sk0)
            ob.epochs += 1
            ob.backlog_sizes.append(1)
            ob.window_sizes.append(meas2)
        last_fr = new_now
        prev_now = new_now + m
        p += 1
        if ob is None:
            # The tight loop, with the instrumentation branch hoisted
            # out entirely — this is where compiled runs spend their time.
            out = sprint_walk(
                arrl, cl, tl, iso, p, n, prev_now, last_fr,
                warmup, record, m, kf, tot, wc, wt, wp,
            )
            p, prev_now, last_fr, idle_d, tx_d, wc, wt, wp, nm_d = out
            idle_acc += idle_d
            tx_acc += tx_d
            nm += nm_d
        else:
            while p < n and iso[p]:
                u = arrl[p]
                c = cl[p]
                skf = c - prev_now
                idle_acc += skf
                tv = tl[p]
                if u >= warmup:
                    wc += 1
                    d = tv - wt
                    wt += d / wc
                    d = tv - wp
                    wp += d / wc
                    record(tv)
                    nm += 1
                tx_acc += m
                ob.ff_skips.append(int(skf))
                ob.epochs += 1
                ob.backlog_sizes.append(1)
                ob.window_sizes.append(1.0)
                last_fr = c
                prev_now = c + m
                p += 1
        self.now = prev_now
        self.frontier = last_fr
        self.ptr = p
        self.upcoming = arrl[p] if p < n else math.inf
        self.idle += idle_acc
        self.tx += tx_acc
        self.wcount = wc
        self.wtrue = wt
        self.wpaper = wp
        if nm:
            self.n_meas += nm

    # -- scalar helpers (the uncommon paths) --------------------------------

    def ingest(self, now_f: float) -> None:
        arr_t = self.arr_t
        n = self.n_arrivals
        p = self.ptr
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        warmup = self.warmup
        measured = 0
        while p < n and arr_t[p] <= now_f:
            t = arr_t[p]
            backlog_t.append(t)
            backlog_i.append(p)
            if t >= warmup:
                measured += 1
            p += 1
        self.ptr = p
        if measured:
            self.n_meas += measured
        self.upcoming = arr_t[p] if p < n else math.inf

    def _cut(self, now_f: float) -> None:
        """Element-4 discard of over-age backlog (the reference epoch's
        backlog cut after ``begin_process``)."""
        deadline = self.discard_deadline
        if deadline is None:
            return
        backlog_t = self.backlog_t
        cut = bisect_left(backlog_t, now_f - deadline)
        if cut:
            backlog_i = self.backlog_i
            arr_t = self.arr_t
            warmup = self.warmup
            dropped = 0
            for index in backlog_i[:cut]:
                if arr_t[index] >= warmup:
                    dropped += 1
            if dropped:
                self.disc += dropped
            del backlog_t[:cut]
            del backlog_i[:cut]

    def _materialize(self, frontier: float, now_f: float) -> None:
        """Enter GEN mode at the closed-form state (∅, F) and run the
        epoch of ``now_f`` there."""
        del self.u_lo[:]
        del self.u_hi[:]
        self.oldest = None
        self.fr = frontier
        self.vec = False
        if self.one_interval:
            self._one_epoch(now_f)
        else:
            self._gen_epoch(now_f)

    def vec_epoch(self, now_f: float) -> None:
        """One decision epoch from the closed-form state (∅, F).

        Replicates the reference epoch's float arithmetic exactly:
        the clamp is ``max``, the measure one subtraction (the same op
        ``IntervalSet.measure`` performs on a single interval), and a
        whole-window selection returns the interval verbatim with no
        RNG draw for any position rule.
        """
        frontier = self.frontier
        deadline = self.discard_deadline
        if deadline is None:
            lo = frontier
        else:
            horizon = now_f - deadline
            lo = horizon if frontier < horizon else frontier
        meas = now_f - lo
        ob = self.ob
        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(len(self.backlog_t))
        if meas <= _EPS:
            # begin_process would return None (measure zero ⇔ now == F,
            # so advance_time was a no-op and the set stays empty); the
            # element-4 cut still runs before the None branch.
            self._cut(now_f)
            self.wait += 1.0
            self.now = now_f + 1.0
            return
        if not (
            self.covers or (self.const is not None and self.const >= meas)
        ):
            # Window shorter than the span: the real split machinery.
            self._materialize(frontier, now_f)
            return
        # The window is the whole span [lo, now); membership is t >= lo.
        # The cut removes t < now−K ≤ lo only, so the in-window count is
        # cut-invariant and can gate the closed form before any mutation.
        backlog_t = self.backlog_t
        n_in = len(backlog_t) - bisect_left(backlog_t, lo)
        if n_in >= 2:
            self._materialize(frontier, now_f)
            return
        self._cut(now_f)
        if ob is not None:
            ob.window_sizes.append(meas)
        if n_in == 0:
            # One full-window idle examination resolves everything.
            self.idle += 1.0
            self.frontier = now_f
            self.now = now_f + 1.0
            return
        # Exactly one in-window message: SUCCESS on the first slot.
        pos = len(backlog_t) - 1  # in-window ⇒ newest of the sorted backlog
        t0 = backlog_t[pos]
        del backlog_t[pos]
        del self.backlog_i[pos]
        m = self.m_slots
        self.tx += m
        self.frontier = now_f
        self.now = now_f + m
        true_value = now_f - t0
        paper_value = max(0.0, now_f - t0)
        if t0 >= self.warmup:
            self.scored.append(
                true_value if self.true_definition else paper_value
            )
            self._observe(true_value, paper_value)

    def gen_step(self, now_f: float) -> None:
        """One post-ingest iteration: flat fast-forward, else flat epoch.

        The fast-forward applies ``begin_process``'s advance and discard
        (they persist whether or not the jump happens, exactly as the
        subsequent epoch expects), then jumps every slot until the next
        arrival (or the horizon) when each would be a full-window idle
        examination.  On a faulted lane only an erasure can corrupt a
        truly idle examination, so the jump stops at the first
        corrupting draw; that slot runs as a real epoch on the same draw.
        """
        one = self.one_interval
        if not self.backlog_t and self.entry_ok:
            meas = self._begin_one(now_f) if one else self._begin_columns(now_f)
            if meas > _EPS:
                if self.covers:
                    length = meas
                elif self.const is not None:
                    length = self.const
                else:
                    length = self.policy.length.length(meas)
                if length >= meas:
                    stop = min(self.upcoming, self.total_time)
                    skipped = (
                        math.ceil(stop - now_f) if self.steady else 1
                    )
                    if self.faults is not None:
                        skipped = self.faults.scan_idle(skipped)
                    if skipped:
                        if one:
                            self.oldest = None
                        else:
                            del self.u_lo[:]
                            del self.u_hi[:]
                        self.fr = now_f + skipped - 1.0
                        self.idle += skipped
                        self.now = now_f + skipped
                        self.frontier = self.fr
                        self.vec = self.vec_ok
                        if self.ob is not None:
                            self.ob.ff_skips.append(skipped)
                        return
        ob = self.ob
        if ob is not None:
            ob.epochs += 1
            size = len(self.backlog_t)
            if self.faults is not None:
                # The reference registry still holds stranded messages.
                size += len(self.stuck_i)
            ob.backlog_sizes.append(size)
        if one:
            self._one_epoch(now_f)
        else:
            self._gen_epoch(now_f)

    def succ_epoch(self, now_f: float, meas: float) -> None:
        """Single-message SUCCESS epoch, the steady state of the rounds.

        Same arithmetic as :meth:`vec_epoch`'s one-in-window branch with
        the preconditions (VEC, backlog of exactly one in-window
        message, full-cover window, head not over-age so the element-4
        cut is a no-op) already established by the caller.
        """
        backlog_t = self.backlog_t
        t0 = backlog_t[0]
        true_value = now_f - t0
        m = self.m_f
        self.tx += m
        self.frontier = now_f
        self.now = now_f + m
        if t0 >= self.warmup:
            wc = self.wcount + 1
            self.wcount = wc
            delta = true_value - self.wtrue
            self.wtrue += delta / wc
            paper_value = max(0.0, true_value)
            delta = paper_value - self.wpaper
            self.wpaper += delta / wc
            # t0 <= now, so both definitions score this same value.
            self.scored.append(true_value)
        backlog_t.clear()
        self.backlog_i.clear()
        ob = self.ob
        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(1)
            ob.window_sizes.append(meas)

    def advance_round(self) -> bool:
        """One fused round of this lane; returns whether it stays live.

        Executes, in order: ingest of due arrivals; a steady-state
        sprint when eligible (zero or more jump+success events drained,
        see :meth:`sprint`); the idle fast-forward jump; a second ingest
        if the jump landed on an arrival; then one decision epoch (the
        inlined single-success form when its preconditions hold, else
        the VEC/GEN dispatch).  That is one or more iterations of the
        reference loop, never reordered.
        """
        now = self.now
        if self.check:
            require(now > self.last_now, f"clock stalled at slot {now}")
            self.last_now = now
        tot = self.total_time
        if self.upcoming <= now:
            self.ingest(now)

        # -- steady-state sprint + idle fast-forward jump ----------------
        if self.vec and not self.backlog_t and self.entry_ok:
            lo = max(self.frontier, now - self.k_f)
            meas = now - lo
            jump = meas > _EPS and (
                self.covers or (self.const is not None and self.const >= meas)
            )
            if jump and self.steady:
                self.sprint()
                now = self.now
                if now >= tot:
                    return False
                # Sprint exits may have landed on (or past) due arrivals.
                if self.upcoming <= now:
                    self.ingest(now)
                if self.vec and not self.backlog_t and self.entry_ok:
                    lo = max(self.frontier, now - self.k_f)
                    meas = now - lo
                    jump = meas > _EPS and (
                        self.covers
                        or (self.const is not None and self.const >= meas)
                    )
                else:
                    jump = False
            if jump:
                # Closed form of the idle fast-forward: clamp, measure,
                # full-window test, ceil to the next arrival — the
                # reference epoch's arithmetic, no controller objects
                # touched.
                stop = min(self.upcoming, tot)
                skipped = math.ceil(stop - now) if self.steady else 1.0
                new_now = now + skipped
                self.idle += skipped
                self.frontier = new_now - 1.0
                self.now = new_now
                if self.ob is not None:
                    self.ob.ff_skips.append(int(skipped))
                now = new_now
                # A jump lands at (or past) the next arrival: ingest it
                # and fall through to this round's epoch, fusing the two
                # sequential iterations into one pass.
                if now < tot and self.upcoming <= now:
                    self.ingest(now)

        # -- decision epoch ----------------------------------------------
        if now >= tot:
            return False
        # Inlined single-message SUCCESS epoch: VEC lane, backlog of
        # exactly one in-window message, full-cover window.  This is the
        # steady state at the paper's operating points.
        backlog_t = self.backlog_t
        if self.vec and len(backlog_t) == 1:
            lo = max(self.frontier, now - self.k_f)
            meas = now - lo
            if (
                meas > _EPS
                and (self.covers or (self.const is not None and self.const >= meas))
                and backlog_t[0] >= lo
            ):
                self.succ_epoch(now, meas)
                return self.now < tot
        if self.vec:
            self.vec_epoch(now)
        else:
            self.gen_step(now)
        return self.now < tot

    # -- the flat decision epoch ---------------------------------------------

    def _begin_columns(self, now: float) -> float:
        """``begin_process``'s advance and element-4 discard on the
        ``u_lo``/``u_hi`` columns; returns the unresolved measure."""
        u_lo = self.u_lo
        u_hi = self.u_hi
        fr = self.fr
        if now > fr:
            _iv_add(u_lo, u_hi, fr, now)
            self.fr = now
        deadline = self.discard_deadline
        if deadline is not None:
            _iv_clamp_before(u_lo, u_hi, now - deadline)
        meas = 0.0
        for k in range(len(u_lo)):
            meas += u_hi[k] - u_lo[k]
        if self.check:
            require(
                meas >= 0.0, f"unresolved backlog has negative measure at slot {now}"
            )
        return meas

    def _begin_one(self, now: float) -> float:
        """:meth:`_begin_columns` on the one-interval set ``[oldest, fr)``.

        ``_iv_add`` of ``[fr, now)`` drops a sliver of at most ``1e-12``
        and otherwise extends the set to ``[oldest, now)`` (``oldest <
        fr``, so the union's ``min`` is ``oldest``); ``_iv_clamp_before``
        empties a set that ends within ``1e-12`` of the horizon and
        otherwise lifts ``oldest`` to it.  A sliver dropped from a
        non-empty set would leave it ending short of the new frontier;
        every epoch spends at least one slot, so that cannot happen.
        """
        fr = self.fr
        oldest = self.oldest
        if now > fr:
            if now <= fr + _EPS:
                if oldest is not None:
                    _breach(now)
            elif oldest is None:
                oldest = fr
            self.fr = fr = now
        deadline = self.discard_deadline
        if deadline is not None and oldest is not None:
            horizon = now - deadline
            if fr <= horizon + _EPS:
                oldest = None
            elif oldest < horizon:
                oldest = horizon
        self.oldest = oldest
        if oldest is None:
            return 0.0
        meas = fr - oldest
        if self.check:
            require(
                meas >= 0.0, f"unresolved backlog has negative measure at slot {now}"
            )
        return meas

    def _one_epoch(self, now_f: float) -> None:
        """:meth:`_gen_epoch` on a one-interval lane (see the module
        docstring): the same call sequence, outcomes and float results,
        with the unresolved set held as ``[oldest, fr)``.

        The window is the oldest ``length`` of the set; each examined
        part is a ``(lo, hi)`` pair, or ``None`` for an empty part of a
        cut, and its participants are the backlog entries in ``[lo,
        hi]`` (``bisect_right``'s inclusive high end).  Resolving a part
        is ``_iv_subtract``'s branches on one interval: a part within
        ``1e-12`` of empty resolves nothing, one reaching within
        ``1e-12`` of the frontier empties the set, any other moves
        ``oldest`` to the part's end.
        """
        now = now_f
        meas = self._begin_one(now)
        oldest = self.oldest
        fr = self.fr

        # -- element 1 (oldest-first): the oldest ``length`` of [oldest, fr)
        whi = None  # the window's high end; None: no window this epoch
        wmeas = 0.0
        if meas > _EPS:
            if self.covers:
                length = meas
            elif self.const is not None:
                const = self.const
                length = const if const < meas else meas
            else:
                value = self.policy.length.length(meas)
                length = value if value < meas else meas
            if length >= meas - _EPS:
                whi = fr
            elif length > _EPS:
                whi = oldest + length
            if whi is not None:
                wmeas = whi - oldest
                if wmeas <= _EPS:  # Span.is_empty
                    whi = None

        # -- element-4 backlog cut (after begin, as the reference epoch) --
        self._cut(now)

        if whi is None:
            self.wait += 1.0
            self.now = now + 1.0
            return

        process_start = now
        ob = self.ob
        if ob is not None:
            ob.window_sizes.append(wmeas)

        # -- the windowing state machine ------------------------------------
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        arr_s = self.arr_s
        m_slots = self.m_slots
        arity = self.policy.split_arity
        deadline = self.discard_deadline
        cur = (oldest, whi)
        sibs: Optional[List] = None
        depth = 0
        idle_d = 0.0
        collision_d = 0.0
        transmission_d = 0.0
        left = right = 0
        success = False
        tx_instant = 0.0
        while True:
            # Resolve one slot: distinct stations among the backlog
            # entries in the part decide idle/success/collision.
            collided = False
            if cur is not None:
                lo, hi = cur
                left = bisect_left(backlog_t, lo)
                right = bisect_right(backlog_t, hi)
                if left < right:
                    station = arr_s[backlog_i[left]]
                    for k in range(left + 1, right):
                        if arr_s[backlog_i[k]] != station:
                            collided = True
                            break
            if collided:
                now += 1.0
                collision_d += 1.0
                piece = cur
            else:
                if cur is None or left == right:
                    now += 1.0
                    idle_d += 1.0
                else:
                    success = True
                    tx_instant = now
                    now += m_slots
                    transmission_d += m_slots
                # The examined part is resolved (_iv_subtract).
                if cur is not None and oldest is not None and hi > lo + _EPS:
                    if fr <= lo + _EPS or oldest >= hi - _EPS:
                        if fr > lo + _EPS and oldest < lo and hi < fr:
                            _breach(now)
                    elif oldest < lo - _EPS:
                        _breach(now)
                    elif fr > hi + _EPS:
                        oldest = hi
                    else:
                        oldest = None
                if success:
                    break  # remaining siblings are abandoned
                if sibs is None:
                    break  # empty initial window: no transmission
                if len(sibs) > 1:
                    cur = sibs[0]
                    sibs = sibs[1:]
                    continue
                # All earlier siblings idle: the last one holds every
                # colliding arrival (>= 2, so it is not empty) and is
                # split immediately.
                piece = sibs[0]
            depth += 1
            if depth > _MAX_SPLIT_DEPTH:
                raise RuntimeError(_SPLIT_DEPTH_MESSAGE)
            parts = split_interval(piece[0], piece[1], arity)
            cur = parts[0]
            sibs = parts[1:]
        self.oldest = oldest

        # -- scoring ---------------------------------------------------------
        if success:
            transmitted = backlog_i[left]
            if deadline is None:
                # Same-station messages sharing the success span are
                # stranded: the span is resolved but they are not
                # transmitted, and no later window can enable them.
                self.stuck_i.extend(backlog_i[left + 1 : right])
                del backlog_t[left:right]
                del backlog_i[left:right]
            else:
                del backlog_t[left]
                del backlog_i[left]
            arrival = self.arr_t[transmitted]
            true_value = tx_instant - arrival
            paper_value = max(0.0, process_start - arrival)
            if arrival >= self.warmup:
                self.scored.append(
                    true_value if self.true_definition else paper_value
                )
                self._observe(true_value, paper_value)

        self.idle += idle_d
        self.coll += collision_d
        self.tx += transmission_d
        self.now = now
        if self.vec_ok and oldest is None:
            self.vec = True
            self.frontier = fr

    def _select(self, length: float, meas: float) -> List[Tuple[float, float]]:
        """Element 1 on the flat columns (the three canonical rules).

        Replicates the slicing helpers' float arithmetic: every measure
        is the same sequential fold, every clamp the same ``min``, and
        the random placement draws ``rng.uniform(0.0, slack)`` exactly
        when the slack is positive.
        """
        pieces = tuple(zip(self.u_lo, self.u_hi))
        code = self.pos_code
        if code == 0:  # oldest-first: slice_oldest(length)
            window, _ = split_pieces(pieces, length)
            return window
        if code == 1:  # newest-first: slice_youngest(length)
            _, window = split_pieces(pieces, meas - length)
            return window
        # random placement: slice_offset(offset, length)
        slack = max(0.0, meas - length)
        offset = self.rng.uniform(0.0, slack) if slack > 0 else 0.0
        _, after = split_pieces(pieces, min(offset, meas))
        after_meas = 0.0
        for lo, hi in after:
            after_meas += hi - lo
        window, _ = split_pieces(after, min(length, after_meas))
        return window

    def _gen_epoch(self, now_f: float) -> None:
        """One decision epoch, flat: begin + resolve + score, no objects.

        The call sequence is the reference epoch's: ``begin_process``
        (advance, discard, measure, length, select), the element-4
        backlog cut, then the :class:`~repro.core.window.WindowingProcess`
        state machine with resolved spans subtracted eagerly, and finally
        the scoring of the transmitted message.

        With a fault hook the epoch is the shared reference loop's
        faulted epoch: fault events and rejoins at the top; at every
        examination slot the events due by then, the participants minus
        desynced stations, a jam's forced COLLISION and the observed
        symbol.  Physical truth prices the slot and decides delivery
        (a faded frame is lost, an erased one stays pending, a captured
        collision costs every participant its frame); the observed
        symbol drives the state machine, and a split descent deeper than
        ``max_split_depth`` is aborted under the recovery policy.
        """
        u_lo = self.u_lo
        u_hi = self.u_hi
        now = now_f
        faults = self.faults
        events = self.events
        if events:
            for station in faults.poll(now):
                self._drop_station(station)
            faults.rejoin(now)

        # -- begin_process ---------------------------------------------------
        meas = self._begin_columns(now)
        deadline = self.discard_deadline
        cur: Optional[List[Tuple[float, float]]] = None
        wmeas = 0.0
        if meas > _EPS:
            if self.covers:
                length = meas  # min(measure, measure)
            elif self.const is not None:
                const = self.const
                length = const if const < meas else meas
            else:
                value = self.policy.length.length(meas)
                length = value if value < meas else meas
            cur = self._select(length, meas)
            for lo, hi in cur:
                wmeas += hi - lo
            if wmeas <= _EPS:  # Span.is_empty
                cur = None

        # -- element-4 backlog cut (after begin, as the reference epoch) --
        self._cut(now)

        if cur is None:
            self.wait += 1.0
            self.now = now + 1.0
            return

        process_start = now
        window = cur
        ob = self.ob
        if ob is not None:
            ob.window_sizes.append(wmeas)

        # Per-process arrival bins: snapshot the initial window's
        # participants once.  The backlog only shrinks mid-process, and
        # only on a faulted lane, which then updates the snapshot too.
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        arr_s = self.arr_s
        desynced = faults.desynced if faults is not None else None
        snap_t: List[float] = []
        snap_s: List[int] = []
        snap_i: List[int] = []
        for lo, hi in cur:
            left = bisect_left(backlog_t, lo)
            right = bisect_right(backlog_t, hi)
            for k in range(left, right):
                index = backlog_i[k]
                station = arr_s[index]
                if desynced and station in desynced:
                    continue
                snap_t.append(backlog_t[k])
                snap_s.append(station)
                snap_i.append(index)

        # -- the windowing state machine ------------------------------------
        m_slots = self.m_slots
        split = self.policy.split
        arity = self.policy.split_arity
        rng = self.rng
        if faults is not None:
            observe = faults.observe
            max_depth = faults.model.max_split_depth
        sibs: Optional[List] = None
        depth = 0
        spent = 0  # WindowingProcess.slots_spent
        idle_d = 0.0
        collision_d = 0.0
        transmission_d = 0.0
        transmitted = -1
        tx_instant = 0.0
        stranded: List[int] = []
        while True:
            if events:
                # Mid-process fault events; a station that desyncs (or
                # drops out) sits out the rest of the process.
                n_desynced = len(desynced)
                for station in faults.poll(now):
                    self._drop_station(station)
                if len(desynced) != n_desynced:
                    live = [k for k, s in enumerate(snap_s) if s not in desynced]
                    snap_t = [snap_t[k] for k in live]
                    snap_s = [snap_s[k] for k in live]
                    snap_i = [snap_i[k] for k in live]
            # Resolve one slot against the snapshot: distinct enabled
            # stations decide idle/success/collision.
            first = -1
            first_station = -1
            collided = False
            if snap_t:
                for lo, hi in cur:
                    left = bisect_left(snap_t, lo)
                    right = bisect_right(snap_t, hi)
                    for k in range(left, right):
                        if first < 0:
                            first = k
                            first_station = snap_s[k]
                        elif snap_s[k] != first_station:
                            collided = True
                            break
                    if collided:
                        break
            # Physical truth prices the slot.
            if events and now < faults.jam_until:
                # Adversarial burst: the channel reads COLLISION whatever
                # happened, and a frame sent into it is destroyed.
                true = _COLLISION
                now += 1.0
                collision_d += 1.0
                faults.telemetry.jam_slots += 1
            elif first < 0:
                true = _IDLE
                now += 1.0
                idle_d += 1.0
            elif collided:
                true = _COLLISION
                now += 1.0
                collision_d += 1.0
            else:
                true = _SUCCESS
                tx_instant = now
                now += m_slots
                transmission_d += m_slots
            observed = true
            if faults is not None:
                observed = observe(true)
                if observed is not true:
                    if observed is _SUCCESS:
                        self._capture(cur, snap_t, snap_s, snap_i)
                    elif true is _SUCCESS and observed is _IDLE:
                        # Faded frame: decoded nowhere, and the span
                        # resolves idle, so it can never be resent.
                        index = snap_i[first]
                        del snap_t[first]
                        del snap_s[first]
                        del snap_i[first]
                        self._dequeue(index)
                        self._lose(index)
                        faults.telemetry.faded_frames += 1
                    # An erased success stays pending: the split
                    # descent isolates and resends it.
            # The observed symbol drives the state machine.
            if observed is _IDLE:
                spent += 1
                # IDLE: the examined span is resolved.
                for lo, hi in cur:
                    _iv_subtract(u_lo, u_hi, lo, hi)
                if sibs is None:
                    break  # empty initial window: no transmission
                if len(sibs) > 1:
                    cur = sibs[0]
                    sibs = sibs[1:]
                    continue
                # All earlier siblings idle: the last one holds every
                # colliding arrival (>= 2) and is split immediately.
                piece = sibs[0]
            elif observed is _COLLISION:
                spent += 1
                piece = cur
            else:
                # SUCCESS: the examined span is resolved, remaining
                # siblings are abandoned.
                if true is _SUCCESS:
                    transmitted = snap_i[first]
                    if deadline is None:
                        # Same-station messages sharing the success span
                        # are stranded: the span is resolved but they are
                        # not transmitted, and no later window can
                        # enable them.
                        for lo, hi in cur:
                            left = bisect_left(snap_t, lo)
                            right = bisect_right(snap_t, hi)
                            for k in range(left, right):
                                if k != first:
                                    stranded.append(snap_i[k])
                for lo, hi in cur:
                    _iv_subtract(u_lo, u_hi, lo, hi)
                break
            # Split ``piece`` (the canonical primitives, flat form):
            # examine the first part, stage the rest as siblings.
            depth += 1
            if depth > _MAX_SPLIT_DEPTH:
                raise RuntimeError(_SPLIT_DEPTH_MESSAGE)
            parts = split_parts(piece, arity)
            if split != "older":  # "older" order is the identity
                parts = [parts[i] for i in examination_order(split, arity, rng)]
            cur = parts[0]
            sibs = parts[1:]
            if faults is not None and depth > max_depth:
                # Divergence abort: a descent this deep cannot occur
                # under fault-free feedback.  Resolved spans are already
                # folded back; the unexamined remainder stays unresolved.
                now = self._abort(now, spent, window)
                break

        # -- scoring ---------------------------------------------------------
        if transmitted >= 0:
            self._dequeue(transmitted)
            stuck_i = self.stuck_i
            for index in stranded:
                self._dequeue(index)
                stuck_i.append(index)
            arrival = self.arr_t[transmitted]
            true_value = tx_instant - arrival
            paper_value = max(0.0, process_start - arrival)
            if arrival >= self.warmup:
                self.scored.append(
                    true_value if self.true_definition else paper_value
                )
                self._observe(true_value, paper_value)

        self.idle += idle_d
        self.coll += collision_d
        self.tx += transmission_d
        self.now = now
        if self.vec_ok and not u_lo:
            self.vec = True
            self.frontier = self.fr

    def _dequeue(self, index: int) -> None:
        """Remove one message from the sorted backlog columns."""
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        position = bisect_left(backlog_t, self.arr_t[index])
        while backlog_i[position] != index:
            position += 1
        del backlog_t[position]
        del backlog_i[position]

    # -- fault dispositions (faulted lanes only) ----------------------------

    def _lose(self, index: int) -> None:
        """Count one message destroyed by a fault."""
        if self.arr_t[index] >= self.warmup:
            self.lost += 1

    def _capture(self, cur, snap_t, snap_s, snap_i) -> None:
        """A collision read as SUCCESS: every participating station
        believes its frame got through and dequeues its oldest in-span
        message."""
        captured = {}
        for lo, hi in cur:
            for k in range(bisect_left(snap_t, lo), bisect_right(snap_t, hi)):
                captured.setdefault(snap_s[k], snap_i[k])
        for index in captured.values():
            self._dequeue(index)
            self._lose(index)
            self.faults.telemetry.phantom_deliveries += 1

    def _drop_station(self, station: int) -> None:
        """A dropping-out station destroys its pending backlog, stranded
        messages included."""
        arr_s = self.arr_s
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        for index in backlog_i + self.stuck_i:
            if arr_s[index] == station:
                self._lose(index)
                self.faults.telemetry.dropped_messages += 1
        keep = [k for k, index in enumerate(backlog_i) if arr_s[index] != station]
        backlog_t[:] = [backlog_t[k] for k in keep]
        backlog_i[:] = [backlog_i[k] for k in keep]
        self.stuck_i[:] = [i for i in self.stuck_i if arr_s[i] != station]

    def _abort(self, now: float, spent: int, window) -> float:
        """The divergence abort under the recovery policy; returns the clock."""
        model = self.faults.model
        telemetry = self.faults.telemetry
        telemetry.divergence_detections += 1
        telemetry.diverged_slots += spent
        telemetry.resyncs += 1
        if model.recovery == "drop-out":
            # Every station entangled in the diverged process gives up
            # its in-window backlog.
            backlog_t = self.backlog_t
            backlog_i = self.backlog_i
            for lo, hi in reversed(window):
                left = bisect_left(backlog_t, lo)
                right = bisect_right(backlog_t, hi)
                for index in backlog_i[left:right]:
                    self._lose(index)
                    telemetry.dropped_messages += 1
                del backlog_t[left:right]
                del backlog_i[left:right]
        elif model.recovery == "gated-rejoin":
            # The network listens before re-engaging.
            now += model.rejoin_listen_slots
            self.wait += model.rejoin_listen_slots
        return now

    def finalize(self, deadline: Optional[float]) -> MACSimResult:
        """The run's result, its deliveries scored against ``deadline``."""
        arr_t = self.arr_t
        warmup = self.warmup
        unresolved_count = sum(
            1 for index in self.backlog_i if arr_t[index] >= warmup
        ) + sum(1 for index in self.stuck_i if arr_t[index] >= warmup)
        if self.check:
            accounted = (
                len(self.scored) + self.disc + self.lost + unresolved_count
            )
            require(
                accounted == self.n_meas,
                f"message conservation violated: {self.n_meas} measured "
                f"arrivals but {accounted} accounted for",
            )
        stats = ChannelStats(
            idle_slots=float(self.idle),
            collision_slots=float(self.coll),
            transmission_slots=float(self.tx),
            wait_slots=float(self.wait),
        )
        wcount = self.wcount
        late = count_late(self.scored, deadline)
        result = MACSimResult(
            arrivals=int(self.n_meas),
            delivered_on_time=len(self.scored) - late,
            delivered_late=late,
            discarded=int(self.disc),
            unresolved=unresolved_count,
            mean_true_wait=float(self.wtrue) if wcount else math.nan,
            mean_paper_wait=float(self.wpaper) if wcount else math.nan,
            channel=stats,
            deadline=deadline,
            lost_to_faults=self.lost,
            faults=None if self.faults is None else self.faults.telemetry,
        )
        if self.registry is not None:
            self.ob.flush(self.registry)
            flush_result_metrics(self.registry, result)
            if self.faults is not None:
                flush_fault_metrics(self.registry, self.faults.telemetry)
        return result
