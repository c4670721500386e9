"""Shared protocol primitives of the fast simulation kernels.

The policy trait derivation, the idle fast-forward shortcut, the
wait/instrumentation accumulators, the per-run epoch context and the
fate codes live here — one implementation for the compiled engine
(:mod:`repro.mac.kernels.engine`) and the faulted kernel
(:mod:`repro.mac.kernels.faults`).  The split rules of policy element 3
live in :mod:`repro.core.splits`, where the reference
:class:`~repro.core.window.WindowingProcess` takes them from as well,
so no kernel carries private split logic.

Everything in this module is bound by the bit-parity contract: any
kernel built from these primitives must reproduce the reference loop's
results field for field — identical RNG draw order, identical float
arithmetic on every recorded quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ...core.timeline import IntervalSet
from ...resilience.invariants import require
from ..messages import MessageFate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...core.controller import ProtocolController
    from ...core.policy import ControlPolicy
    from ...obs.metrics import MetricsRegistry

__all__ = [
    "PENDING",
    "ON_TIME",
    "LATE",
    "DISCARDED",
    "LOST",
    "FATE_OF_CODE",
    "KernelTraits",
    "kernel_traits",
    "WaitStats",
    "ObsBuffers",
    "EpochContext",
    "try_fast_forward",
]

# Integer fate codes of the struct-of-arrays bookkeeping.
PENDING = 0
ON_TIME = 1
LATE = 2
DISCARDED = 3
LOST = 4  # destroyed by an injected fault (repro.mac.kernels.faults)

FATE_OF_CODE = {
    PENDING: MessageFate.PENDING,
    ON_TIME: MessageFate.DELIVERED_ON_TIME,
    LATE: MessageFate.DELIVERED_LATE,
    DISCARDED: MessageFate.DISCARDED_AT_SENDER,
    LOST: MessageFate.LOST_TO_FAULT,
}


@dataclass(frozen=True)
class KernelTraits:
    """Shortcut eligibility of a control policy, derived once per run.

    Shared across kernels so all agree — by construction — on when a
    closed-form step is legal.
    """

    #: Policy element 2 is :class:`~repro.core.policy.FullBacklogLength`:
    #: the initial window always spans the whole unresolved set.
    covers_backlog: bool
    #: ``policy.length.constant_length()`` — lets a kernel skip the
    #: per-epoch WindowSizer round trip when the rule is state-free.
    const_length: Optional[float]
    #: Whether epochs *after* the entry epoch (backlog measure exactly
    #: one slot) also resolve in one full-window examination.
    steady_skippable: bool
    #: Whether element 4 cannot clip a one-slot backlog (K ≥ 1), the
    #: gate on attempting the idle fast-forward at all.
    entry_discard_ok: bool

    @property
    def closed_form(self) -> bool:
        """Whether the window length is computable without the policy object.

        The compiled engine's VEC mode requires this; exotic length
        rules run every epoch on its flat GEN path.
        """
        return self.covers_backlog or self.const_length is not None


def kernel_traits(policy: "ControlPolicy") -> KernelTraits:
    """Derive the :class:`KernelTraits` of ``policy``."""
    from ...core.policy import FullBacklogLength

    discard_deadline = policy.discard_deadline
    covers_backlog = isinstance(policy.length, FullBacklogLength)
    const_length = policy.length.constant_length()
    steady_skippable = covers_backlog or (
        const_length is not None
        and const_length >= 1.0
        and (discard_deadline is None or discard_deadline >= 1.0)
    )
    entry_discard_ok = discard_deadline is None or discard_deadline >= 1.0
    return KernelTraits(
        covers_backlog=covers_backlog,
        const_length=const_length,
        steady_skippable=steady_skippable,
        entry_discard_ok=entry_discard_ok,
    )


class WaitStats:
    """Streaming means of the two wait definitions.

    Same Welford update (and therefore the same float arithmetic on the
    mean) as :class:`~repro.des.monitor.Tally.observe`, with the
    moments the result never reads (m2/min/max) dropped.
    """

    __slots__ = ("count", "true_mean", "paper_mean")

    def __init__(self) -> None:
        self.count = 0
        self.true_mean = 0.0
        self.paper_mean = 0.0

    def observe(self, true_value: float, paper_value: float) -> None:
        self.count += 1
        delta = true_value - self.true_mean
        self.true_mean += delta / self.count
        delta = paper_value - self.paper_mean
        self.paper_mean += delta / self.count

    @property
    def mean_true(self) -> float:
        return self.true_mean if self.count else math.nan

    @property
    def mean_paper(self) -> float:
        return self.paper_mean if self.count else math.nan


class ObsBuffers:
    """Per-run instrumentation buffers, flushed into the registry once.

    The hot loop appends plain ints/floats; :meth:`flush` reproduces the
    exact registry state the per-epoch ``inc``/``observe`` calls used to
    build (counter sums of integral amounts are order-free, histogram
    observations are replayed in recording order).
    """

    __slots__ = ("epochs", "backlog_sizes", "window_sizes", "ff_skips")

    def __init__(self) -> None:
        self.epochs = 0
        self.backlog_sizes: List[int] = []
        self.window_sizes: List[float] = []
        self.ff_skips: List[int] = []

    def flush(self, registry: "MetricsRegistry") -> None:
        registry.counter("mac.epochs").inc(self.epochs)
        registry.histogram("mac.backlog.size").observe_many(self.backlog_sizes)
        registry.histogram("mac.window.size", unit="slots").observe_many(
            self.window_sizes
        )
        registry.counter("mac.fastforward.spans").inc(len(self.ff_skips))
        registry.counter("mac.fastforward.slots", unit="slots").inc(
            sum(self.ff_skips)
        )
        registry.histogram("mac.fastforward.span", unit="slots").observe_many(
            self.ff_skips
        )


def try_fast_forward(
    controller: "ProtocolController",
    policy: "ControlPolicy",
    traits: KernelTraits,
    now: float,
    upcoming: float,
    total_time: float,
    check: bool,
    scan=None,
) -> int:
    """Attempt the idle fast-forward at an empty-backlog epoch.

    Mirrors ``begin_process``'s epoch bookkeeping (advance + discard;
    those mutations persist whether or not the jump happens, exactly as
    the subsequent reference epoch expects), then decides whether this
    epoch is a full-window idle examination.  Returns the number of
    slots jumped (≥ 1, with the controller left in the closed-form
    post-jump state) or 0 if the epoch must run for real.  The caller
    advances the clock and the idle-slot account by the return value.

    ``scan`` (the faulted kernel's hook) is called with the candidate
    slot count and returns how many of them may actually be jumped —
    idle examinations that a corrupted feedback reading would turn into
    a split descent cap the jump there, and the capped slot runs for
    real.  The closed-form post-jump state is the same either way: the
    reference state after exactly that many full-window idle epochs.
    """
    controller.advance_time(now)
    controller.apply_discard(now)
    measure = controller.unresolved.measure
    if check:
        require(
            measure >= 0.0,
            f"unresolved backlog has negative measure at slot {now}",
        )
    if measure <= 1e-12:
        return 0
    length = (
        measure
        if traits.covers_backlog
        else (
            traits.const_length
            if traits.const_length is not None
            else policy.length.length(measure)
        )
    )
    if length < measure:
        return 0
    # Every slot until the next arrival (or the horizon) resolves the
    # whole backlog and comes back idle.
    stop = min(upcoming, total_time)
    skipped = math.ceil(stop - now) if traits.steady_skippable else 1
    if scan is not None:
        skipped = scan(skipped)
        if skipped == 0:
            return 0
    controller.unresolved = IntervalSet()
    controller.frontier = now + skipped - 1.0
    return skipped


class EpochContext:
    """Run-constant state threaded through the faulted kernel's epochs.

    One instance per run; the epoch helpers of
    :mod:`repro.mac.kernels.faults` read everything through it.
    """

    __slots__ = (
        "controller",
        "m_slots",
        "discard_deadline",
        "score_deadline",
        "true_definition",
        "warmup_slots",
        "arr_t",
        "arr_s",
        "backlog_t",
        "backlog_i",
        "fate",
        "tx_start",
        "process_start_of",
        "waits",
        "obs",
    )

    def __init__(
        self,
        controller: "ProtocolController",
        m_slots: int,
        discard_deadline: Optional[float],
        score_deadline: Optional[float],
        true_definition: bool,
        warmup_slots: float,
        arr_t: List[float],
        arr_s: List[int],
        backlog_t: List[float],
        backlog_i: List[int],
        fate: np.ndarray,
        tx_start: np.ndarray,
        process_start_of: np.ndarray,
        waits: WaitStats,
        obs: Optional[ObsBuffers],
    ) -> None:
        self.controller = controller
        self.m_slots = m_slots
        self.discard_deadline = discard_deadline
        self.score_deadline = score_deadline
        self.true_definition = true_definition
        self.warmup_slots = warmup_slots
        self.arr_t = arr_t
        self.arr_s = arr_s
        self.backlog_t = backlog_t
        self.backlog_i = backlog_i
        self.fate = fate
        self.tx_start = tx_start
        self.process_start_of = process_start_of
        self.waits = waits
        self.obs = obs
