"""Shared protocol primitives of the simulation loops.

The policy trait derivation and the wait/instrumentation accumulators
live here — one implementation for the reference loops
(:mod:`repro.mac.simulator`) and the compiled engine
(:mod:`repro.mac.kernels.engine`).  The split rules of policy element 3
live in :mod:`repro.core.splits`, where the reference
:class:`~repro.core.window.WindowingProcess` takes them from as well,
so no engine carries private split logic.

Everything in this module is bound by the bit-parity contract: the
compiled engine must reproduce the reference loop's results field for
field — identical RNG draw order, identical float arithmetic on every
recorded quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...core.policy import ControlPolicy
    from ...obs.metrics import MetricsRegistry

__all__ = [
    "KernelTraits",
    "kernel_traits",
    "WaitStats",
    "ObsBuffers",
]


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

    One Welford update per delivered message.  The reference loops and
    (inlined) the compiled engine all accumulate through this
    arithmetic, which is what keeps their mean waits bit-identical.
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

    The hot loop appends plain ints/floats.  :meth:`flush` records them
    in bulk, histogram sums by ``observe_many``'s pairwise reduction —
    the compiled engine's and the faulted reference runs' registry;
    :meth:`replay` records them one observation at a time — the clean
    reference loop's.  Counter sums of integral amounts are order-free.
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

    def replay(self, registry: "MetricsRegistry") -> None:
        """Record the epoch buffers one observation at a time.

        The clean reference loop's registry: histogram sums are the
        sequential folds of per-epoch ``observe`` calls, and there are no
        fast-forward accounts (that loop never fast-forwards).
        """
        registry.counter("mac.epochs").inc(self.epochs)
        backlog = registry.histogram("mac.backlog.size")
        for size in self.backlog_sizes:
            backlog.observe(size)
        window = registry.histogram("mac.window.size", unit="slots")
        for size in self.window_sizes:
            window.observe(size)
