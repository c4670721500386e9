"""Shard execution backends: where a leased shard actually runs.

The scheduler hands a backend a :class:`ShardWork` (the specs, their
journal directory, and the lease token) plus a heartbeat callable, and
gets back an awaitable :class:`ShardResult`.  The interface is sized for
a multi-host future — a remote backend would ship the work unit over the
wire and relay heartbeats — but today there is one implementation,
:class:`InProcessBackend`, which runs each shard through a
:class:`~repro.experiments.sweep.SweepExecutor` (and therefore the full
resilience stack: journal resume, retries, pool supervision,
quarantine) on a daemon thread.

Daemon threads rather than a ``ThreadPoolExecutor`` are deliberate: a
truly hung shard (the failure leases exist for) must not block process
exit, and the pool's atexit join would.  The hung thread's lease
expires, the shard is re-dispatched, and the zombie's eventual writes
are fenced out by its stale token.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..experiments.sweep import MACRunSpec, ResilienceOptions, SweepExecutor

__all__ = ["ShardWork", "ShardResult", "Backend", "InProcessBackend"]


@dataclass(frozen=True)
class ShardWork:
    """One dispatch unit: everything a backend needs to run a shard."""

    job_id: str
    shard_id: int
    #: Fencing token (the shard's attempt number at grant time).
    token: int
    specs: Sequence[MACRunSpec]
    #: Per-spec journal fingerprints, aligned with ``specs``.
    fingerprints: Sequence[str]
    #: The job's journal directory — the durability layer the shard
    #: checkpoints into and resumes from.
    journal_dir: str


@dataclass
class ShardResult:
    """What one shard attempt produced (quarantine holes included)."""

    #: Index-aligned with ``work.specs``; ``None`` marks a quarantined cell.
    results: List[Optional[object]] = field(default_factory=list)
    #: ``(position in shard, reason, attempts)`` per quarantined cell.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    replayed: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0


class Backend:
    """Abstract shard executor.

    Implementations own their concurrency (``slots`` bounds how many
    shards the scheduler dispatches at once) and must call ``heartbeat``
    from any thread as the shard makes progress — the server marshals it
    onto the event loop and renews the lease.
    """

    slots: int = 1

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to the server's event loop before any dispatch."""
        raise NotImplementedError

    async def run_shard(
        self, work: ShardWork, heartbeat: Callable[[int], None]
    ) -> ShardResult:
        """Execute one shard to completion (or raise)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; running shards may be abandoned."""

    def describe(self) -> str:
        return f"{type(self).__name__}(slots={self.slots})"


class InProcessBackend(Backend):
    """Runs shards in this process, one daemon thread per in-flight shard.

    Each shard gets a fresh :class:`SweepExecutor` pointed at the job's
    journal, so the per-shard semantics — resume, retry on fresh
    workers, quarantine — are exactly the direct-CLI semantics, and a
    re-dispatched shard replays its completed cells instead of
    recomputing them.
    """

    def __init__(
        self,
        slots: int = 2,
        sweep_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.1,
    ):
        if slots < 1:
            raise ValueError(f"backend slots must be >= 1, got {slots}")
        self.slots = slots
        self.sweep_workers = sweep_workers
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._busy = 0

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - self._busy)

    def _options(self, journal_dir: str) -> ResilienceOptions:
        return ResilienceOptions(
            checkpoint=journal_dir,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
        )

    def _execute(
        self, work: ShardWork, heartbeat: Callable[[int], None]
    ) -> ShardResult:
        """Thread body: one supervised sweep over the shard's specs."""
        executor = SweepExecutor(
            workers=self.sweep_workers,
            resilience=self._options(work.journal_dir),
            progress=heartbeat,
        )
        results = executor.run_specs(list(work.specs))
        outcome = executor.last_outcome
        if outcome is None:  # pragma: no cover - run_specs always sets it
            return ShardResult(results=results)
        return ShardResult(
            results=results,
            quarantined=[
                {
                    "position": record.index,
                    "reason": record.reason,
                    "attempts": record.attempts,
                }
                for record in outcome.quarantined
            ],
            replayed=outcome.replayed,
            executed=outcome.executed,
            retries=outcome.retries,
            timeouts=outcome.timeouts,
            pool_restarts=outcome.pool_restarts,
        )

    async def run_shard(
        self, work: ShardWork, heartbeat: Callable[[int], None]
    ) -> ShardResult:
        if self._loop is None:
            raise RuntimeError("backend not started")
        loop = self._loop
        future: asyncio.Future = loop.create_future()

        def safe_heartbeat(cells: int) -> None:
            # Called from the shard thread (or its pool's callback
            # threads); marshal onto the loop where the lease lives.
            loop.call_soon_threadsafe(heartbeat, cells)

        def body() -> None:
            try:
                result = self._execute(work, safe_heartbeat)
            except BaseException as error:  # noqa: BLE001 - relayed, not dropped
                loop.call_soon_threadsafe(_reject, future, error)
            else:
                loop.call_soon_threadsafe(_resolve, future, result)

        self._busy += 1
        thread = threading.Thread(
            target=body,
            name=f"shard-{work.job_id}-{work.shard_id}-t{work.token}",
            daemon=True,
        )
        thread.start()
        try:
            return await future
        finally:
            self._busy -= 1


def _resolve(future: asyncio.Future, result: ShardResult) -> None:
    if not future.done():
        future.set_result(result)


def _reject(future: asyncio.Future, error: BaseException) -> None:
    if not future.done():
        future.set_exception(error)
