"""Supervised task execution: timeouts, retries, pool recovery, quarantine.

``ProcessPoolExecutor.map`` is all-or-nothing: one OOM-killed worker
raises :class:`~concurrent.futures.process.BrokenProcessPool` and throws
away every completed cell of the sweep.  :class:`SupervisedExecutor`
replaces the bulk map with per-task futures under a watchdog:

* each task gets a **wall-clock timeout** (in-flight submission is
  capped at the worker count, so submission time is start time);
* a failed task is **retried** with exponential backoff, always on a
  fresh worker process (crashes and timeouts kill the pool; respawning
  it is what gives the retry a clean process);
* a broken pool (worker SIGKILLed / OOMed mid-task) is **respawned**
  and only the unfinished tasks are resubmitted — completed results are
  kept (and already journaled);
* a task that exhausts its retries is **quarantined**: recorded in the
  outcome with its fingerprint and final error, its result slot left as
  an explicit hole.  The sweep completes as a partial grid — degraded,
  reported, never silently truncated.

With a :class:`~repro.resilience.journal.RunJournal`, completed results
are checkpointed *as they finish* and replayed on the next invocation,
which is all "resume" is: re-run the same grid with the same journal.
A *group task* — one whose fingerprint is a tuple of member keys —
returns one value per member, and each member is journaled, replayed,
verified and counted under its own key.
Because every task carries its own seed, a retried or resumed task
reproduces the original result bit-for-bit; ``verify_replay`` turns
that assumption into a checked invariant by re-running journaled cells
and comparing.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.metrics import DURATION_BUCKETS_S, MetricsRegistry
from .journal import JournalMismatchError, RunJournal, value_digest

__all__ = [
    "ResilienceOptions",
    "QuarantineRecord",
    "SweepOutcome",
    "SupervisedExecutor",
    "backoff_delay",
]

_UNSET = object()


@dataclass(frozen=True)
class ResilienceOptions:
    """Caller-facing knobs of the resilience layer (all primitives, so
    drivers and the CLI can pass one frozen object around).

    Attributes
    ----------
    checkpoint:
        Journal directory (``None`` = no checkpointing).  Completed
        results are recorded as they finish and replayed by fingerprint
        on the next invocation with the same path.
    resume:
        Require that ``checkpoint`` already holds a journal — a guard
        against resuming from a mistyped path (a fresh run with
        ``checkpoint`` set resumes implicitly anyway).
    task_timeout:
        Per-task wall-clock budget in seconds (parallel runs only; an
        inline run cannot preempt its own task).  A task over budget is
        killed with its worker and retried.
    max_retries:
        Failed attempts allowed per task beyond the first; a task that
        fails ``max_retries + 1`` times is quarantined.
    backoff_base:
        First retry delay in seconds; doubles per subsequent attempt.
    backoff_jitter:
        Bounded multiplicative jitter on every retry delay: the delay is
        stretched by a factor in ``[1, 1 + backoff_jitter]``, drawn
        deterministically from ``(backoff_seed, task fingerprint,
        attempt)``.  Simultaneous failures (every task caught in one
        ``BrokenProcessPool``) then back off at *different* moments
        instead of thundering-herd-ing the respawned pool — yet the
        whole retry schedule is still a pure function of the options
        and the task identities, so a re-run reproduces it exactly.
    backoff_seed:
        Seed of the jitter draw (see ``backoff_jitter``).
    verify_replay:
        Re-run journaled cells and require bit-identical results
        (determinism audit; defeats the time savings of resume).
    """

    checkpoint: Optional[str] = None
    resume: bool = False
    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    verify_replay: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.backoff_base}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff jitter must lie in [0, 1], got {self.backoff_jitter}"
            )
        if self.resume and self.checkpoint is None:
            raise ValueError("resume requires a checkpoint path")


def backoff_delay(
    options: "ResilienceOptions", key: Optional[str], attempt: int
) -> float:
    """Retry delay for a task's ``attempt``-th failure (attempts count
    from 1).

    Exponential in the attempt number, stretched by the options'
    bounded jitter.  The jitter fraction is a hash of
    ``(backoff_seed, key, attempt)`` — no RNG state, so the schedule is
    deterministic per task and distinct *across* tasks, which is what
    de-synchronises a herd of simultaneous ``BrokenProcessPool``
    retries without sacrificing reproducibility.
    """
    if attempt < 1:
        raise ValueError(f"attempts count from 1, got {attempt}")
    delay = options.backoff_base * (2 ** (attempt - 1))
    if delay > 0 and options.backoff_jitter > 0:
        draw = hashlib.sha256(
            f"{options.backoff_seed}\x1f{key or ''}\x1f{attempt}".encode()
        ).digest()
        unit = int.from_bytes(draw[:8], "big") / 2**64  # uniform [0, 1)
        delay *= 1.0 + options.backoff_jitter * unit
    return delay


@dataclass(frozen=True)
class QuarantineRecord:
    """One poison task: where it sat in the grid and why it was dropped."""

    index: int
    fingerprint: Any  # Optional[str], or a group task's tuple of them
    attempts: int
    reason: str

    def describe(self) -> str:
        """Human-readable one-liner for tables and logs."""
        fp = f" [{self.fingerprint[:12]}]" if self.fingerprint else ""
        return (
            f"task #{self.index}{fp} quarantined after "
            f"{self.attempts} attempt(s): {self.reason}"
        )


@dataclass
class SweepOutcome:
    """Everything a supervised sweep produced, holes included.

    ``results`` is index-aligned with the submitted tasks; a quarantined
    task leaves ``None`` at its index and a :class:`QuarantineRecord` in
    ``quarantined`` — callers must treat the hole explicitly (the
    experiment drivers mark it in their tables), never drop it silently.
    """

    results: List[Optional[Any]] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    replayed: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0

    @property
    def complete(self) -> bool:
        """Whether every task produced a result (no quarantine holes)."""
        return not self.quarantined

    def holes(self) -> List[int]:
        """Indices of quarantined (missing) results."""
        return sorted(record.index for record in self.quarantined)

    def summary(self) -> str:
        """One-line account of the sweep (for CLI/report footers)."""
        parts = [f"{self.executed} executed"]
        if self.replayed:
            parts.append(f"{self.replayed} replayed from journal")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timed out")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restart(s)")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(parts)


def _backoff_key(task: "_Task") -> str:
    """Content-derived seed key for a task's retry-backoff jitter.

    A task's ``index`` depends on which cells of the grid still needed
    running, so seeding jitter from it would make retry timing (and thus
    journal write order under races) depend on journal state.  Keying on
    the fingerprint keeps the draw content-addressed wherever one
    exists; the index fallback only remains for unjournaled sweeps,
    where no content key exists at all.
    """
    key = task.keys[0]
    if key is not None:
        return key
    return f"task-{task.index}"


def _cell_keys(fingerprint: Any) -> tuple:
    """Journal keys of the cells a task completes: a group task's tuple,
    or a one-cell task's single key."""
    return fingerprint if isinstance(fingerprint, tuple) else (fingerprint,)


@dataclass
class _Task:
    index: int
    item: Any
    fingerprint: Any  # Optional[str], or a group task's tuple of them
    attempts: int = 0
    not_before: float = 0.0
    expected: Any = _UNSET  # per-key journaled values under verify_replay
    last_error: Optional[BaseException] = None

    @property
    def group(self) -> bool:
        """Whether the task completes several cells (one value each)."""
        return isinstance(self.fingerprint, tuple)

    @property
    def keys(self) -> tuple:
        """Journal keys of the cells this task completes."""
        return _cell_keys(self.fingerprint)

    def members(self, value: Any) -> tuple:
        """The task's value split into one value per key."""
        return tuple(value) if self.group else (value,)


class _TaskFailure(Exception):
    """Internal wrapper carrying a failure reason across retry handling."""

    def __init__(self, reason: str, cause: Optional[BaseException] = None):
        super().__init__(reason)
        self.reason = reason
        self.cause = cause


class SupervisedExecutor:
    """Runs independent tasks inline or across supervised worker processes.

    Parameters
    ----------
    workers:
        ``None`` / ``1`` — inline, sequential, in index order (callables
        need not be picklable; timeouts are not enforced).  ``N > 1`` —
        per-task futures on a process pool under the watchdog.
    options:
        :class:`ResilienceOptions`; ``None`` means *strict legacy
        semantics*: no journal, no retry, the first task failure is
        re-raised (exactly what the pre-resilience executor did, minus
        the loss of completed work).
    metrics:
        An enabled :class:`~repro.obs.metrics.MetricsRegistry` receives
        the executor's own telemetry — cell counts, retries, per-cell
        wall-clock and queue-wait histograms.  All of it is marked
        *volatile* (wall-clock and scheduling differ between identical
        runs by nature), so ``repro report diff`` ignores it by default.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        options: Optional[ResilienceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self.strict = options is None
        self.options = options or ResilienceOptions(max_retries=0)
        self.metrics = metrics if metrics is not None and metrics.enabled else None
        self.journal: Optional[RunJournal] = None
        if self.options.checkpoint is not None:
            if self.options.resume and not RunJournal.exists(self.options.checkpoint):
                raise FileNotFoundError(
                    f"--resume: no journal at {self.options.checkpoint} "
                    "(pass --checkpoint alone to start one)"
                )
            self.journal = RunJournal(self.options.checkpoint)

    @property
    def parallel(self) -> bool:
        """Whether tasks fan out to worker processes."""
        return self.workers is not None and self.workers > 1

    # -- entry point --------------------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> SweepOutcome:
        """Apply ``fn`` to every item; results index-aligned with ``items``.

        ``fingerprints`` (when given) keys the journal: items whose
        fingerprint is already recorded are replayed, the rest executed
        and recorded as they complete.  An item whose fingerprint is a
        tuple is a group task: ``fn`` returns a sequence with one value
        per key, the item replays only when every key is recorded, and
        ``executed``/``replayed`` count its keys.
        """
        items = list(items)
        if fingerprints is None:
            fingerprints = [None] * len(items)
        if len(fingerprints) != len(items):
            raise ValueError("fingerprints must align with items")
        outcome = SweepOutcome(results=[None] * len(items))
        tasks: List[_Task] = []
        for index, (item, fp) in enumerate(zip(items, fingerprints)):
            task = _Task(index=index, item=item, fingerprint=fp)
            if self.journal is not None and fp is not None:
                looked = [
                    self.journal.get(key) if key is not None else (False, None)
                    for key in task.keys
                ]
                if self.options.verify_replay:
                    task.expected = tuple(
                        value if hit else _UNSET for hit, value in looked
                    )
                elif all(hit for hit, _ in looked):
                    values = [value for _, value in looked]
                    outcome.results[index] = values if task.group else values[0]
                    outcome.replayed += len(values)
                    continue
            tasks.append(task)
        if tasks:
            if self.parallel:
                self._run_parallel(fn, tasks, outcome)
            else:
                self._run_inline(fn, tasks, outcome)
        if self.metrics is not None:
            self._flush_outcome(outcome)
        return outcome

    def _flush_outcome(self, outcome: SweepOutcome) -> None:
        # All volatile: journal state, crashes and scheduling make these
        # legitimately differ between two same-seed runs.
        obs = self.metrics
        obs.counter("sweep.cells.executed", volatile=True).inc(outcome.executed)
        obs.counter("sweep.cells.replayed", volatile=True).inc(outcome.replayed)
        obs.counter("sweep.cells.retried", volatile=True).inc(outcome.retries)
        obs.counter("sweep.cells.timed_out", volatile=True).inc(outcome.timeouts)
        obs.counter("sweep.cells.quarantined", volatile=True).inc(
            sum(len(_cell_keys(r.fingerprint)) for r in outcome.quarantined)
        )
        obs.counter("sweep.pool.restarts", volatile=True).inc(
            outcome.pool_restarts
        )

    def _wall_histogram(self):
        return self.metrics.histogram(
            "sweep.cell.wall_s", DURATION_BUCKETS_S, unit="s", volatile=True
        )

    # -- completion / failure bookkeeping -----------------------------------------

    def _complete(self, task: _Task, value: Any, outcome: SweepOutcome) -> None:
        members = task.members(value)
        if task.expected is not _UNSET:
            for key, member, expected in zip(task.keys, members, task.expected):
                if expected is _UNSET or member == expected:
                    continue
                where = (
                    str(self.journal.record_path(key))
                    if self.journal is not None and key is not None
                    else "<unknown record>"
                )
                raise JournalMismatchError(
                    f"replay of task #{task.index} "
                    f"[{(key or '?')[:12]}] diverged from the "
                    f"journaled result at {where}: journaled value digest "
                    f"{value_digest(expected)}, recomputed "
                    f"{value_digest(member)} — non-deterministic task or a "
                    "journal written by different code"
                )
        outcome.results[task.index] = value
        outcome.executed += len(members)
        if self.journal is not None:
            for key, member in zip(task.keys, members):
                if key is not None:
                    self.journal.record(key, member)

    def _register_failure(
        self,
        task: _Task,
        failure: _TaskFailure,
        pending: "deque[_Task]",
        outcome: SweepOutcome,
    ) -> None:
        """Charge one failed attempt: retry with backoff or quarantine."""
        task.attempts += 1
        task.last_error = failure.cause
        if task.attempts > self.options.max_retries:
            if self.strict and failure.cause is not None:
                raise failure.cause
            if self.strict:
                raise RuntimeError(failure.reason)
            outcome.quarantined.append(
                QuarantineRecord(
                    index=task.index,
                    fingerprint=task.fingerprint,
                    attempts=task.attempts,
                    reason=failure.reason,
                )
            )
            return
        outcome.retries += 1
        task.not_before = time.monotonic() + backoff_delay(
            self.options, _backoff_key(task), task.attempts
        )
        pending.append(task)

    # -- inline path --------------------------------------------------------------

    def _run_inline(
        self, fn: Callable[[Any], Any], tasks: List[_Task], outcome: SweepOutcome
    ) -> None:
        """Sequential supervision: retries and the journal, no preemption.

        ``KeyboardInterrupt`` (and other non-``Exception`` interrupts)
        propagate immediately — completed results are already journaled,
        so an interrupted inline sweep resumes exactly like a crashed
        parallel one.
        """
        wall_hist = self._wall_histogram() if self.metrics is not None else None
        pending = deque(tasks)
        while pending:
            task = pending.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            begun = time.perf_counter()
            try:
                value = fn(task.item)
            except Exception as error:
                self._register_failure(
                    task,
                    _TaskFailure(f"{type(error).__name__}: {error}", error),
                    pending,
                    outcome,
                )
                continue
            if wall_hist is not None:
                wall_hist.observe(time.perf_counter() - begun)
            self._complete(task, value, outcome)

    # -- parallel path ------------------------------------------------------------

    def _run_parallel(
        self, fn: Callable[[Any], Any], tasks: List[_Task], outcome: SweepOutcome
    ) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        wall_hist = queue_hist = None
        if self.metrics is not None:
            wall_hist = self._wall_histogram()
            queue_hist = self.metrics.histogram(
                "sweep.cell.queue_s", DURATION_BUCKETS_S, unit="s", volatile=True
            )
        queue_origin = time.monotonic()
        pending: "deque[_Task]" = deque(tasks)
        inflight: Dict[Any, _Task] = {}
        started: Dict[Any, float] = {}
        pool = _new_pool(self.workers)
        try:
            while pending or inflight:
                now = time.monotonic()
                healthy = self._submit_eligible(
                    fn, pool, pending, inflight, started, now,
                    queue_hist=queue_hist, queue_origin=queue_origin,
                )
                if not healthy and not inflight:
                    # Broken with nothing in flight to charge (a worker
                    # killed while idle): just start a fresh pool.
                    pool = self._respawn(pool, pending, inflight, started, outcome)
                    continue
                if not inflight:
                    # Everything pending is in a backoff window.
                    wakeup = min(task.not_before for task in pending)
                    time.sleep(max(0.0, wakeup - time.monotonic()))
                    continue
                done, _ = wait(
                    set(inflight), timeout=0.1, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    task = inflight.pop(future)
                    begun = started.pop(future)
                    error = future.exception()
                    if error is None:
                        if wall_hist is not None:
                            wall_hist.observe(time.monotonic() - begun)
                        self._complete(task, future.result(), outcome)
                    elif isinstance(error, BrokenProcessPool):
                        # The culprit is unknowable from the parent side, so
                        # every task caught in the broken pool is charged one
                        # attempt: innocents succeed on retry, the poison
                        # task keeps breaking pools until quarantined.
                        broken = True
                        self._register_failure(
                            task,
                            _TaskFailure(
                                "worker process died mid-task "
                                "(BrokenProcessPool)",
                                error,
                            ),
                            pending,
                            outcome,
                        )
                    else:
                        self._register_failure(
                            task,
                            _TaskFailure(f"{type(error).__name__}: {error}", error),
                            pending,
                            outcome,
                        )
                if broken:
                    pool = self._respawn(pool, pending, inflight, started, outcome)
                    continue
                overdue = self._overdue(inflight, started)
                if overdue:
                    outcome.timeouts += len(overdue)
                    for future in overdue:
                        task = inflight.pop(future)
                        started.pop(future)
                        self._register_failure(
                            task,
                            _TaskFailure(
                                "exceeded task timeout of "
                                f"{self.options.task_timeout:g}s"
                            ),
                            pending,
                            outcome,
                        )
                    # A pool cannot cancel a running call: killing the
                    # workers is the only preemption there is.  Innocent
                    # in-flight neighbours are requeued without an attempt
                    # charge.
                    pool = self._respawn(pool, pending, inflight, started, outcome)
        except BaseException:
            _kill_pool(pool)
            raise
        pool.shutdown(wait=True)

    def _submit_eligible(
        self, fn, pool, pending, inflight, started, now,
        queue_hist=None, queue_origin=0.0,
    ) -> bool:
        """Fill the pool with backoff-eligible tasks, up to the worker count.

        In-flight submissions are capped at ``workers`` so every
        submitted task starts (almost) immediately — which is what makes
        submission time an honest proxy for start time in the watchdog.
        Returns ``False`` if the pool turned out to be broken.
        """
        from concurrent.futures.process import BrokenProcessPool

        for _ in range(len(pending)):
            if len(inflight) >= (self.workers or 1):
                break
            task = pending.popleft()
            if task.not_before > now:
                pending.append(task)  # rotate: try the next one
                continue
            try:
                future = pool.submit(fn, task.item)
            except BrokenProcessPool:
                # A worker died after the last wait returned.  Its
                # futures surface the breakage on the next wait, which
                # charges them and respawns the pool; this task never
                # ran, so it goes back un-charged.
                pending.appendleft(task)
                return False
            inflight[future] = task
            started[future] = time.monotonic()
            if queue_hist is not None:
                queue_hist.observe(started[future] - queue_origin)
        return True

    def _overdue(self, inflight, started) -> List[Any]:
        budget = self.options.task_timeout
        if budget is None:
            return []
        now = time.monotonic()
        return [
            future
            for future in inflight
            if not future.done() and now - started[future] > budget
        ]

    def _respawn(self, pool, pending, inflight, started, outcome):
        """Kill the pool, requeue survivors un-charged, start a fresh pool."""
        for task in sorted(inflight.values(), key=lambda t: t.index, reverse=True):
            pending.appendleft(task)
        inflight.clear()
        started.clear()
        _kill_pool(pool)
        outcome.pool_restarts += 1
        return _new_pool(self.workers)


def _new_pool(workers: int):
    """A fresh process pool; an inline or fully replayed sweep never
    loads the pool stack (``concurrent.futures``, ``multiprocessing``)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _kill_pool(pool) -> None:
    """Hard-stop a pool: SIGKILL its workers, then tear down the plumbing."""
    processes = dict(getattr(pool, "_processes", None) or {})
    for process in processes.values():
        try:
            process.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
