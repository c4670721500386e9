"""The sweep daemon: lease-based dispatch, checkpointed jobs, drain.

:class:`SweepService` is a single-threaded asyncio server (all state
mutates on the event loop; backend threads marshal in with
``call_soon_threadsafe``) wrapped around three pieces of bookkeeping:

* the :class:`~repro.service.jobs.JobTable`, checkpointed atomically on
  every transition so a SIGKILL'd server restarts into a consistent
  job table;
* the :class:`~repro.service.leases.LeaseTable` — every dispatched
  shard is claimed under a TTL lease renewed by completion heartbeats,
  so a dead or hung attempt is detected by silence and the shard is
  re-dispatched (resuming from its journal bit-identically);
* a pluggable :class:`~repro.service.backend.Backend` that actually
  runs shards.

Lifecycle
---------
``submit`` is admission-controlled: a full job table is refused with
``429`` and a draining server with ``503`` — explicit shedding, never
unbounded queueing.  ``SIGTERM`` (or the ``drain`` op) starts a
graceful drain: admission stops, admitted jobs run to completion (their
cells journaled as they finish), then the server checkpoints, removes
its endpoint, and exits cleanly.  A crash mid-grid loses only
bookkeeping: on restart, leased shards return to pending, and their
journals replay every completed cell.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..experiments.sweep import (
    MACRunSpec,
    plan_shards,
    spec_fingerprint,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NullTracer
from ..resilience import RunJournal
from . import wire
from .backend import Backend, InProcessBackend, ShardWork
from .grids import expand_grid, summarize_cell
from .jobs import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    SHARD_DONE,
    SHARD_LEASED,
    SHARD_PENDING,
    TERMINAL_STATES,
    JobRecord,
    JobTable,
    ShardRecord,
)
from .leases import LeaseTable

__all__ = ["ServiceConfig", "SweepService", "ServiceThread", "serve"]

#: Name of the results layout written under ``<state>/results/``.
RESULTS_SCHEMA = "repro-service-results-v1"

#: Default cells per dispatch shard: one shard is usually one arm's
#: seed cohort, small enough that a grid still spreads across the
#: backend slots.
DEFAULT_SHARD_SIZE = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the daemon needs, as primitives (CLI-mappable)."""

    #: Durable state root: job table, endpoint file, journals, results.
    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    #: Admission bound: active (non-terminal) jobs beyond this are 429'd.
    max_jobs: int = 8
    #: Lease TTL in seconds.  Renewed on every completed cell, so it
    #: bounds *silence*, not shard runtime: a shard making progress can
    #: run forever; one that stops heartbeating this long is declared
    #: dead and re-dispatched.
    lease_ttl: float = 30.0
    #: Cells per dispatch shard (arm-grouped; see ``plan_shards``).
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Concurrent in-flight shards.
    backend_slots: int = 2
    #: Worker processes per shard sweep (None = inline).
    sweep_workers: Optional[int] = None
    #: Per-cell wall-clock budget inside a shard (None = unbounded).
    task_timeout: Optional[float] = None
    #: Per-cell retry budget inside a shard (then quarantine).
    max_retries: int = 2
    #: Scheduler tick in seconds (lease expiry + dispatch cadence).
    poll_interval: float = 0.05

    def __post_init__(self):
        if self.max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )

    @property
    def state_path(self) -> Path:
        return Path(self.state_dir)

    @property
    def table_path(self) -> Path:
        return self.state_path / "jobs.json"

    @property
    def endpoint_path(self) -> Path:
        return self.state_path / "endpoint.json"

    def journal_dir(self, job_id: str) -> Path:
        return self.state_path / "journals" / job_id

    def results_path(self, job_id: str) -> Path:
        return self.state_path / "results" / f"{job_id}.json"


class SweepService:
    """One daemon instance.  Create, ``await start()``, ``await
    run_until_stopped()`` — or drive it from :class:`ServiceThread`."""

    def __init__(
        self,
        config: ServiceConfig,
        backend: Optional[Backend] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.config = config
        self.backend = backend or InProcessBackend(
            slots=config.backend_slots,
            sweep_workers=config.sweep_workers,
            task_timeout=config.task_timeout,
            max_retries=config.max_retries,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry(False)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.table: Optional[JobTable] = None
        self.leases = LeaseTable()
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self._started_at = 0.0
        self._drain_started: Optional[float] = None
        self._specs_cache: Dict[str, List[MACRunSpec]] = {}

    # -- lifecycle ----------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    #: Counters registered up front, so a metrics report always shows
    #: the whole robustness set — "0 leases expired" is evidence, a
    #: missing counter is ambiguity.
    _COUNTERS = (
        "service.jobs.submitted",
        "service.jobs.completed",
        "service.jobs.failed",
        "service.jobs.cancelled",
        "service.jobs.rejected",
        "service.jobs.recovered",
        "service.shards.dispatched",
        "service.shards.redispatched",
        "service.shards.completed",
        "service.shards.recovered",
        "service.shards.stale_results",
        "service.leases.granted",
        "service.leases.renewed",
        "service.leases.expired",
        "service.cells.executed",
        "service.cells.replayed",
        "service.cells.heartbeats",
    )

    async def start(self) -> None:
        """Recover state, bind the socket, publish the endpoint."""
        self._started_at = time.monotonic()
        for name in self._COUNTERS:
            self.metrics.counter(name)
        self.config.state_path.mkdir(parents=True, exist_ok=True)
        self.table = JobTable.load(self.config.table_path)
        jobs_touched, shards_reset = self.table.recover()
        if shards_reset:
            self.metrics.counter("service.jobs.recovered").inc(jobs_touched)
            self.metrics.counter("service.shards.recovered").inc(shards_reset)
            self.tracer.instant(
                "service.recover", jobs=jobs_touched, shards=shards_reset
            )
        self.table.save()
        loop = asyncio.get_running_loop()
        self.backend.start(loop)
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._write_endpoint()
        self._scheduler = loop.create_task(self._schedule_loop())
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or platform without signal support

    def _write_endpoint(self) -> None:
        payload = json.dumps(
            {
                "schema": wire.WIRE_SCHEMA,
                "host": self.config.host,
                "port": self.port,
                "pid": os.getpid(),
            },
            indent=2,
        ).encode()
        tmp = self.config.endpoint_path.with_suffix(".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, self.config.endpoint_path)

    def initiate_drain(self) -> None:
        """Stop admitting; finish admitted jobs; then stop cleanly."""
        if not self.draining:
            self.draining = True
            self._drain_started = time.monotonic()
            self.tracer.instant("service.drain.start")

    async def run_until_stopped(self) -> None:
        """Block until drain (signal or op) completes."""
        await self._stopped.wait()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.backend.close()
        if self.table is not None:
            self.table.save()
        try:
            self.config.endpoint_path.unlink()
        except OSError:
            pass
        if self._drain_started is not None:
            self.metrics.gauge("service.drain.wall_s", unit="s").set(
                time.monotonic() - self._drain_started
            )
        self.tracer.instant("service.drain.done")
        self._stopped.set()

    # -- scheduler ----------------------------------------------------------------

    async def _schedule_loop(self) -> None:
        try:
            while True:
                dirty = self._expire_leases()
                dirty = self._dispatch() or dirty
                dirty = self._sweep_finalizable() or dirty
                if dirty:
                    self.table.save()
                self.metrics.gauge("service.queue.depth").set(
                    self.table.pending_shards()
                )
                if self.draining and self._drained():
                    await self._shutdown()
                    return
                await asyncio.sleep(self.config.poll_interval)
        except asyncio.CancelledError:  # pragma: no cover - teardown path
            raise

    def _drained(self) -> bool:
        return not self.table.active_jobs() and len(self.leases) == 0

    def _expire_leases(self) -> bool:
        """Declare silent attempts dead; their shards go back to pending."""
        expired = self.leases.expire(time.monotonic())
        for lease in expired:
            self.metrics.counter("service.leases.expired").inc()
            self.tracer.instant(
                "service.lease.expired",
                job=lease.job_id,
                shard=lease.shard_id,
                token=lease.token,
            )
            job = self.table.get(lease.job_id)
            if job is None or job.state in TERMINAL_STATES:
                continue
            shard = job.shards[lease.shard_id]
            if shard.state == SHARD_LEASED and shard.attempts == lease.token:
                shard.state = SHARD_PENDING
        return bool(expired)

    def _dispatch(self) -> bool:
        """Hand pending shards to the backend while it has slots."""
        dirty = False
        free = getattr(self.backend, "free_slots", self.backend.slots)
        while free > 0:
            nxt = self.table.next_pending()
            if nxt is None:
                break
            job, shard = nxt
            self._dispatch_shard(job, shard)
            dirty = True
            free -= 1
        return dirty

    def _dispatch_shard(self, job: JobRecord, shard: ShardRecord) -> None:
        shard.attempts += 1
        shard.state = SHARD_LEASED
        if shard.attempts > 1:
            shard.redispatches += 1
            self.metrics.counter("service.shards.redispatched").inc()
        if job.state == JOB_QUEUED:
            job.state = JOB_RUNNING
        lease = self.leases.grant(
            job.job_id,
            shard.shard_id,
            token=shard.attempts,
            ttl=self.config.lease_ttl,
            now=time.monotonic(),
        )
        self.metrics.counter("service.leases.granted").inc()
        self.metrics.counter("service.shards.dispatched").inc()
        specs = self._job_specs(job)
        shard_specs = [specs[i] for i in shard.spec_indices]
        work = ShardWork(
            job_id=job.job_id,
            shard_id=shard.shard_id,
            token=lease.token,
            specs=shard_specs,
            fingerprints=[spec_fingerprint(s) for s in shard_specs],
            journal_dir=str(self.config.journal_dir(job.job_id)),
        )
        asyncio.get_running_loop().create_task(self._run_shard(work))

    def _job_specs(self, job: JobRecord) -> List[MACRunSpec]:
        """Expansion is deterministic, so recovered jobs re-expand to
        the exact grid (and journal keys) they were submitted as."""
        if job.job_id not in self._specs_cache:
            self._specs_cache[job.job_id] = expand_grid(job.grid)
        return self._specs_cache[job.job_id]

    async def _run_shard(self, work: ShardWork) -> None:
        def heartbeat(cells: int) -> None:
            if self.leases.renew(
                work.job_id, work.shard_id, work.token, time.monotonic()
            ):
                self.metrics.counter("service.leases.renewed").inc()
                self.metrics.counter("service.cells.heartbeats").inc()

        with self.tracer.span(
            "service.shard",
            job=work.job_id,
            shard=work.shard_id,
            token=work.token,
            cells=len(work.specs),
        ):
            try:
                result = await self.backend.run_shard(work, heartbeat)
            except Exception as error:  # noqa: BLE001 - infra failure -> job fails
                self._shard_infra_failure(work, error)
                return
        self._shard_finished(work, result)

    def _shard_infra_failure(self, work: ShardWork, error: Exception) -> None:
        """An exception *around* the sweep (schema error, backend bug) —
        distinct from cell failures, which the sweep retries and
        quarantines internally.  Fail the job loudly."""
        if not self.leases.release(work.job_id, work.shard_id, work.token):
            return  # a newer attempt owns this shard now
        job = self.table.get(work.job_id)
        if job is None or job.state in TERMINAL_STATES:
            return
        job.state = JOB_FAILED
        job.error = f"shard {work.shard_id}: {type(error).__name__}: {error}"
        self.leases.release_job(job.job_id)
        self.metrics.counter("service.jobs.failed").inc()
        self.table.save()

    def _shard_finished(self, work: ShardWork, result) -> None:
        if not self.leases.release(work.job_id, work.shard_id, work.token):
            # Fenced out: the lease expired (or was re-granted) while we
            # ran.  The attempt's journal writes are still valid — only
            # its bookkeeping is discarded.
            self.metrics.counter("service.shards.stale_results").inc()
            return
        job = self.table.get(work.job_id)
        if job is None or job.state in TERMINAL_STATES:
            return
        shard = job.shards[work.shard_id]
        shard.state = SHARD_DONE
        self.metrics.counter("service.shards.completed").inc()
        self.metrics.counter("service.cells.executed").inc(result.executed)
        self.metrics.counter("service.cells.replayed").inc(result.replayed)
        if result.retries:
            self.metrics.counter("service.sweep.retries").inc(result.retries)
        if result.timeouts:
            self.metrics.counter("service.sweep.timeouts").inc(result.timeouts)
        if result.pool_restarts:
            self.metrics.counter("service.sweep.pool_restarts").inc(
                result.pool_restarts
            )
        known = {hole["index"] for hole in job.holes}
        for record in result.quarantined:
            index = shard.spec_indices[int(record["position"])]
            if index not in known:
                job.holes.append(
                    {
                        "index": index,
                        "reason": str(record["reason"]),
                        "attempts": int(record["attempts"]),
                    }
                )
        if job.all_shards_done:
            self._finalize(job)
        self.table.save()

    def _finalize(self, job: JobRecord) -> None:
        """Rebuild the job's summaries *from its journal* and write the
        results file.  Journal-sourced (not accumulated in memory), so
        finalization works identically for a job finished across a
        server restart."""
        specs = self._job_specs(job)
        journal = RunJournal(self.config.journal_dir(job.job_id))
        known = {hole["index"] for hole in job.holes}
        summaries: List[Optional[Dict[str, Any]]] = []
        for index, spec in enumerate(specs):
            hit, value = journal.get(spec_fingerprint(spec))
            if hit:
                summaries.append(summarize_cell(spec, value))
            else:
                summaries.append(None)
                if index not in known:
                    job.holes.append(
                        {
                            "index": index,
                            "reason": "missing from journal at finalize",
                            "attempts": 0,
                        }
                    )
                    known.add(index)
        payload = {
            "schema": RESULTS_SCHEMA,
            "job_id": job.job_id,
            "grid": job.grid,
            "cells": job.cells,
            "holes": job.holes,
            "summaries": summaries,
        }
        path = self.config.results_path(job.job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        os.replace(tmp, path)
        job.state = JOB_COMPLETED
        self.metrics.counter("service.jobs.completed").inc()
        self.tracer.instant(
            "service.job.completed", job=job.job_id, holes=len(job.holes)
        )
        self._specs_cache.pop(job.job_id, None)

    def _sweep_finalizable(self) -> bool:
        """Catch jobs whose last shard finished just before a crash:
        all shards done, not yet finalized."""
        dirty = False
        for job in self.table.active_jobs():
            if job.shards and job.all_shards_done:
                self._finalize(job)
                dirty = True
        return dirty

    # -- wire ops -----------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await reader.readline()
                if not line:
                    return
                op, message = wire.parse_request(wire.decode(line))
                response = self._handle_op(op, message)
            except wire.ServiceError as error:
                response = wire.refusal(error.code, str(error.args[0]))
            except Exception as error:  # noqa: BLE001 - never drop a connection
                response = wire.refusal(
                    wire.INTERNAL, f"{type(error).__name__}: {error}"
                )
            writer.write(wire.encode(response))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _handle_op(self, op: str, message: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return wire.ok(
                pid=os.getpid(),
                draining=self.draining,
                uptime_s=time.monotonic() - self._started_at,
                jobs=self.table.counts(),
                leases=len(self.leases),
                backend=self.backend.describe(),
            )
        if op == "submit":
            return self._op_submit(message)
        if op == "status":
            return self._op_status(message)
        if op == "jobs":
            return wire.ok(
                jobs=[
                    job.snapshot()
                    for job in sorted(
                        self.table.jobs.values(), key=lambda j: j.seq
                    )
                ]
            )
        if op == "cancel":
            return self._op_cancel(message)
        if op == "drain":
            self.initiate_drain()
            return wire.ok(draining=True, active=len(self.table.active_jobs()))
        if op == "metrics":
            snapshot = self.metrics.to_dict() if self.metrics.enabled else None
            return wire.ok(metrics=snapshot)
        raise wire.ServiceError(wire.BAD_REQUEST, f"unhandled op {op!r}")

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self.draining:
            raise wire.ServiceError(
                wire.DRAINING, "server is draining; not admitting new jobs"
            )
        active = len(self.table.active_jobs())
        if active >= self.config.max_jobs:
            self.metrics.counter("service.jobs.rejected").inc()
            raise wire.ServiceError(
                wire.BUSY,
                f"job table full ({active}/{self.config.max_jobs} active); "
                "retry after a job completes",
            )
        grid = message.get("grid")
        try:
            specs = expand_grid(grid)
        except ValueError as error:
            raise wire.ServiceError(wire.BAD_REQUEST, str(error)) from error
        shard_plan = plan_shards(specs, self.config.shard_size)
        job = self.table.submit(dict(grid), shard_plan, cells=len(specs))
        self._specs_cache[job.job_id] = specs
        self.table.save()
        self.metrics.counter("service.jobs.submitted").inc()
        self.tracer.instant(
            "service.job.submitted",
            job=job.job_id,
            cells=len(specs),
            shards=len(shard_plan),
        )
        return wire.ok(
            job_id=job.job_id, cells=len(specs), shards=len(shard_plan)
        )

    def _require_job(self, message: Dict[str, Any]) -> JobRecord:
        job_id = message.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise wire.ServiceError(wire.BAD_REQUEST, "job_id is required")
        job = self.table.get(job_id)
        if job is None:
            raise wire.ServiceError(wire.NOT_FOUND, f"no such job {job_id!r}")
        return job

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job = self._require_job(message)
        response = wire.ok(job=job.snapshot())
        results_path = self.config.results_path(job.job_id)
        if job.state == JOB_COMPLETED and results_path.exists():
            response["results_path"] = str(results_path)
            if message.get("results"):
                with open(results_path, "r", encoding="utf-8") as handle:
                    response["results"] = json.load(handle)
        return response

    def _op_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job = self._require_job(message)
        if job.state in TERMINAL_STATES:
            return wire.ok(job_id=job.job_id, state=job.state, already=True)
        job.state = JOB_CANCELLED
        released = self.leases.release_job(job.job_id)
        self.table.save()
        self.metrics.counter("service.jobs.cancelled").inc()
        self._specs_cache.pop(job.job_id, None)
        return wire.ok(job_id=job.job_id, state=job.state, leases_released=released)


async def serve(
    config: ServiceConfig,
    backend: Optional[Backend] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> None:
    """Run one daemon to drain completion (the ``repro serve`` body)."""
    service = SweepService(config, backend=backend, metrics=metrics, tracer=tracer)
    await service.start()
    await service.run_until_stopped()


class ServiceThread:
    """A daemon on a background thread with its own event loop.

    Test and embedding helper: ``start()`` returns once the endpoint is
    published; ``drain()`` asks for graceful shutdown and joins.  The
    service object itself must only be touched via its wire interface
    (or ``call_soon_threadsafe``) — its state lives on the loop thread.
    """

    def __init__(
        self,
        config: ServiceConfig,
        backend: Optional[Backend] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        import threading

        self.config = config
        self.service = SweepService(
            config, backend=backend, metrics=metrics, tracer=tracer
        )
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="sweep-service", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
        except RuntimeError:
            pass  # kill(): loop stopped mid-run — the simulated crash
        finally:
            self.loop.close()

    async def _main(self) -> None:
        try:
            await self.service.start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._startup_error = error
            self._ready.set()
            raise
        self._ready.set()
        await self.service.run_until_stopped()

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def drain(self, timeout: float = 60.0) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.initiate_drain)
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("service did not drain in time")

    def kill(self, timeout: float = 10.0) -> None:
        """Simulated crash: stop the loop with no drain, no checkpoint
        flush, no endpoint cleanup — what SIGKILL leaves behind.  The
        chaos tests restart a fresh service on the same state dir and
        require full recovery."""
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("service loop did not stop in time")

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()
