"""Parallel sweep execution for simulation experiment grids.

Every sweep in this package — Figure 7's simulation arms, the ablation
benches, the sensitivity and robustness grids — reduces to the same
shape: a list of independent simulator runs, each fully described by a
small picklable spec, whose results are consumed in submission order.
:class:`SweepExecutor` owns that shape once:

* ``workers=None`` (or 1) runs inline — no subprocesses, no pickling
  requirements, bit-identical to the historical sequential loops;
* ``workers=N`` fans the specs over a supervised process pool, one
  task per trajectory.  Because every task carries its own seed and
  tasks share no state, the merged results are **independent of the
  worker count** —
  the determinism tests in ``tests/experiments/test_sweep.py`` hold the
  executor to that.

One trajectory per task
-----------------------
A spec's ``deadline`` only scores deliveries; the sample path reads K
solely through the policy's ``discard_deadline``.  So
:meth:`SweepExecutor.run_specs` groups the specs it must run by every
field except ``deadline`` (:func:`trajectory_key`), runs each group
once and scores every member's deadline from that run
(:func:`run_sweep_task`).  The uncontrolled FCFS, LCFS and RANDOM arms
have no sender discard, so their cells at one seed share a group across
K; a controlled spec's K is in its policy, so it is always a group of
one, which runs as a plain :func:`run_spec`.  Each member still gets its
own result, journal record and metrics registry, equal to a separate
run's.

Seed discipline
---------------
A sweep must never derive task seeds from its worker layout.  Tasks
either carry explicit seeds (the historical grids pin them) or derive
them ahead of submission with :func:`derive_seeds`, which spawns
independent children from one ``SeedSequence`` — stable under
re-chunking, resumable, and collision-free by construction.

Crash tolerance
---------------
Both paths run under :class:`~repro.resilience.SupervisedExecutor`.
Without :class:`~repro.resilience.ResilienceOptions` the semantics are
strict (a task failure raises, as the historical loops did); with
options, the sweep checkpoints completed cells to a content-addressed
:class:`~repro.resilience.RunJournal`, retries transient failures on
fresh worker processes, survives ``BrokenProcessPool``, quarantines
poison specs, and resumes from the journal on re-invocation.  The
outcome of the last ``run_specs`` call (replay counts,
quarantine records) is kept on :attr:`SweepExecutor.last_outcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..des.rng import RandomStreams
from ..obs.metrics import MetricsRegistry
from ..resilience import (
    JournalMismatchError,
    ResilienceOptions,
    RunJournal,
    SupervisedExecutor,
    SweepOutcome,
    fingerprint,
    value_digest,
)
from ..stats.sequential import SequentialConfig, WaveDecision, decide_wave

if TYPE_CHECKING:
    from ..core.policy import ControlPolicy
    from ..faults import FaultModel, FeedbackFaultModel
    from ..mac.simulator import MACSimResult, WindowMACSimulator

__all__ = [
    "MACRunSpec",
    "run_spec",
    "run_spec_with_metrics",
    "run_sweep_task",
    "spec_fingerprint",
    "trajectory_key",
    "SweepExecutor",
    "derive_seeds",
    "ResilienceOptions",
    "arm_key",
    "SequentialEstimate",
    "run_sequential",
    "sequential_decision_fingerprint",
    "sequential_note",
    "CellEstimate",
    "cell_estimates",
]


@dataclass(frozen=True)
class MACRunSpec:
    """One simulator run, fully described and picklable.

    Attributes mirror :class:`~repro.mac.simulator.WindowMACSimulator`'s
    constructor plus the run horizon.  ``stream_seed`` (when given)
    builds the simulator with a :class:`~repro.des.rng.RandomStreams`
    family — the construction the robustness sweeps use — while ``seed``
    is the plain single-generator construction of the historical grids;
    the two draw differently, so specs must preserve whichever the
    call site historically used.  ``backend`` is the simulator's engine
    selector (``"compiled"`` or ``"reference"``; bit-identical results).
    """

    policy: ControlPolicy
    arrival_rate: float
    transmission_slots: int
    horizon: float
    warmup: float
    n_stations: int = 200
    deadline: Optional[float] = None
    loss_definition: str = "true"
    seed: int = 0
    stream_seed: Optional[int] = None
    workload: Optional[object] = None
    fault_model: Optional[FaultModel] = None
    backend: str = "compiled"
    feedback_faults: Optional[FeedbackFaultModel] = None

    def __post_init__(self):
        # Bad grid parameters must fail here, at spec construction, with
        # a message naming the field — not deep inside a worker process
        # where the traceback points at simulator internals.
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {self.arrival_rate}"
            )
        if self.transmission_slots < 1:
            raise ValueError(
                f"transmission length must be >= 1 slot, "
                f"got {self.transmission_slots}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError(
                f"warmup must satisfy 0 <= warmup < horizon, got "
                f"warmup={self.warmup} with horizon={self.horizon}"
            )
        if self.n_stations < 1:
            raise ValueError(
                f"need at least one station, got {self.n_stations}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.fault_model is not None and self.feedback_faults is not None:
            raise ValueError(
                "fault_model and feedback_faults are mutually exclusive "
                "on a spec (per-station replica faults vs common-mode "
                "feedback-channel errors)"
            )


def spec_fingerprint(spec: MACRunSpec, instrumented: bool = False) -> str:
    """Content-addressed identity of one run (the journal key).

    Depends only on the spec's fields — never on worker layout,
    submission order, or grid position — so a resumed, reordered or
    narrowed grid replays exactly the cells whose parameters match.
    ``instrumented`` runs journal ``(result, metrics)`` pairs, so they
    live in their own fingerprint namespace — a journal of plain results
    can never satisfy (or be corrupted by) a metrics-collecting resume.
    """
    tag = "mac-run-spec-with-metrics" if instrumented else "mac-run-spec"
    return fingerprint((tag, spec))


def _build_simulator(
    spec: MACRunSpec, metrics: Optional[MetricsRegistry] = None
) -> WindowMACSimulator:
    # Imported on first use: an analytic report never loads the engine.
    from ..mac.simulator import WindowMACSimulator

    kwargs = dict(
        arrival_rate=spec.arrival_rate,
        transmission_slots=spec.transmission_slots,
        n_stations=spec.n_stations,
        deadline=spec.deadline,
        loss_definition=spec.loss_definition,
        workload=spec.workload,
        fault_model=spec.fault_model,
        feedback_faults=spec.feedback_faults,
        backend=spec.backend,
        metrics=metrics,
    )
    if spec.stream_seed is not None:
        kwargs["streams"] = RandomStreams(spec.stream_seed)
    else:
        kwargs["seed"] = spec.seed
    return WindowMACSimulator(spec.policy, **kwargs)


def run_spec(spec: MACRunSpec) -> MACSimResult:
    """Execute one spec (module-level, so worker processes can import it)."""
    simulator = _build_simulator(spec)
    return simulator.run(spec.horizon, warmup_slots=spec.warmup)


def run_spec_with_metrics(spec: MACRunSpec):
    """Execute one spec under a fresh registry; returns ``(result, state)``.

    ``state`` is ``MetricsRegistry.to_dict()`` — plain picklable data, so
    the pair crosses the process-pool boundary (and the journal) without
    dragging metric objects along.  The registry is per-task, which is
    what makes the parent-side merge independent of worker count: merge
    in submission order and the layout cancels out.
    """
    registry = MetricsRegistry()
    simulator = _build_simulator(spec, metrics=registry)
    result = simulator.run(spec.horizon, warmup_slots=spec.warmup)
    return result, registry.to_dict()


def run_sweep_task(task, instrumented: bool = False):
    """Execute one task of a grouped sweep (module-level, pool-picklable).

    A lone :class:`MACRunSpec` is handed to :func:`run_spec` (or
    :func:`run_spec_with_metrics`).  A tuple of specs equal except for
    ``deadline`` is one trajectory: its first member runs once, and
    every member gets that run's result rescored against its own
    deadline (:func:`~repro.mac.simulator.rescore`) — with
    ``instrumented``, paired with the run's registry rescored the same
    way (:func:`~repro.mac.simulator.rescore_metrics`).  Each entry
    equals a separate run of its member.
    """
    if isinstance(task, MACRunSpec):
        return run_spec_with_metrics(task) if instrumented else run_spec(task)
    from ..mac.simulator import rescore, rescore_metrics

    first = task[0]
    registry = MetricsRegistry() if instrumented else None
    simulator = _build_simulator(first, metrics=registry)
    result = simulator.run(first.horizon, warmup_slots=first.warmup)
    results = [
        rescore(result, simulator.scored_waits, spec.deadline) for spec in task
    ]
    if not instrumented:
        return results
    state = registry.to_dict()
    return [(member, rescore_metrics(state, member)) for member in results]


def derive_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` independent seeds spawned deterministically from one root.

    Uses :meth:`numpy.random.SeedSequence.spawn`, so the children are
    statistically independent and the list depends only on
    ``(base_seed, n)`` — never on worker count or chunking.
    """
    if n < 0:
        raise ValueError(f"need a non-negative count, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


def arm_key(spec: MACRunSpec) -> str:
    """Content hash of a spec's *arm* — every field except the seed.

    Keys sequential wave decisions: one arm, many seeds.
    """
    return fingerprint(("mac-arm", replace(spec, seed=0)))


def trajectory_key(spec: MACRunSpec) -> str:
    """Content hash of a spec's sample path — every field except ``deadline``.

    Specs with equal keys simulate the same trajectory and differ only
    in how its deliveries are scored, so one run serves them all.
    """
    return fingerprint(("mac-trajectory", replace(spec, deadline=None)))


class SweepExecutor:
    """Runs independent sweep tasks, inline or across worker processes.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` — run inline in submission order (no
        subprocesses, no pickling).  ``N > 1`` — fan out over a
        supervised process pool; specs and results cross to the workers
        pickled.
    resilience:
        ``None`` (default) — strict semantics: no checkpoint, no retry,
        the first task failure raises.  A
        :class:`~repro.resilience.ResilienceOptions` — journal replay
        and checkpointing, per-task timeouts, bounded retry and
        quarantine; quarantined tasks leave ``None`` holes in the
        returned list and are reported on :attr:`last_outcome`.
    metrics:
        An enabled :class:`~repro.obs.metrics.MetricsRegistry` turns on
        instrumentation: executor-level counters (cells executed,
        retried, wall-clock histograms) land on this registry directly,
        and ``run_specs`` switches each task to its instrumented form
        (:func:`run_spec_with_metrics`) so per-spec simulator metrics are
        collected in the workers, merged in submission order, and folded
        in here too.  ``None`` or a disabled registry costs nothing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        resilience: Optional[ResilienceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self.resilience = resilience
        self.metrics = metrics if metrics is not None and metrics.enabled else None
        #: Outcome of the most recent ``run_specs`` call.
        self.last_outcome: Optional[SweepOutcome] = None
        #: Merged per-run simulator metrics of the last ``run_specs``
        #: call (worker-count invariant; ``None`` until an instrumented
        #: sweep has run).
        self.last_sim_metrics: Optional[MetricsRegistry] = None

    @property
    def parallel(self) -> bool:
        """Whether this executor fans out to worker processes."""
        return self.workers is not None and self.workers > 1

    def _engine(self, n_tasks: int) -> SupervisedExecutor:
        # A single task never justifies a pool (matches the historical
        # inline shortcut); the supervised inline path still journals.
        workers = self.workers if n_tasks > 1 else None
        if workers is not None and workers > 1:
            # Load the engine once, before the fork: workers inherit it.
            from ..mac import simulator  # noqa: F401
        return SupervisedExecutor(workers, self.resilience, metrics=self.metrics)

    def run_specs(self, specs: Sequence[MACRunSpec]) -> List[MACSimResult]:
        """Run a list of :class:`MACRunSpec`, results in spec order.

        Under resilience options with a checkpoint, journaled specs are
        replayed *before* dispatch, so a fully journaled sweep never
        starts the supervisor (``--verify-replay`` instead hands every
        spec to it for recomputation).  The specs left are grouped by
        :func:`trajectory_key`, and each group is one
        :func:`run_sweep_task`: a group of one runs its spec through
        :func:`run_spec`, a larger group runs once and is scored at
        every member's deadline.  Members are journaled, verified and
        counted in ``last_outcome`` one spec at a time, under
        :func:`spec_fingerprint`.  A quarantined group leaves ``None``
        at every member's index — callers must surface the hole (the
        experiment drivers mark it in their tables).

        With a registry attached, tasks run instrumented
        (:func:`run_spec_with_metrics`); per-spec registries come back
        with the results and are merged **in spec submission order**
        (never completion order), so the merged metrics are identical
        for any worker count — the property the worker-invariance tests
        pin.
        """
        specs = list(specs)
        instrumented = self.metrics is not None
        fps: Optional[List[str]] = None
        if self.resilience is not None:
            fps = [spec_fingerprint(spec, instrumented) for spec in specs]
        entries: List[Optional[Any]] = [None] * len(specs)
        todo = list(range(len(specs)))
        resilience = self.resilience
        if (
            fps is not None
            and resilience.checkpoint is not None
            and not resilience.verify_replay
        ):
            if resilience.resume and not RunJournal.exists(resilience.checkpoint):
                raise FileNotFoundError(
                    f"--resume: no journal at {resilience.checkpoint} "
                    "(pass --checkpoint alone to start one)"
                )
            journal = RunJournal(resilience.checkpoint)
            todo = []
            for index, fp in enumerate(fps):
                hit, value = journal.get(fp)
                if hit:
                    entries[index] = value
                else:
                    todo.append(index)
        replayed = len(specs) - len(todo)
        if replayed and self.metrics is not None:
            self.metrics.counter("sweep.cells.replayed", volatile=True).inc(replayed)

        groups: Dict[str, List[int]] = {}
        for k in todo:
            groups.setdefault(trajectory_key(specs[k]), []).append(k)
        tasks = list(groups.values())
        keys = fps if fps is not None else [None] * len(specs)
        engine_out = SweepOutcome()
        if tasks:
            engine_out = self._engine(len(tasks)).run(
                partial(run_sweep_task, instrumented=instrumented),
                [_per_task(specs, group) for group in tasks],
                [_per_task(keys, group) for group in tasks],
            )
        for group, value in zip(tasks, engine_out.results):
            if len(group) == 1:
                entries[group[0]] = value
            elif value is not None:
                for k, member in zip(group, value):
                    entries[k] = member
        # Supervisor indices count tasks; report one hole per grid index.
        self.last_outcome = replace(
            engine_out,
            results=entries,
            replayed=replayed + engine_out.replayed,
            quarantined=[
                replace(record, index=k, fingerprint=keys[k])
                for record in engine_out.quarantined
                for k in tasks[record.index]
            ],
        )
        return self._fold_results(entries, instrumented)

    def _fold_results(
        self, entries: Sequence, instrumented: bool
    ) -> List[Optional[MACSimResult]]:
        """Unpack raw task entries; merge per-run registries in order."""
        if not instrumented:
            return list(entries)
        results: List[Optional[MACSimResult]] = []
        merged = MetricsRegistry()
        for entry in entries:
            if entry is None:  # quarantine hole: keep it visible
                results.append(None)
                continue
            result, state = entry
            results.append(result)
            merged.merge_from(MetricsRegistry.from_dict(state))
        self.last_sim_metrics = merged
        self.metrics.merge_from(merged)
        return results


def _per_task(values: Sequence, group: Sequence[int]):
    """One task's share of per-spec ``values``: the entry of a group of
    one, a tuple of the members' entries otherwise (the supervisor's
    group-task form)."""
    if len(group) == 1:
        return values[group[0]]
    return tuple(values[k] for k in group)


# -- sequential replication scheduling ----------------------------------------


@dataclass(frozen=True)
class SequentialEstimate:
    """Final per-arm estimate of a sequential sweep.

    ``half_width`` is the last look's half-width at its spending-
    corrected level; drivers that historically rendered ``loss ±
    2·stderr`` should pass ``stderr()`` so the rendered band *is* the
    realized interval.  ``units`` counts the lanes that contributed an
    observation: ``lanes`` minus the ``quarantined`` ones and the
    ``empty`` ones, which ran but resolved no message.
    """

    label: str
    mean: float
    half_width: float
    level: float
    units: int
    lanes: int
    waves: int
    reason: str
    quarantined: int = 0
    decisions: Tuple[WaveDecision, ...] = ()
    empty: int = 0

    def stderr(self) -> float:
        """Half-width rescaled to the ±2σ convention of the tables."""
        return self.half_width / 2.0


def sequential_decision_fingerprint(
    template: MACRunSpec,
    config: SequentialConfig,
    wave: int,
    base_seed: int = 1,
) -> str:
    """Journal key of one arm's wave decision.

    Content-addressed over the arm (seed-independent), the stopping
    configuration, the seed-derivation root, and the wave index:
    resuming with a different ``--ci-target``, lane budget or
    ``--seed`` misses cleanly and re-decides instead of colliding with
    decisions taken under another rule or seeding.  ``base_seed``
    defaults to 1, matching :func:`run_sequential`.
    """
    return fingerprint(
        ("sequential-decision", arm_key(template), config, base_seed, wave)
    )


def _lane_spec(template: MACRunSpec, seed: int) -> MACRunSpec:
    """One lane of an arm at one derived seed.

    Templates carrying ``stream_seed`` (the robustness construction) get
    the lane seed there; plain templates get it as ``seed``.
    """
    if template.stream_seed is not None:
        return replace(template, stream_seed=seed)
    return replace(template, seed=seed)


class _SequentialArm:
    """Mutable per-arm accumulation state for :func:`run_sequential`."""

    def __init__(self, label: str, template: MACRunSpec):
        self.label = label
        self.template = template
        self.fractions: List[float] = []
        self.lost = 0
        self.resolved = 0
        self.lanes = 0          # lanes spent (incl. quarantined and empty)
        self.quarantined = 0
        self.empty = 0          # lanes that resolved no message
        self.previous_n = 0     # usable lanes at the previous look
        self.decisions: List[WaveDecision] = []
        self.stopped = False

    def absorb(self, result: Optional[MACSimResult]) -> None:
        """Fold one lane's result into the accumulated observations."""
        self.lanes += 1
        # A quarantined or empty lane still counts as spent, but adds
        # no observation.
        if result is None:
            self.quarantined += 1
            return
        if result.resolved <= 0:
            self.empty += 1
            return
        self.fractions.append(result.loss_fraction)
        self.lost += result.delivered_late + result.discarded + result.lost_to_faults
        self.resolved += result.resolved


def _metric_label(label: str) -> str:
    """A metric-name-safe rendering of an arm label."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "._-" else "-" for ch in label.lower()
    )
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-")


def _record_decision(
    journal: Optional[RunJournal],
    template: MACRunSpec,
    config: SequentialConfig,
    decision: WaveDecision,
    verify: bool,
    base_seed: int,
) -> None:
    """Journal one wave decision; verify against an existing record.

    A decision is a pure function of the journaled lane results and the
    config, so a resumed run recomputes it bit-identically — a mismatch
    means the stopping rule (or the code behind it) changed under the
    journal, which must fail loudly rather than mix stopping regimes.
    """
    if journal is None:
        return
    fp = sequential_decision_fingerprint(template, config, decision.wave, base_seed)
    hit, recorded = journal.get(fp)
    payload = decision.to_dict()
    if hit:
        if recorded != payload and verify:
            raise JournalMismatchError(
                f"sequential wave decision diverged on replay at "
                f"{journal.record_path(fp)}: journaled "
                f"{value_digest(recorded)} != recomputed "
                f"{value_digest(payload)}"
            )
        return
    journal.record(fp, payload)


def run_sequential(
    arms: Sequence[Tuple[str, MACRunSpec]],
    config: SequentialConfig,
    executor: SweepExecutor,
    base_seed: int = 1,
) -> List[SequentialEstimate]:
    """Run labelled arms in waves until each meets the CI target.

    Each wave flattens every *unstopped* arm's next lanes into one
    :meth:`SweepExecutor.run_specs` call, so the wave's lanes share the
    worker pool exactly as fixed grids do — and journal/resume is
    inherited per lane.  Lane ``i`` of every arm runs at the ``i``-th
    seed derived from ``base_seed``: common random numbers, so arm
    deltas at equal index are paired contrasts on shared draws.  After
    the wave, each arm takes a group-sequential look
    (:func:`repro.stats.sequential.decide_wave`); the decision is
    journaled under a content-addressed key so a resumed run provably
    stops at the identical wave.

    Returns one :class:`SequentialEstimate` per arm, in input order.
    """
    arms = list(arms)
    if not arms:
        return []
    seeds = derive_seeds(base_seed, config.max_replications)
    states = [_SequentialArm(label, template) for label, template in arms]

    journal: Optional[RunJournal] = None
    verify = False
    resilience = executor.resilience
    if resilience is not None and resilience.checkpoint is not None:
        journal = RunJournal(resilience.checkpoint)
        verify = resilience.verify_replay

    wave = 0
    while any(not s.stopped for s in states):
        wave += 1
        live = [s for s in states if not s.stopped]
        # Wave 1 ramps straight to the first permissible look.
        pending: List[Tuple[_SequentialArm, int]] = []
        for state in live:
            target = (
                config.min_replications
                if wave == 1
                else min(state.lanes + config.wave_size, config.max_replications)
            )
            for lane in range(state.lanes, target):
                pending.append((state, lane))
        if not pending:
            break

        results = executor.run_specs(
            [_lane_spec(state.template, seeds[lane]) for state, lane in pending]
        )
        for (state, _lane), result in zip(pending, results):
            state.absorb(result)

        for state in live:
            decision = decide_wave(
                config,
                wave=len(state.decisions) + 1,
                fractions=state.fractions,
                counts=(state.lost, state.resolved),
                previous_n=state.previous_n,
            )
            if not decision.stop and state.lanes >= config.max_replications:
                # Every seed consumed but quarantine holes kept the
                # usable count below max_replications: the arm stops
                # here, and the journaled decision must carry the real
                # cause instead of a dangling "continue".
                decision = replace(
                    decision, stop=True, reason="seed-budget-exhausted"
                )
            state.previous_n = decision.n
            state.decisions.append(decision)
            _record_decision(
                journal, state.template, config, decision, verify, base_seed
            )
            if decision.stop:
                state.stopped = True

    estimates: List[SequentialEstimate] = []
    metrics = executor.metrics
    total_lanes = 0
    for state in states:
        last = state.decisions[-1] if state.decisions else None
        estimate = SequentialEstimate(
            label=state.label,
            mean=last.mean if last else float("nan"),
            half_width=last.half_width if last else float("inf"),
            level=config.level,
            units=state.lanes - state.quarantined - state.empty,
            lanes=state.lanes,
            waves=len(state.decisions),
            reason=last.reason if last else "no-data",
            quarantined=state.quarantined,
            decisions=tuple(state.decisions),
            empty=state.empty,
        )
        estimates.append(estimate)
        total_lanes += state.lanes
        if metrics is not None:
            prefix = f"stats.arm.{_metric_label(state.label)}"
            metrics.counter(f"{prefix}.lanes_spent", volatile=True).inc(
                state.lanes
            )
            metrics.gauge(f"{prefix}.stopping_wave", volatile=True).set(
                float(estimate.waves)
            )
            metrics.gauge(f"{prefix}.half_width", volatile=True).set(
                estimate.half_width
            )
    if metrics is not None:
        metrics.counter("stats.lanes_spent", volatile=True).inc(total_lanes)
        metrics.counter("stats.sequential_arms", volatile=True).inc(len(states))
    return estimates


def sequential_note(
    estimates: Sequence[SequentialEstimate], config: SequentialConfig
) -> str:
    """The sweep-wide lane-spend note of a sequential sweep.

    :func:`cell_estimates` appends it, and every report prints it under
    its table.
    """
    lanes = sum(est.lanes for est in estimates)
    return (
        f"sequential replication: {lanes} lanes across {len(estimates)} "
        f"cells (ci_target={config.ci_target:g}, wilson/obf, crn)"
    )


# -- one estimate per grid cell -------------------------------------------------


@dataclass(frozen=True)
class CellEstimate:
    """One grid cell's loss estimate, or a hole.

    ``runs`` holds the cell's surviving fixed-replication results (empty
    in sequential mode, which pools its lanes instead) and
    ``quarantined`` counts the runs or lanes lost.  A ``hole`` is a cell
    with nothing to estimate from; its ``mean`` and ``stderr`` are NaN.
    """

    mean: float
    stderr: float
    runs: Tuple[MACSimResult, ...] = ()
    quarantined: int = 0
    hole: bool = False


def _no_estimate(estimate: SequentialEstimate) -> str:
    """Why a sequential cell has no estimate: its lanes were quarantined,
    resolved no message, or both."""
    if estimate.quarantined == estimate.lanes:
        cause = "every lane quarantined"
    elif estimate.quarantined == 0:
        cause = "no lane resolved a message"
    else:
        cause = (
            f"{estimate.quarantined} of {estimate.lanes} lanes quarantined, "
            "the rest resolved no message"
        )
    return f"{cause} (no estimate)"


def cell_estimates(
    outcome: Sequence,
    labels: Sequence[str],
    executor: SweepExecutor,
    sequential: Optional[SequentialConfig] = None,
    *,
    sweep: str = "sweep",
    noun: str = "cell",
    telemetry: bool = False,
) -> Tuple[List[CellEstimate], List[str]]:
    """One :class:`CellEstimate` per cell, plus the notes to print under
    the report.

    ``outcome`` is what the driver's runner returned: the
    :meth:`SweepExecutor.run_specs` results, the same number of fixed
    seeds per cell in cell order, or one :class:`SequentialEstimate` per
    cell from :func:`run_sequential` (``sequential`` given).  ``labels``
    name the cells in their notes.

    A cell of one run reports that run's loss and binomial stderr; a
    cell of several reports their mean and the standard error of that
    mean; a sequential cell reports its estimate with ``stderr()``.  A
    fixed cell holding a run that resolved no message has a NaN estimate
    and a note saying so.  The notes are one line per degraded cell, in
    cell order, then the footer: ``"{sweep}: {outcome summary}"`` when
    the fixed sweep replayed or quarantined anything, or the sequential
    lane-spend note (:func:`sequential_note`).  ``noun`` names a
    several-run cell in its partial-quarantine note; ``telemetry`` marks
    a report with per-run telemetry columns, which sequential mode
    leaves unfilled.
    """
    cells: List[CellEstimate] = []
    notes: List[str] = []
    nan = float("nan")
    if sequential is not None:
        for label, estimate in zip(labels, outcome):
            lost = estimate.quarantined
            if estimate.units:
                cells.append(
                    CellEstimate(estimate.mean, estimate.stderr(), quarantined=lost)
                )
            else:
                notes.append(f"{label}: {_no_estimate(estimate)}")
                cells.append(CellEstimate(nan, nan, quarantined=lost, hole=True))
        footer = sequential_note(outcome, sequential)
        if telemetry:
            footer += "; fault telemetry columns not tracked in this mode"
        notes.append(footer)
        return cells, notes

    n = len(outcome) // len(labels) if labels else 0
    for index, label in enumerate(labels):
        runs = tuple(
            run for run in outcome[index * n : (index + 1) * n] if run is not None
        )
        lost = n - len(runs)
        if lost and n == 1:
            notes.append(f"{label}: cell quarantined (no result; see sweep outcome)")
        elif lost:
            notes.append(
                f"{label}: {lost} of {n} replication(s) quarantined; "
                f"{noun} averages the survivors"
            )
        # A run that resolved no message has a NaN loss, and so has the
        # mean of any cell holding one.
        empty = sum(1 for run in runs if run.resolved <= 0)
        if empty:
            cause = (
                "no run resolved a message"
                if empty == len(runs)
                else f"{empty} of {len(runs)} runs resolved no message"
            )
            notes.append(f"{label}: {cause} (no estimate)")
        if not runs:
            cells.append(CellEstimate(nan, nan, quarantined=lost, hole=True))
        elif len(runs) == 1:
            run = runs[0]
            cells.append(
                CellEstimate(run.loss_fraction, run.loss_stderr(), runs, lost)
            )
        else:
            losses = np.array([run.loss_fraction for run in runs], dtype=float)
            cells.append(
                CellEstimate(
                    float(np.mean(losses)),
                    float(np.std(losses, ddof=1) / np.sqrt(len(losses))),
                    runs,
                    lost,
                )
            )
    summary = executor.last_outcome
    if summary is not None and (summary.replayed or summary.quarantined):
        notes.append(f"{sweep}: {summary.summary()}")
    return cells, notes
