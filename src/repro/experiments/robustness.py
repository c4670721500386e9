"""Graceful-degradation experiments for the fault layer.

The paper assumes perfect ternary feedback; :mod:`repro.faults` removes
that assumption.  This module measures what the assumption was worth:

* :func:`feedback_error_sweep` — loss versus symmetric per-station
  feedback-error rate at a fixed operating point (the replica-bank
  degradation curve; the protocol should degrade smoothly, not cliff);
* :func:`protocol_degradation_sweep` — the degradation *figure*:
  fraction-late versus common-mode feedback error rate for all four
  Figure-7 protocols, running at full speed on the compiled engine
  (:class:`~repro.mac.kernels.engine.FlatLane` with the fault hook)
  with a selectable divergence-recovery policy;
* :func:`station_failure_scenario` — a crash/restart + deafness soak
  that must run to completion (no deadlock, no permanent divergence)
  and report the resilience telemetry.

All average over a few replications (distinct master seeds) so the
degradation trend is not an artifact of one sample path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import ControlPolicy
from ..faults import RECOVERY_POLICIES, FaultModel, FeedbackFaultModel
from ..mac import MACSimResult
from ..obs import tracing as trace
from ..stats.sequential import SequentialConfig
from .records import ascii_table
from .sweep import (
    MACRunSpec,
    SweepExecutor,
    run_sequential,
    sequential_note,
)

__all__ = [
    "RobustnessConfig",
    "RobustnessPoint",
    "RobustnessReport",
    "DegradationPoint",
    "DegradationReport",
    "feedback_error_sweep",
    "point_spec",
    "protocol_arms",
    "protocol_degradation_sweep",
    "station_failure_scenario",
    "DEFAULT_ERROR_RATES",
]

#: Symmetric feedback-error rates of the headline degradation sweep.
DEFAULT_ERROR_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)


@dataclass(frozen=True)
class RobustnessConfig:
    """Operating point for the robustness experiments.

    Defaults pin the paper's central panel (ρ′ = 0.5, M = 25) with the
    constraint K = 3M, the regime where Figure 7 shows the controlled
    protocol clearly ahead of the uncontrolled disciplines.
    """

    rho_prime: float = 0.5
    message_length: int = 25
    deadline_factor: float = 3.0
    n_stations: int = 25
    horizon: float = 60_000.0
    warmup_fraction: float = 0.125
    n_seeds: int = 3
    base_seed: int = 1

    def __post_init__(self):
        if self.rho_prime <= 0:
            raise ValueError(f"offered load must be positive, got {self.rho_prime}")
        if self.message_length < 1:
            raise ValueError(
                f"message length must be at least 1, got {self.message_length}"
            )
        if self.n_seeds < 1:
            raise ValueError(f"need at least one replication, got {self.n_seeds}")

    @property
    def arrival_rate(self) -> float:
        """Message arrival rate λ = ρ′ / M."""
        return self.rho_prime / self.message_length

    @property
    def deadline(self) -> float:
        """The waiting-time constraint K."""
        return self.deadline_factor * self.message_length


@dataclass(frozen=True)
class RobustnessPoint:
    """Seed-averaged outcome at one fault setting."""

    error_rate: float
    loss_fraction: float
    loss_stderr: float
    lost_to_faults: float
    unresolved: float
    utilization: float
    resyncs: float
    cohort_splits: float
    peak_cohorts: float
    saturated: bool


@dataclass
class RobustnessReport:
    """The degradation curve plus run metadata.

    ``notes`` lists sweep-integrity annotations (quarantined
    replications, journal replays), rendered under the table so a
    degraded sweep is always explicitly marked.
    """

    config: RobustnessConfig
    points: List[RobustnessPoint] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def title(self) -> str:
        c = self.config
        return (
            f"Graceful degradation: rho'={c.rho_prime:g}, M={c.message_length}, "
            f"K={c.deadline:g}, {c.n_seeds} seeds x {c.horizon:g} slots"
        )

    def losses(self) -> List[float]:
        """The seed-averaged loss at each fault setting, sweep order."""
        return [p.loss_fraction for p in self.points]

    def to_table(self) -> str:
        """Render the degradation curve as an aligned text table."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    f"{p.error_rate:g}",
                    f"{p.loss_fraction:.4f}±{2 * p.loss_stderr:.4f}",
                    f"{p.lost_to_faults:.1f}",
                    f"{p.unresolved:.1f}",
                    f"{p.utilization:.3f}",
                    f"{p.resyncs:.0f}",
                    f"{p.cohort_splits:.0f}",
                    f"{p.peak_cohorts:.0f}",
                    "yes" if p.saturated else "",
                ]
            )
        table = ascii_table(
            [
                "error rate",
                "loss fraction",
                "fault-lost",
                "unresolved",
                "util",
                "resyncs",
                "splits",
                "peak cohorts",
                "saturated",
            ],
            rows,
            title=self.title,
        )
        if self.notes:
            table += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return table


def point_spec(
    config: RobustnessConfig,
    fault_model: Optional[FaultModel],
    seed: int,
    policy: Optional[ControlPolicy] = None,
    backend: str = "compiled",
    feedback_faults: Optional[FeedbackFaultModel] = None,
) -> MACRunSpec:
    """Spec for one replication at one fault setting.

    ``stream_seed`` (not ``seed``) preserves the historical
    ``RandomStreams`` construction, whose named substreams draw traffic
    and fault randomness independently.
    """
    if policy is None:
        policy = ControlPolicy.optimal(config.deadline, config.arrival_rate)
    return MACRunSpec(
        policy=policy,
        arrival_rate=config.arrival_rate,
        transmission_slots=config.message_length,
        horizon=config.horizon,
        warmup=config.horizon * config.warmup_fraction,
        n_stations=config.n_stations,
        deadline=config.deadline,
        fault_model=fault_model,
        feedback_faults=feedback_faults,
        stream_seed=seed,
        backend=backend,
    )


def _aggregate(
    error_rate: float, results: Sequence[MACSimResult]
) -> RobustnessPoint:
    if not results:
        # Every replication of this setting was quarantined: an explicit
        # all-NaN row (flagged saturated=False) — the caller adds a note.
        nan = float("nan")
        return RobustnessPoint(
            error_rate=error_rate, loss_fraction=nan, loss_stderr=nan,
            lost_to_faults=nan, unresolved=nan, utilization=nan,
            resyncs=nan, cohort_splits=nan, peak_cohorts=nan,
            saturated=False,
        )
    losses = np.array([r.loss_fraction for r in results], dtype=float)
    return RobustnessPoint(
        error_rate=error_rate,
        loss_fraction=float(np.mean(losses)),
        loss_stderr=(
            float(np.std(losses, ddof=1) / np.sqrt(len(losses)))
            if len(losses) > 1
            else float(results[0].loss_stderr())
        ),
        lost_to_faults=float(np.mean([r.lost_to_faults for r in results])),
        unresolved=float(np.mean([r.unresolved for r in results])),
        utilization=float(np.mean([r.channel.utilization() for r in results])),
        resyncs=float(np.mean([r.faults.resyncs for r in results])),
        cohort_splits=float(np.mean([r.faults.cohort_splits for r in results])),
        peak_cohorts=float(np.mean([r.faults.peak_cohorts for r in results])),
        saturated=any(r.saturated for r in results),
    )


def feedback_error_sweep(
    config: Optional[RobustnessConfig] = None,
    error_rates: Sequence[float] = DEFAULT_ERROR_RATES,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    backend: str = "compiled",
    sequential: Optional[SequentialConfig] = None,
) -> RobustnessReport:
    """Loss versus symmetric feedback-error rate (the degradation curve).

    Every fault setting replays the *same* traffic sample paths (the
    fault stream is independent of the arrival stream), so the curve
    isolates the marginal damage of mis-observed feedback.
    """
    if config is None:
        config = RobustnessConfig()
    for error_rate in error_rates:
        if error_rate < 0:
            raise ValueError(f"error rate must be non-negative, got {error_rate}")
    report = RobustnessReport(config)
    if sequential is not None:
        # Adaptive replication: one sequential arm per error rate; the
        # lane seed derivation roots at base_seed so CRN replays the
        # same traffic paths at every fault setting.  The pooled loss
        # estimator does not carry per-run fault telemetry, so those
        # columns render as NaN and the summary note says why.
        cells = [
            (
                f"err-{error_rate:g}",
                point_spec(
                    config,
                    (
                        FaultModel.feedback_noise(error_rate)
                        if error_rate > 0
                        else FaultModel.none()
                    ),
                    config.base_seed,
                    backend=backend,
                ),
            )
            for error_rate in error_rates
        ]
        executor = SweepExecutor(workers, resilience, metrics=metrics)
        with trace.span(
            "robustness.feedback_errors.sequential", cells=len(cells)
        ):
            estimates = run_sequential(
                cells, sequential, executor, base_seed=config.base_seed
            )
        nan = float("nan")
        for error_rate, est in zip(error_rates, estimates):
            if est.units == 0:
                report.notes.append(
                    f"error rate {error_rate:g}: every lane quarantined "
                    "(no estimate)"
                )
            report.points.append(
                RobustnessPoint(
                    error_rate=error_rate,
                    loss_fraction=est.mean if est.units else nan,
                    loss_stderr=est.stderr() if est.units else nan,
                    lost_to_faults=nan, unresolved=nan, utilization=nan,
                    resyncs=nan, cohort_splits=nan, peak_cohorts=nan,
                    saturated=False,
                )
            )
        report.notes.append(
            sequential_note(estimates, sequential)
            + "; fault telemetry columns not tracked in this mode"
        )
        return report
    # Flat (error rate × replication) grid: one executor pass covers the
    # whole sweep, and the seeds stay pinned per replication index.
    specs = [
        point_spec(
            config,
            (
                FaultModel.feedback_noise(error_rate)
                if error_rate > 0
                else FaultModel.none()
            ),
            config.base_seed + i,
            backend=backend,
        )
        for error_rate in error_rates
        for i in range(config.n_seeds)
    ]
    executor = SweepExecutor(workers, resilience, metrics=metrics)
    with trace.span("robustness.feedback_errors", cells=len(specs)):
        results = executor.run_specs(specs)
    for row, error_rate in enumerate(error_rates):
        chunk = results[row * config.n_seeds : (row + 1) * config.n_seeds]
        survivors = [r for r in chunk if r is not None]
        if len(survivors) < len(chunk):
            report.notes.append(
                f"error rate {error_rate:g}: "
                f"{len(chunk) - len(survivors)} of {len(chunk)} "
                "replication(s) quarantined; row averages the survivors"
            )
        report.points.append(_aggregate(error_rate, survivors))
    outcome = executor.last_outcome
    if outcome is not None and (outcome.replayed or outcome.quarantined):
        report.notes.append(f"sweep: {outcome.summary()}")
    return report


@dataclass(frozen=True)
class DegradationPoint:
    """Seed-averaged outcome for one protocol at one error rate."""

    protocol: str
    error_rate: float
    loss_fraction: float
    loss_stderr: float
    lost_to_faults: float
    resyncs: float
    diverged_slots: float
    saturated: bool


@dataclass
class DegradationReport:
    """The degradation figure: fraction-late per protocol per error rate.

    The tabular sibling of Figure 7's loss panel with the x-axis swapped
    from offered load to feedback error rate: each protocol contributes
    one curve, and the gap between the controlled curve and the
    uncontrolled ones shows how much of the paper's advantage survives a
    noisy feedback channel.
    """

    config: RobustnessConfig
    recovery: str
    error_rates: Tuple[float, ...] = ()
    points: List[DegradationPoint] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def title(self) -> str:
        c = self.config
        return (
            f"Feedback-error degradation: rho'={c.rho_prime:g}, "
            f"M={c.message_length}, K={c.deadline:g}, "
            f"recovery={self.recovery}, "
            f"{c.n_seeds} seeds x {c.horizon:g} slots"
        )

    def curve(self, protocol: str) -> List[float]:
        """One protocol's fraction-late values in sweep order."""
        return [p.loss_fraction for p in self.points if p.protocol == protocol]

    def to_table(self) -> str:
        """Render the figure as an aligned text table."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.protocol,
                    f"{p.error_rate:g}",
                    f"{p.loss_fraction:.4f}±{2 * p.loss_stderr:.4f}",
                    f"{p.lost_to_faults:.1f}",
                    f"{p.resyncs:.1f}",
                    f"{p.diverged_slots:.0f}",
                    "yes" if p.saturated else "",
                ]
            )
        table = ascii_table(
            [
                "protocol",
                "error rate",
                "fraction late",
                "fault-lost",
                "resyncs",
                "diverged slots",
                "saturated",
            ],
            rows,
            title=self.title,
        )
        if self.notes:
            table += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return table


def protocol_arms(
    config: RobustnessConfig,
) -> "List[Tuple[str, ControlPolicy]]":
    """The four Figure-7 protocol arms at the config's operating point."""
    lam = config.arrival_rate
    return [
        ("controlled", ControlPolicy.optimal(config.deadline, lam)),
        ("fcfs", ControlPolicy.uncontrolled_fcfs(lam)),
        ("lcfs", ControlPolicy.uncontrolled_lcfs(lam)),
        ("random", ControlPolicy.uncontrolled_random(lam)),
    ]


def _aggregate_degradation(
    protocol: str, error_rate: float, results: Sequence[MACSimResult]
) -> DegradationPoint:
    if not results:
        nan = float("nan")
        return DegradationPoint(
            protocol=protocol, error_rate=error_rate, loss_fraction=nan,
            loss_stderr=nan, lost_to_faults=nan, resyncs=nan,
            diverged_slots=nan, saturated=False,
        )
    losses = np.array([r.loss_fraction for r in results], dtype=float)
    # Zero-rate cells run the clean kernels (faults=None).
    resyncs = [r.faults.resyncs if r.faults else 0 for r in results]
    diverged = [r.faults.diverged_slots if r.faults else 0.0 for r in results]
    return DegradationPoint(
        protocol=protocol,
        error_rate=error_rate,
        loss_fraction=float(np.mean(losses)),
        loss_stderr=(
            float(np.std(losses, ddof=1) / np.sqrt(len(losses)))
            if len(losses) > 1
            else float(results[0].loss_stderr())
        ),
        lost_to_faults=float(np.mean([r.lost_to_faults for r in results])),
        resyncs=float(np.mean(resyncs)),
        diverged_slots=float(np.mean(diverged)),
        saturated=any(r.saturated for r in results),
    )


def protocol_degradation_sweep(
    config: Optional[RobustnessConfig] = None,
    error_rates: Sequence[float] = DEFAULT_ERROR_RATES,
    recovery: str = "reset-to-epoch",
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    backend: str = "compiled",
    sequential: Optional[SequentialConfig] = None,
) -> DegradationReport:
    """Fraction-late vs feedback error rate, per Figure-7 protocol.

    Drives the *common-mode* feedback-error family
    (:class:`~repro.faults.FeedbackFaultModel`), so every cell — faulted
    or not — executes on a fast kernel (``repro robustness
    --feedback-errors`` is a full-speed sweep; the perf harness holds it
    to the kernel speedup floor).  Zero-rate cells carry no fault model
    at all and reproduce today's clean kernels bit for bit.

    Every (protocol, rate) cell replays the same ``n_seeds`` traffic
    sample paths — the fault stream is seed-derived independently of the
    arrival stream — so the curves isolate the marginal damage of
    mis-observed feedback per discipline.
    """
    if config is None:
        config = RobustnessConfig()
    if recovery not in RECOVERY_POLICIES:
        raise ValueError(
            f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
        )
    for error_rate in error_rates:
        if not 0.0 <= error_rate <= 0.5:
            raise ValueError(
                f"symmetric error rate must be in [0, 0.5], got {error_rate}"
            )
    arms = protocol_arms(config)
    report = DegradationReport(
        config, recovery, error_rates=tuple(error_rates)
    )
    if sequential is not None:
        # Adaptive replication: one sequential arm per (protocol, error
        # rate) cell.  CRN shares lane seeds across every cell, so the
        # protocol gap at each rate — the quantity the figure exists to
        # show — is a paired contrast on common sample paths.
        cells = [
            (
                f"{name}.err{error_rate:g}",
                point_spec(
                    config,
                    None,
                    config.base_seed,
                    policy=policy,
                    backend=backend,
                    feedback_faults=(
                        FeedbackFaultModel.noise(error_rate, recovery=recovery)
                        if error_rate > 0
                        else None
                    ),
                ),
            )
            for name, policy in arms
            for error_rate in error_rates
        ]
        executor = SweepExecutor(workers, resilience, metrics=metrics)
        with trace.span(
            "robustness.protocol_degradation.sequential",
            cells=len(cells),
            recovery=recovery,
        ):
            estimates = run_sequential(
                cells, sequential, executor, base_seed=config.base_seed
            )
        nan = float("nan")
        cursor = 0
        for name, _ in arms:
            for error_rate in error_rates:
                est = estimates[cursor]
                cursor += 1
                if est.units == 0:
                    report.notes.append(
                        f"{name} at error rate {error_rate:g}: every lane "
                        "quarantined (no estimate)"
                    )
                report.points.append(
                    DegradationPoint(
                        protocol=name,
                        error_rate=error_rate,
                        loss_fraction=est.mean if est.units else nan,
                        loss_stderr=est.stderr() if est.units else nan,
                        lost_to_faults=nan,
                        resyncs=nan,
                        diverged_slots=nan,
                        saturated=False,
                    )
                )
        report.notes.append(
            sequential_note(estimates, sequential)
            + "; fault telemetry columns not tracked in this mode"
        )
        return report
    # Flat (protocol × error rate × replication) grid, one executor pass.
    specs = [
        point_spec(
            config,
            None,
            config.base_seed + i,
            policy=policy,
            backend=backend,
            feedback_faults=(
                FeedbackFaultModel.noise(error_rate, recovery=recovery)
                if error_rate > 0
                else None
            ),
        )
        for _, policy in arms
        for error_rate in error_rates
        for i in range(config.n_seeds)
    ]
    executor = SweepExecutor(workers, resilience, metrics=metrics)
    with trace.span(
        "robustness.protocol_degradation",
        cells=len(specs),
        recovery=recovery,
    ):
        results = executor.run_specs(specs)
    row = 0
    for name, _ in arms:
        for error_rate in error_rates:
            chunk = results[row : row + config.n_seeds]
            row += config.n_seeds
            survivors = [r for r in chunk if r is not None]
            if len(survivors) < len(chunk):
                report.notes.append(
                    f"{name} at error rate {error_rate:g}: "
                    f"{len(chunk) - len(survivors)} of {len(chunk)} "
                    "replication(s) quarantined; cell averages the survivors"
                )
            report.points.append(
                _aggregate_degradation(name, error_rate, survivors)
            )
    outcome = executor.last_outcome
    if outcome is not None and (outcome.replayed or outcome.quarantined):
        report.notes.append(f"sweep: {outcome.summary()}")
    return report


def station_failure_scenario(
    config: Optional[RobustnessConfig] = None,
    crash_rate: float = 5e-4,
    mean_downtime: float = 300.0,
    deaf_rate: float = 3e-4,
    mean_deaf_slots: float = 80.0,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    backend: str = "compiled",
) -> List[MACSimResult]:
    """Crash/restart + deafness soak at the standard operating point.

    The pass criterion is liveness: every replication runs to the full
    horizon with bounded cohort count and every restarted station
    re-synchronized (the returned telemetry lets callers assert both).
    Under resilience options a quarantined replication is returned as
    ``None`` — callers must render the hole, not drop it.
    """
    if config is None:
        config = RobustnessConfig()
    model = FaultModel(
        crash_rate=crash_rate,
        mean_downtime=mean_downtime,
        deaf_rate=deaf_rate,
        mean_deaf_slots=mean_deaf_slots,
    )
    specs = [
        point_spec(config, model, config.base_seed + i, backend=backend)
        for i in range(config.n_seeds)
    ]
    with trace.span("robustness.station_failures", cells=len(specs)):
        return SweepExecutor(workers, resilience, metrics=metrics).run_specs(specs)
