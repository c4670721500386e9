"""Model-validity sweep: where does the eq. 4.7 analysis hold?

The paper's loss prediction (eq. 4.7 with the §4.1 iteration) assumes
stationary network-wide Poisson arrivals.  This driver sweeps scenario
*families* — the stationary control plus the nonstationary generators of
:mod:`repro.workloads.nonstationary` — through the simulator on the
Figure-7 grid and reports, per cell, the divergence between the
simulated fraction-late and the analytic prediction *computed as if the
traffic were Poisson at the same mean rate*.  The stationary family
validates the harness (its divergence must sit inside the golden
tolerance); the nonstationary families map the analysis's blind spots.

Every scenario is rate-matched: :func:`scenario_workload` solves each
family's parameters so ``mean_rate`` equals λ = ρ′/M exactly, so any
divergence is attributable to the arrival *shape*, never to a different
offered load.

The report is schema'd for :mod:`repro.obs.report` — ``flush_metrics``
writes one gauge per cell plus per-family roll-ups, so two validity runs
can be compared with ``repro report diff`` like any other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cache import get_or_compute
from ..obs import tracing as trace
from ..obs.metrics import MetricsRegistry
from ..queueing.impatient import loss_curve
from ..stats.sequential import SequentialConfig
from .figure7 import PanelConfig
from .records import ascii_table
from .sweep import MACRunSpec, SweepExecutor, cell_estimates, run_sequential

if TYPE_CHECKING:
    from ..workloads.arrivals import Workload

__all__ = [
    "SCENARIO_FAMILIES",
    "DEFAULT_AGREEMENT_TOL",
    "scenario_workload",
    "ValidityConfig",
    "ValidityCell",
    "FamilySummary",
    "ValidityReport",
    "run_validity",
]

#: Scenario families the sweep knows how to build.  ``stationary`` is
#: the Poisson control arm — the analysis's own assumption — and must
#: agree with eq. 4.7; the rest are the nonstationary stressors.
SCENARIO_FAMILIES = (
    "stationary",
    "heavy-tailed",
    "diurnal",
    "flash-crowd",
    "adversarial",
)

#: Default |simulated − analytic| agreement tolerance.  Sized to the
#: stationary control's residual on the default grid — binomial noise at
#: the ~450 scored messages an M=100 cell yields over the default
#: horizon (stderr ≈ 0.02) plus the finite-horizon transient — while the
#: nonstationary families diverge by 0.04–0.43: unmistakable.
DEFAULT_AGREEMENT_TOL = 0.03


def scenario_workload(family: str, rate: float) -> Optional[Workload]:
    """The canonical workload of ``family``, rate-matched to ``rate``.

    Every returned workload has ``mean_rate == rate`` exactly, so the
    analytic prediction at λ = ``rate`` is the like-for-like Poisson
    counterfactual.  ``stationary`` returns None — the simulator's
    built-in Poisson path, which is the bit-for-bit control arm.
    """
    from ..workloads.nonstationary import (
        AdversarialWorkload,
        DiurnalWorkload,
        FlashCrowdWorkload,
        HeavyTailedWorkload,
    )

    if family == "stationary":
        return None
    if family == "heavy-tailed":
        # Infinite-variance Lomax gaps: dense clumps between long lulls.
        return HeavyTailedWorkload(rate=rate, shape=1.5, family="pareto")
    if family == "diurnal":
        # A pronounced day/night cycle, slow against the protocol's
        # resolution timescale so the load genuinely dwells at the peak.
        return DiurnalWorkload(rate=rate, period=8_000.0, amplitude=0.8)
    if family == "flash-crowd":
        # 6x surges covering 8% of the cycle; the baseline is solved so
        # the long-run mean stays rate-matched.
        peak_ratio, ramp, hold, period = 6.0, 200.0, 600.0, 10_000.0
        inflation = 1.0 + (peak_ratio - 1.0) * (ramp + hold) / period
        return FlashCrowdWorkload(
            base_rate=rate / inflation,
            peak_ratio=peak_ratio,
            ramp=ramp,
            hold=hold,
            period=period,
            onset=2_000.0,
        )
    if family == "adversarial":
        # Half the load arrives as synchronized batches (guaranteed
        # collision cascades), half as Poisson background.
        burst_size = 8
        background = rate / 2.0
        return AdversarialWorkload(
            burst_size=burst_size,
            interval=burst_size / (rate - background),
            background_rate=background,
        )
    raise ValueError(
        f"unknown scenario family: {family!r} (expected one of {SCENARIO_FAMILIES})"
    )


@dataclass(frozen=True)
class ValidityConfig:
    """Grid definition for one validity sweep.

    The deadline axis is expressed as multiples of the message length
    (``deadline_factors``), mirroring Figure 7's K = factor·M grid.
    """

    rho_primes: Tuple[float, ...] = (0.25, 0.50, 0.75)
    message_lengths: Tuple[int, ...] = (25, 100)
    deadline_factors: Tuple[float, ...] = (1.0, 3.0, 6.0)
    families: Tuple[str, ...] = SCENARIO_FAMILIES
    horizon: float = 60_000.0
    warmup: float = 7_500.0
    seed: int = 7
    n_stations: int = 200
    agreement_tol: float = DEFAULT_AGREEMENT_TOL

    def __post_init__(self):
        if not self.families:
            raise ValueError("at least one scenario family is required")
        for family in self.families:
            if family not in SCENARIO_FAMILIES:
                raise ValueError(
                    f"unknown scenario family: {family!r} "
                    f"(expected one of {SCENARIO_FAMILIES})"
                )
        if not self.rho_primes or not self.message_lengths:
            raise ValueError("rho_primes and message_lengths must be non-empty")
        if not self.deadline_factors:
            raise ValueError("deadline_factors must be non-empty")
        if min(self.deadline_factors) <= 0:
            raise ValueError("deadline factors must be positive")
        if self.horizon <= 0 or self.warmup < 0:
            raise ValueError("horizon must be positive and warmup non-negative")
        if self.agreement_tol <= 0:
            raise ValueError(
                f"agreement tolerance must be positive, got {self.agreement_tol}"
            )


@dataclass(frozen=True)
class ValidityCell:
    """One (family, ρ′, M, K) point of the divergence map."""

    family: str
    rho_prime: float
    message_length: int
    deadline: float
    analytic: float
    simulated: float
    stderr: float
    saturated: bool

    @property
    def delta(self) -> float:
        """Simulated minus analytic fraction-late (positive = the
        analysis is optimistic for this traffic)."""
        return self.simulated - self.analytic

    def agrees(self, tolerance: float) -> bool:
        """Does the simulation sit within ``tolerance`` of eq. 4.7?"""
        return abs(self.delta) <= tolerance


@dataclass(frozen=True)
class FamilySummary:
    """Divergence roll-up of one scenario family across the grid."""

    family: str
    cells: int
    agreeing: int
    max_abs_delta: float
    mean_delta: float
    worst_cell: Optional[ValidityCell]

    @property
    def holds(self) -> bool:
        """Does eq. 4.7 describe this family everywhere on the grid?"""
        return self.agreeing == self.cells


@dataclass
class ValidityReport:
    """Divergence map produced by :func:`run_validity`."""

    config: ValidityConfig
    cells: List[ValidityCell] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def cell(
        self, family: str, rho_prime: float, message_length: int, deadline: float
    ) -> ValidityCell:
        for cell in self.cells:
            if (
                cell.family == family
                and cell.rho_prime == rho_prime
                and cell.message_length == message_length
                and cell.deadline == deadline
            ):
                return cell
        raise KeyError(
            f"no cell ({family}, rho'={rho_prime}, M={message_length}, K={deadline})"
        )

    def family_cells(self, family: str) -> List[ValidityCell]:
        return [cell for cell in self.cells if cell.family == family]

    def family_summaries(self) -> List[FamilySummary]:
        tol = self.config.agreement_tol
        summaries = []
        for family in self.config.families:
            cells = self.family_cells(family)
            if not cells:
                continue
            worst = max(cells, key=lambda c: abs(c.delta))
            summaries.append(
                FamilySummary(
                    family=family,
                    cells=len(cells),
                    agreeing=sum(cell.agrees(tol) for cell in cells),
                    max_abs_delta=abs(worst.delta),
                    mean_delta=sum(c.delta for c in cells) / len(cells),
                    worst_cell=worst,
                )
            )
        return summaries

    def to_table(self) -> str:
        """Per-cell divergence table plus the family verdict roll-up."""
        tol = self.config.agreement_tol
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.family,
                    f"{cell.rho_prime:g}",
                    f"{cell.message_length}",
                    f"{cell.deadline:g}",
                    f"{cell.analytic:.4f}",
                    f"{cell.simulated:.4f}",
                    f"{cell.delta:+.4f}",
                    ("ok" if cell.agrees(tol) else "BREAKS")
                    + (" [saturated]" if cell.saturated else ""),
                ]
            )
        header = ["family", "rho'", "M", "K", "eq4.7", "sim", "delta", "verdict"]
        parts = [
            ascii_table(
                header, rows, title=f"Model validity (|delta| <= {tol:g} agrees)"
            )
        ]
        summary_rows = [
            [
                s.family,
                f"{s.agreeing}/{s.cells}",
                f"{s.max_abs_delta:.4f}",
                f"{s.mean_delta:+.4f}",
                "holds" if s.holds else "breaks",
            ]
            for s in self.family_summaries()
        ]
        parts.append(
            ascii_table(
                ["family", "agree", "max |delta|", "mean delta", "eq. 4.7"],
                summary_rows,
                title="Family verdicts",
            )
        )
        parts.extend(self.notes)
        return "\n\n".join(parts)

    def to_csv(self) -> str:
        lines = ["family,rho_prime,message_length,deadline,analytic,simulated,delta,stderr,saturated"]
        for c in self.cells:
            lines.append(
                f"{c.family},{c.rho_prime:g},{c.message_length},{c.deadline:g},"
                f"{c.analytic:.6f},{c.simulated:.6f},{c.delta:+.6f},"
                f"{c.stderr:.6f},{int(c.saturated)}"
            )
        return "\n".join(lines)

    def flush_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        """Record the divergence map as gauges so two validity runs diff
        cleanly under ``repro report diff``."""
        if metrics is None or not metrics.enabled:
            return
        for cell in self.cells:
            key = (
                f"validity.{cell.family}.rho{cell.rho_prime:g}"
                f".m{cell.message_length}.k{cell.deadline:g}"
            )
            metrics.gauge(f"{key}.delta").set(cell.delta)
            metrics.gauge(f"{key}.simulated").set(cell.simulated)
            metrics.gauge(f"{key}.analytic").set(cell.analytic)
        for summary in self.family_summaries():
            metrics.gauge(
                f"validity.{summary.family}.max_abs_delta"
            ).set(summary.max_abs_delta)
            metrics.counter(
                f"validity.{summary.family}.cells_breaking"
            ).inc(summary.cells - summary.agreeing)
        metrics.counter("validity.cells").inc(len(self.cells))


def _analytic_curve(
    rho_prime: float, message_length: int, deadlines: Sequence[float]
) -> Dict[float, float]:
    """Eq. 4.7 loss per deadline for one (ρ′, M) panel (memoised with
    the Figure-7 cache key: it is the identical computation)."""
    config = PanelConfig(rho_prime=rho_prime, message_length=message_length)

    def service_model(accepted_rate):
        del accepted_rate
        return config.service_pmf()

    curve = get_or_compute(
        "figure7-loss-curve-v1",
        (
            config.rho_prime,
            config.message_length,
            config.scheduling,
            config.target_occupancy(),
            tuple(deadlines),
        ),
        lambda: loss_curve(
            config.arrival_rate, deadlines, service_model=service_model
        ),
    )
    return {point.deadline: point.loss_probability for point in curve}


def run_validity(
    config: ValidityConfig = ValidityConfig(),
    workers: Optional[int] = None,
    resilience=None,
    metrics: Optional[MetricsRegistry] = None,
    sequential: Optional[SequentialConfig] = None,
) -> ValidityReport:
    """Sweep every (family, ρ′, M, K) cell and build the divergence map.

    The whole grid goes through one :class:`SweepExecutor.run_specs`
    call, so the sweep inherits the executor's parallelism, journaling
    and quarantine semantics.
    Quarantined cells become explicit notes, never silent holes.

    With a ``sequential`` config each grid cell becomes an adaptive-
    replication arm: lane waves run until the cell's fraction-late CI
    half-width meets the target, and the cell's stderr renders the
    realized half-width.  CRN shares lane seeds across every cell, so
    the per-family deltas against the stationary control are paired
    contrasts on common sample paths.
    """
    from ..core.policy import ControlPolicy

    panels = [
        (rho, m) for rho in config.rho_primes for m in config.message_lengths
    ]
    analytic = {
        (rho, m): _analytic_curve(
            rho, m, sorted(factor * m for factor in config.deadline_factors)
        )
        for rho, m in panels
    }
    grid = [
        (family, rho, m, factor * m)
        for family in config.families
        for rho, m in panels
        for factor in sorted(config.deadline_factors)
    ]
    specs = []
    for family, rho, m, deadline in grid:
        lam = rho / m
        specs.append(
            MACRunSpec(
                policy=ControlPolicy.optimal(deadline, lam),
                arrival_rate=lam,
                transmission_slots=m,
                horizon=config.horizon,
                warmup=config.warmup,
                n_stations=config.n_stations,
                deadline=deadline,
                seed=config.seed,
                workload=scenario_workload(family, lam),
            )
        )
    executor = SweepExecutor(workers, resilience, metrics=metrics)
    if sequential is not None:
        cells = [
            (f"{family}.rho{rho:g}.m{m}.k{deadline:g}", spec)
            for (family, rho, m, deadline), spec in zip(grid, specs)
        ]
        with trace.span("validity.sequential", cells=len(cells)):
            outcome = run_sequential(
                cells, sequential, executor, base_seed=config.seed
            )
    else:
        with trace.span("validity.sweep", cells=len(specs)):
            outcome = executor.run_specs(specs)
    estimates, notes = cell_estimates(
        outcome,
        [
            f"{family} @ rho'={rho:g}, M={m}, K={deadline:g}"
            for family, rho, m, deadline in grid
        ],
        executor,
        sequential,
        sweep="validity sweep",
    )
    report = ValidityReport(config=config, notes=notes)
    for (family, rho, m, deadline), cell in zip(grid, estimates):
        if cell.hole:
            continue
        report.cells.append(
            ValidityCell(
                family=family,
                rho_prime=rho,
                message_length=m,
                deadline=deadline,
                analytic=analytic[(rho, m)][deadline],
                simulated=cell.mean,
                stderr=cell.stderr,
                # A sequential cell pools its lanes and keeps no runs, so
                # it never carries the [saturated] marker.
                saturated=any(run.saturated for run in cell.runs),
            )
        )
    report.flush_metrics(metrics)
    return report
