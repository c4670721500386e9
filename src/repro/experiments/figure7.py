"""Figure 7 regeneration: loss vs time constraint per (ρ′, M) panel.

The paper's evaluation (§4.2) plots, for
``ρ′ ∈ {0.25, 0.50, 0.75} × M ∈ {25, 100}``, the fraction of lost
messages against the time constraint K, comparing

* the **controlled** protocol (analytic, eq. 4.7 with the §4.1
  iteration; plus simulation points scored by true waiting time), and
* the **FCFS** and **LCFS** uncontrolled protocols of [Kurose 83]
  (analytic M/G/1 waiting-time tails; plus simulation points).

``ρ′`` is interpreted as the offered channel load λ·M·τ (see DESIGN.md
§2 for why), so λ = ρ′ / M per slot.  Deadlines are swept over a grid
scaled by the message length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from ..cache import get_or_compute
from ..core.policy import ControlPolicy
from ..obs import tracing as trace
from ..crp.scheduling_time import ExactSchedulingModel, GeometricSchedulingModel
from ..crp.window_opt import optimal_window_occupancy
from ..queueing.distributions import LatticePMF
from ..queueing.impatient import loss_curve
from ..queueing.lcfs import LCFSQueue
from ..queueing.mg1 import MG1
from ..stats.sequential import SequentialConfig
from .records import PanelResult, Series
from .sweep import MACRunSpec, SweepExecutor, run_sequential, sequential_note

__all__ = ["PanelConfig", "PAPER_PANELS", "default_deadlines", "generate_panel"]


@dataclass(frozen=True)
class PanelConfig:
    """Configuration of one Figure 7 panel.

    Attributes
    ----------
    rho_prime:
        Offered channel load λ·M·τ.
    message_length:
        M in units of τ.
    scheduling:
        ``"exact"`` (exact scheduling-time pmf) or ``"geometric"`` (the
        paper's approximation).
    occupancy:
        Window occupancy target; None = heuristic optimum μ*.
    """

    rho_prime: float
    message_length: int
    scheduling: str = "exact"
    occupancy: Optional[float] = None

    def __post_init__(self):
        if self.rho_prime <= 0:
            raise ValueError(f"offered load must be positive, got {self.rho_prime}")
        if self.message_length < 1:
            raise ValueError(f"message length must be >= 1, got {self.message_length}")
        if self.scheduling not in ("exact", "geometric"):
            raise ValueError(f"unknown scheduling model: {self.scheduling!r}")

    @property
    def arrival_rate(self) -> float:
        """λ per slot implied by the offered load."""
        return self.rho_prime / self.message_length

    def target_occupancy(self) -> float:
        """The window occupancy the length heuristic aims for."""
        return (
            self.occupancy if self.occupancy is not None else optimal_window_occupancy()
        )

    def service_pmf(self) -> LatticePMF:
        """Service-time distribution (scheduling + transmission).

        Memoised per (M, scheduling, μ): eq. 4.7's fixed-point iteration
        asks for this pmf at every inner step even though it does not
        depend on the accepted rate, and all six panels share two of
        them.
        """
        return _service_pmf(
            self.message_length, self.scheduling, self.target_occupancy()
        )


@lru_cache(maxsize=64)
def _service_pmf(
    message_length: int, scheduling: str, occupancy: float
) -> LatticePMF:
    if scheduling == "exact":
        model = ExactSchedulingModel(message_length, occupancy)
    else:
        model = GeometricSchedulingModel(message_length, occupancy)
    return model.service_pmf()


#: The six panels of Figure 7.
PAPER_PANELS = tuple(
    PanelConfig(rho_prime=rho, message_length=m)
    for rho in (0.25, 0.50, 0.75)
    for m in (25, 100)
)


def default_deadlines(config: PanelConfig) -> list:
    """A deadline grid spanning the interesting range of the panel.

    Scaled by the message length so every panel covers sub-message
    constraints through to the low-loss regime.
    """
    m = config.message_length
    multipliers = (0.5, 1, 1.5, 2, 3, 4, 6, 8, 12)
    return [m * mult for mult in multipliers]


def generate_panel(
    config: PanelConfig,
    deadlines: Optional[Sequence[float]] = None,
    include_simulation: bool = False,
    include_random_baseline: bool = False,
    sim_horizon: float = 150_000.0,
    sim_warmup: float = 20_000.0,
    sim_seed: int = 1,
    sim_deadlines: Optional[Sequence[float]] = None,
    workers: Optional[int] = None,
    sim_backend: str = "compiled",
    resilience=None,
    metrics=None,
    sequential: Optional[SequentialConfig] = None,
) -> PanelResult:
    """Produce every curve of one Figure 7 panel.

    Parameters
    ----------
    config:
        The (ρ′, M) panel.
    deadlines:
        Analytic deadline grid; defaults to :func:`default_deadlines`.
    include_simulation:
        Also run the three protocol simulations (slow) and attach their
        points.
    include_random_baseline:
        Also simulate the RANDOM discipline of [Kurose 83].
    workers:
        Fan the simulation grid over this many worker processes (None/1
        = sequential).  Results are identical for any worker count.
    sim_backend:
        Simulation engine per run: ``"compiled"`` (default) or
        ``"reference"``; both are bit-identical.
    resilience:
        :class:`~repro.resilience.ResilienceOptions` for the simulation
        grid: checkpoint journal, per-task timeout, retry/quarantine.
        Quarantined cells are omitted from their series and called out
        in ``result.notes`` — the panel degrades to an explicit partial
        grid instead of failing (or lying).
    metrics:
        An enabled :class:`~repro.obs.metrics.MetricsRegistry` collects
        per-run simulator metrics and sweep telemetry (see
        ``docs/observability.md``); ``None`` costs nothing.
    sequential:
        A :class:`~repro.stats.SequentialConfig` switches the
        simulation arms to adaptive replication: each (protocol,
        deadline) cell runs lane waves until its loss CI half-width
        meets the target (``sim_seed`` roots the lane seed derivation,
        shared by every protocol arm), and each point's
        stderr renders the realized half-width (±2·stderr band = the
        interval).  See ``docs/statistics.md``.
    """
    if deadlines is None:
        deadlines = default_deadlines(config)
    deadlines = sorted(deadlines)
    lam = config.arrival_rate
    result = PanelResult(rho_prime=config.rho_prime, message_length=config.message_length)

    # -- controlled protocol, analytic (eq. 4.7 + §4.1 iteration) -------------
    def service_model(accepted_rate: float) -> LatticePMF:
        # The occupancy heuristic keeps μ fixed by adapting the window
        # length to the accepted rate, so the scheduling law depends on
        # the accepted rate only through window-length clipping, which
        # the queueing model ignores.  (accepted_rate is part of the
        # ServiceModel signature for models that do use it.)
        del accepted_rate
        return config.service_pmf()

    # The §4.1 iteration is a pure function of the panel and the grid, so
    # repeated invocations (CLI, benches, CI) read it from the memo.
    with trace.span(
        "figure7.analytic", rho=config.rho_prime, m=config.message_length
    ):
        curve = get_or_compute(
            "figure7-loss-curve-v1",
            (
                config.rho_prime,
                config.message_length,
                config.scheduling,
                config.target_occupancy(),
                tuple(deadlines),
            ),
            lambda: loss_curve(lam, deadlines, service_model=service_model),
        )
    controlled = Series("controlled_analytic")
    for point in curve:
        controlled.add(point.deadline, point.loss_probability)
    result.add_series(controlled)

    # -- uncontrolled baselines, analytic --------------------------------------
    service = config.service_pmf()
    fcfs_queue = MG1(lam, service)
    lcfs_queue = LCFSQueue(lam, service.refine(2))
    fcfs = Series("fcfs_analytic")
    lcfs = Series("lcfs_analytic")
    stable = fcfs_queue.rho < 1
    for deadline in deadlines:
        if stable:
            fcfs.add(deadline, fcfs_queue.loss_beyond_deadline(deadline))
            lcfs.add(deadline, lcfs_queue.loss_beyond_deadline(deadline))
        else:
            # Saturated uncontrolled queue: every steady-state wait is
            # unbounded, so the deadline-miss probability is 1.
            fcfs.add(deadline, 1.0)
            lcfs.add(deadline, 1.0)
    result.add_series(fcfs)
    result.add_series(lcfs)

    # -- simulation arms ----------------------------------------------------------
    if include_simulation:
        sim_points = sorted(sim_deadlines) if sim_deadlines is not None else deadlines
        arms = [
            ("controlled_sim", lambda K: ControlPolicy.optimal(K, lam, config.occupancy)),
            ("fcfs_sim", lambda K: ControlPolicy.uncontrolled_fcfs(lam)),
            ("lcfs_sim", lambda K: ControlPolicy.uncontrolled_lcfs(lam)),
        ]
        if include_random_baseline:
            arms.append(("random_sim", lambda K: ControlPolicy.uncontrolled_random(lam)))
        # One flat spec list across arms × deadlines so the executor's
        # parallelism spans the whole grid, not one arm at a time.
        specs = [
            MACRunSpec(
                policy=policy_factory(deadline),
                arrival_rate=lam,
                transmission_slots=config.message_length,
                horizon=sim_horizon,
                warmup=sim_warmup,
                deadline=deadline,
                seed=sim_seed,
                backend=sim_backend,
            )
            for _, policy_factory in arms
            for deadline in sim_points
        ]
        executor = SweepExecutor(workers, resilience, metrics=metrics)
        if sequential is not None:
            # Adaptive replication: every (arm, deadline) cell becomes a
            # sequential arm; every arm runs lane i at the same derived
            # seed, so protocol arms are paired at every deadline.
            cells = [
                (f"{name}.k{deadline:g}", specs[arm_index * len(sim_points) + point_index])
                for arm_index, (name, _) in enumerate(arms)
                for point_index, deadline in enumerate(sim_points)
            ]
            with trace.span(
                "figure7.sequential",
                rho=config.rho_prime,
                m=config.message_length,
                cells=len(cells),
            ):
                estimates = run_sequential(
                    cells, sequential, executor, base_seed=sim_seed
                )
            for arm_index, (name, _) in enumerate(arms):
                series = Series(name)
                for point_index, deadline in enumerate(sim_points):
                    est = estimates[arm_index * len(sim_points) + point_index]
                    if est.units == 0:
                        result.notes.append(
                            f"{name} @ K={deadline:g}: every lane quarantined "
                            "(no estimate)"
                        )
                        continue
                    series.add(deadline, est.mean, stderr=est.stderr())
                result.add_series(series)
            result.notes.append(sequential_note(estimates, sequential))
            return result
        with trace.span(
            "figure7.sweep",
            rho=config.rho_prime,
            m=config.message_length,
            cells=len(specs),
        ):
            runs = executor.run_specs(specs)
        for arm_index, (name, _) in enumerate(arms):
            series = Series(name)
            for point_index, deadline in enumerate(sim_points):
                run = runs[arm_index * len(sim_points) + point_index]
                if run is None:
                    # Quarantined cell: an explicit hole, never a silent one.
                    result.notes.append(
                        f"{name} @ K={deadline:g}: cell quarantined "
                        "(no result; see sweep outcome)"
                    )
                    continue
                series.add(deadline, run.loss_fraction, stderr=run.loss_stderr())
            result.add_series(series)
        outcome = executor.last_outcome
        if outcome is not None and (outcome.replayed or outcome.quarantined):
            result.notes.append(f"simulation sweep: {outcome.summary()}")

    return result
