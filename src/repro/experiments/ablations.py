"""Ablation experiments for the design choices DESIGN.md calls out.

* **A-EL4** — policy element 4 (sender discard): the §4.2 discussion
  attributes most of the controlled protocol's win to never spending
  channel time on messages that are already late.  Compares the full
  controlled protocol against the identical policy with discards
  disabled, at equal (ρ′, M, K).
* **A-WIN** — policy element 2 (window length): sweeps the window
  occupancy around the heuristic optimum μ*, both analytically (mean
  scheduling slots → loss via eq. 4.7) and in simulation.
* **A-SPLIT** — policy element 3: older-half-first versus
  newer-half-first versus random under the controlled protocol.
* **A-ARITY** — §5 extension: binary versus k-ary splitting.
* **A-FIT** — the [Kurose 83] two-endpoint scheduling-time fit versus
  the exact recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..core.policy import ControlPolicy, OccupancyLength, OldestFirstPosition
from ..crp.scheduling_time import ExactSchedulingModel, mean_scheduling_slots
from ..crp.twopoint import fit_two_point
from ..obs import tracing as trace
from ..queueing.impatient import ImpatientMG1
from ..stats.sequential import SequentialConfig
from .records import ascii_table
from .sweep import MACRunSpec, SweepExecutor, cell_estimates, run_sequential

__all__ = [
    "AblationArm",
    "AblationArms",
    "element4_ablation",
    "window_length_ablation",
    "split_rule_ablation",
    "arity_ablation",
    "twopoint_fit_errors",
]


@dataclass(frozen=True)
class AblationArm:
    """One arm of an ablation: a label and its measured loss."""

    label: str
    loss: float
    stderr: Optional[float] = None

    def row(self) -> list:
        """Table row representation."""
        cell = f"{self.loss:.4f}"
        if self.stderr is not None:
            cell += f" ± {2 * self.stderr:.4f}"
        return [self.label, cell]


class AblationArms(list):
    """The arms of one ablation, in order, with the notes to print under
    its table: the hole notes and the sweep footer of a simulated
    ablation (:func:`~repro.experiments.sweep.cell_estimates`)."""

    def __init__(self, arms, notes):
        super().__init__(arms)
        self.notes = list(notes)


def _spec(policy: ControlPolicy, lam, m, deadline, horizon, warmup, seed) -> MACRunSpec:
    return MACRunSpec(
        policy=policy, arrival_rate=lam, transmission_slots=m, horizon=horizon,
        warmup=warmup, deadline=deadline, seed=seed,
    )


def simulate_arms(
    labels, specs, workers, resilience=None, metrics=None,
    sequential: Optional[SequentialConfig] = None, span: str = "ablation",
) -> AblationArms:
    """Run the arm specs through the sweep executor and wrap the losses.

    A quarantined arm (resilience options with a poison spec) comes back
    as an explicit ``NaN`` arm labelled ``[quarantined]`` — the table
    keeps its shape and the hole is visible, never silently dropped.
    The arms carry the sweep's notes: one per hole, then the footer of a
    resumed or quarantined fixed sweep, or the sequential lane spend.

    With a ``sequential`` config, each spec becomes an adaptive-
    replication arm (the spec's own seed roots the lane seed
    derivation; CRN pairs the arms lane for lane) and the arm's stderr
    renders the realized CI half-width.  ``span`` prefixes the trace
    span of the sweep.
    """
    executor = SweepExecutor(workers, resilience, metrics=metrics)
    if sequential is not None:
        base_seed = specs[0].seed if specs else 1
        with trace.span(f"{span}.sequential", cells=len(specs)):
            outcome = run_sequential(
                list(zip(labels, specs)), sequential, executor,
                base_seed=base_seed,
            )
    else:
        with trace.span(f"{span}.sweep", cells=len(specs)):
            outcome = executor.run_specs(specs)
    cells, notes = cell_estimates(outcome, labels, executor, sequential)
    return AblationArms(
        (
            AblationArm(label=f"{label} [quarantined]", loss=cell.mean)
            if cell.hole
            else AblationArm(label=label, loss=cell.mean, stderr=cell.stderr)
            for label, cell in zip(labels, cells)
        ),
        notes,
    )


def element4_ablation(
    rho_prime: float = 0.75,
    message_length: int = 25,
    deadline: float = 75.0,
    horizon: float = 150_000.0,
    warmup: float = 20_000.0,
    seed: int = 5,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Controlled protocol with and without the sender discard (A-EL4)."""
    lam = rho_prime / message_length
    with_discard = ControlPolicy.optimal(deadline, lam)
    without_discard = replace(with_discard, discard_deadline=None, name="no_discard")
    policies = (with_discard, without_discard)
    return simulate_arms(
        [policy.name for policy in policies],
        [
            _spec(policy, lam, message_length, deadline, horizon, warmup, seed)
            for policy in policies
        ],
        workers,
        resilience,
        metrics,
        sequential,
    )


def window_length_ablation(
    occupancies: Sequence[float] = (0.25, 0.5, 1.0886, 2.0, 4.0),
    rho_prime: float = 0.75,
    message_length: int = 25,
    deadline: float = 75.0,
    simulate: bool = False,
    horizon: float = 120_000.0,
    warmup: float = 15_000.0,
    seed: int = 6,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Loss versus window occupancy around the heuristic optimum (A-WIN).

    The analytic arm feeds each occupancy's exact scheduling law into
    eq. 4.7; the optional simulation arm runs the MAC simulator with the
    corresponding window length.
    """
    lam = rho_prime / message_length
    labels = [
        f"mu={occupancy:g} (E[T]={mean_scheduling_slots(occupancy):.2f})"
        for occupancy in occupancies
    ]
    if simulate:
        specs = [
            _spec(
                ControlPolicy(
                    position=OldestFirstPosition(),
                    length=OccupancyLength(lam, occupancy),
                    split="older",
                    discard_deadline=deadline,
                    name=f"controlled_mu_{occupancy:g}",
                ),
                lam, message_length, deadline, horizon, warmup, seed,
            )
            for occupancy in occupancies
        ]
        return simulate_arms(labels, specs, workers, resilience, metrics,
                             sequential)
    arms = []
    for label, occupancy in zip(labels, occupancies):
        service = ExactSchedulingModel(message_length, occupancy).service_pmf()
        analytic = ImpatientMG1(lam, service, deadline).loss_probability()
        arms.append(AblationArm(label=label, loss=analytic))
    return arms


def split_rule_ablation(
    rho_prime: float = 0.75,
    message_length: int = 25,
    deadline: float = 75.0,
    horizon: float = 150_000.0,
    warmup: float = 20_000.0,
    seed: int = 7,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Split-order comparison under the controlled protocol (A-SPLIT)."""
    lam = rho_prime / message_length
    base = ControlPolicy.optimal(deadline, lam)
    splits = ("older", "newer", "random")
    return simulate_arms(
        list(splits),
        [
            _spec(
                replace(base, split=split, name=f"split_{split}"),
                lam, message_length, deadline, horizon, warmup, seed,
            )
            for split in splits
        ],
        workers,
        resilience,
        metrics,
        sequential,
    )


def arity_ablation(
    arities: Sequence[int] = (2, 3, 4),
    rho_prime: float = 0.75,
    message_length: int = 25,
    deadline: float = 75.0,
    horizon: float = 150_000.0,
    warmup: float = 20_000.0,
    seed: int = 8,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Binary versus k-ary window splitting (§5 extension, A-ARITY)."""
    lam = rho_prime / message_length
    base = ControlPolicy.optimal(deadline, lam)
    return simulate_arms(
        [f"arity {arity}" for arity in arities],
        [
            _spec(
                replace(base, split_arity=arity, name=f"arity_{arity}"),
                lam, message_length, deadline, horizon, warmup, seed,
            )
            for arity in arities
        ],
        workers,
        resilience,
        metrics,
        sequential,
    )


def twopoint_fit_errors(
    mu_low: float = 0.7,
    mu_high: float = 2.5,
    probes: Sequence[float] = (0.9, 1.0886, 1.3, 1.7, 2.1),
) -> str:
    """Relative error of the [Kurose 83] endpoint fit vs the exact law (A-FIT).

    The default endpoints bracket the protocol's realistic operating
    range around μ* (E[T](μ) is non-monotone, so endpoints far outside
    that range make *any* two-point fit hopeless — an observation worth
    keeping in mind when reading [Kurose 83]'s approximation)."""
    rows = []
    for kind in ("linear", "exponential"):
        fit = fit_two_point(mu_low, mu_high, kind=kind)
        for mu in probes:
            rows.append(
                [kind, f"{mu:g}", f"{mean_scheduling_slots(mu):.4f}",
                 f"{fit.mean_scheduling(mu):.4f}", f"{fit.relative_error(mu):.2%}"]
            )
    return ascii_table(
        ["fit", "mu", "exact E[T]", "fitted E[T]", "rel. error"], rows,
        title=f"Two-endpoint fit ({mu_low:g}..{mu_high:g}) vs exact recursion",
    )


def ablation_table(arms: List[AblationArm], title: str) -> str:
    """Render a list of arms as a table, with the arms' notes (if they
    are :class:`AblationArms`) under it."""
    table = ascii_table(["arm", "loss"], [arm.row() for arm in arms], title=title)
    notes = getattr(arms, "notes", ())
    if notes:
        table += "\n" + "\n".join(f"note: {note}" for note in notes)
    return table
