"""Every sweep driver's degraded-mode text, pinned as literal strings.

One cell (or one replication) is poisoned by replacing
``run_sweep_task`` under ``ResilienceOptions(max_retries=0)``, so the
supervisor quarantines it at the first failure.  Each driver must then
render the same hole notes, ``[quarantined]`` arms and sweep footers,
fresh and resumed from the same checkpoint, in fixed and sequential
mode.  The strings are the drivers' output as it stands; a change to
any of them is a change to the reports and must show up here.  A fixed
cell whose runs resolved no message is pinned the same way.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.ablations import ablation_table, element4_ablation
from repro.experiments.figure7 import PanelConfig, generate_panel
from repro.experiments.robustness import (
    RobustnessConfig,
    feedback_error_sweep,
    protocol_degradation_sweep,
)
from repro.experiments.sensitivity import station_count_sensitivity
from repro.experiments.sweep import MACRunSpec, ResilienceOptions
from repro.experiments.validity import ValidityConfig, run_validity
from repro.stats.sequential import SequentialConfig

SEQUENTIAL = SequentialConfig(
    ci_target=0.05, min_replications=2, max_replications=2
)
SMALL = dict(horizon=2000.0, warmup=250.0)
ROBUSTNESS = RobustnessConfig(horizon=2000.0, n_seeds=2)
VALIDITY = ValidityConfig(
    rho_primes=(0.5,),
    message_lengths=(25,),
    deadline_factors=(3.0,),
    families=("stationary", "adversarial"),
    **SMALL,
)


@pytest.fixture
def poison(monkeypatch):
    """Quarantine every task holding a spec that ``predicate`` accepts."""

    def install(predicate):
        real = sweep_mod.run_sweep_task

        def poisoned(task, instrumented=False):
            members = (task,) if isinstance(task, MACRunSpec) else task
            if any(predicate(spec) for spec in members):
                raise RuntimeError("injected poison cell")
            return real(task, instrumented=instrumented)

        monkeypatch.setattr(sweep_mod, "run_sweep_task", poisoned)

    return install


def _options(checkpoint=None, resume=False):
    return ResilienceOptions(
        max_retries=0, backoff_base=0.0, checkpoint=checkpoint, resume=resume
    )


def _figure7(resilience, sequential):
    return generate_panel(
        PanelConfig(0.5, 25),
        include_simulation=True,
        sim_horizon=SMALL["horizon"],
        sim_warmup=SMALL["warmup"],
        sim_deadlines=(25.0, 75.0),
        resilience=resilience,
        sequential=sequential,
    ).notes


def _validity(resilience, sequential):
    return run_validity(
        VALIDITY, resilience=resilience, sequential=sequential
    ).notes


def _feedback(resilience, sequential):
    return feedback_error_sweep(
        ROBUSTNESS,
        error_rates=(0.0, 0.02),
        resilience=resilience,
        sequential=sequential,
    ).notes


def _degradation(resilience, sequential):
    return protocol_degradation_sweep(
        ROBUSTNESS,
        error_rates=(0.0, 0.02),
        resilience=resilience,
        sequential=sequential,
    ).notes


def _element4(resilience, sequential):
    return element4_ablation(
        **SMALL, resilience=resilience, sequential=sequential
    ).notes


def _stations(resilience, sequential):
    return station_count_sensitivity(
        station_counts=(4, 16),
        **SMALL,
        resilience=resilience,
        sequential=sequential,
    ).notes


def _no_discard(spec):
    return spec.policy.name == "no_discard"


def _sixteen_stations(spec):
    return spec.n_stations == 16


def _controlled_k25(spec):
    return spec.policy.name == "controlled" and spec.deadline == 25.0


def _adversarial(spec):
    return spec.workload is not None


def _noisy(spec):
    # The grids sweep error rates (0, 0.02): only the 0.02 cells carry
    # a non-zero confusion probability.
    if spec.feedback_faults is not None:
        return True
    return spec.fault_model is not None and spec.fault_model.p_idle_as_collision > 0


def _feedback_seed2(spec):
    return _noisy(spec) and spec.stream_seed == 2


def _fcfs_seed2(spec):
    return spec.policy.name == "fcfs" and _noisy(spec) and spec.stream_seed == 2


FIXED = {
    "ablations": (
        _element4,
        _no_discard,
        "no_discard: cell quarantined (no result; see sweep outcome)",
        "sweep: 1 executed, 1 quarantined",
        "sweep: 0 executed, 1 replayed from journal, 1 quarantined",
    ),
    "sensitivity": (
        _stations,
        _sixteen_stations,
        "16 stations: cell quarantined (no result; see sweep outcome)",
        "sweep: 1 executed, 1 quarantined",
        "sweep: 0 executed, 1 replayed from journal, 1 quarantined",
    ),
    "figure7": (
        _figure7,
        _controlled_k25,
        "controlled_sim @ K=25: cell quarantined (no result; see sweep outcome)",
        "simulation sweep: 5 executed, 1 quarantined",
        "simulation sweep: 0 executed, 5 replayed from journal, 1 quarantined",
    ),
    "validity": (
        _validity,
        _adversarial,
        "adversarial @ rho'=0.5, M=25, K=75: cell quarantined "
        "(no result; see sweep outcome)",
        "validity sweep: 1 executed, 1 quarantined",
        "validity sweep: 0 executed, 1 replayed from journal, 1 quarantined",
    ),
    "robustness": (
        _feedback,
        _feedback_seed2,
        "error rate 0.02: 1 of 2 replication(s) quarantined; "
        "row averages the survivors",
        "sweep: 3 executed, 1 quarantined",
        "sweep: 0 executed, 3 replayed from journal, 1 quarantined",
    ),
    "degradation": (
        _degradation,
        _fcfs_seed2,
        "fcfs at error rate 0.02: 1 of 2 replication(s) quarantined; "
        "cell averages the survivors",
        "sweep: 15 executed, 1 quarantined",
        "sweep: 0 executed, 15 replayed from journal, 1 quarantined",
    ),
}


@pytest.mark.parametrize("driver", sorted(FIXED))
def test_fixed_mode_hole_and_footer(driver, poison, tmp_path):
    run, predicate, hole, fresh, resumed = FIXED[driver]
    poison(predicate)
    checkpoint = str(tmp_path / "journal")
    assert run(_options(checkpoint), None) == [hole, fresh]
    assert run(_options(checkpoint, resume=True), None) == [hole, resumed]


def _fcfs_noisy(spec):
    return spec.policy.name == "fcfs" and _noisy(spec)


UNTRACKED = "; fault telemetry columns not tracked in this mode"
SEQUENTIAL_NOTES = {
    "ablations": (
        _element4,
        _no_discard,
        "no_discard: every lane quarantined (no estimate)",
        "sequential replication: 4 lanes across 2 cells "
        "(ci_target=0.05, wilson/obf, crn)",
    ),
    "sensitivity": (
        _stations,
        _sixteen_stations,
        "16 stations: every lane quarantined (no estimate)",
        "sequential replication: 4 lanes across 2 cells "
        "(ci_target=0.05, wilson/obf, crn)",
    ),
    "figure7": (
        _figure7,
        _controlled_k25,
        "controlled_sim @ K=25: every lane quarantined (no estimate)",
        "sequential replication: 12 lanes across 6 cells "
        "(ci_target=0.05, wilson/obf, crn)",
    ),
    "validity": (
        _validity,
        _adversarial,
        "adversarial @ rho'=0.5, M=25, K=75: every lane quarantined "
        "(no estimate)",
        "sequential replication: 4 lanes across 2 cells "
        "(ci_target=0.05, wilson/obf, crn)",
    ),
    "robustness": (
        _feedback,
        _noisy,
        "error rate 0.02: every lane quarantined (no estimate)",
        "sequential replication: 4 lanes across 2 cells "
        "(ci_target=0.05, wilson/obf, crn)" + UNTRACKED,
    ),
    "degradation": (
        _degradation,
        _fcfs_noisy,
        "fcfs at error rate 0.02: every lane quarantined (no estimate)",
        "sequential replication: 16 lanes across 8 cells "
        "(ci_target=0.05, wilson/obf, crn)" + UNTRACKED,
    ),
}


@pytest.mark.parametrize("driver", sorted(SEQUENTIAL_NOTES))
def test_sequential_mode_hole_and_lane_note(driver, poison, tmp_path):
    run, predicate, hole, lanes = SEQUENTIAL_NOTES[driver]
    poison(predicate)
    checkpoint = str(tmp_path / "journal")
    assert run(_options(checkpoint), SEQUENTIAL) == [hole, lanes]
    assert run(_options(checkpoint, resume=True), SEQUENTIAL) == [hole, lanes]


@pytest.mark.parametrize("sequential", [None, SEQUENTIAL], ids=["fixed", "sequential"])
def test_ablation_arm_is_marked_quarantined(sequential, poison):
    poison(lambda spec: spec.policy.name == "no_discard")
    arms = element4_ablation(
        **SMALL, resilience=_options(), sequential=sequential
    )
    assert arms[1].row() == ["no_discard [quarantined]", "nan"]
    assert arms[0].row()[0] == "controlled"


@pytest.mark.parametrize("sequential", [None, SEQUENTIAL], ids=["fixed", "sequential"])
def test_sensitivity_arm_is_marked_quarantined(sequential, poison):
    poison(lambda spec: spec.n_stations == 16)
    arms = station_count_sensitivity(
        station_counts=(4, 16),
        **SMALL,
        resilience=_options(),
        sequential=sequential,
    )
    assert arms[1].row() == ["16 stations [quarantined]", "nan"]
    assert arms[0].row()[0] == "4 stations"


def test_resumed_ablation_table_prints_the_footer(tmp_path):
    # The notes travel with the arms into the rendered table.
    checkpoint = str(tmp_path / "journal")
    fresh = element4_ablation(**SMALL, resilience=_options(checkpoint))
    resumed = element4_ablation(
        **SMALL, resilience=_options(checkpoint, resume=True)
    )
    assert ablation_table(resumed, "A-EL4") == (
        ablation_table(fresh, "A-EL4")
        + "\nnote: sweep: 0 executed, 2 replayed from journal"
    )


def test_fixed_cell_that_resolved_no_message_is_noted():
    # A horizon of 30 slots ends before any message resolves: every
    # simulated cell reads nan, and says why.
    notes = generate_panel(
        PanelConfig(0.25, 25),
        include_simulation=True,
        sim_horizon=30.0,
        sim_warmup=3.75,
        sim_deadlines=(25.0, 75.0),
    ).notes
    assert notes == [
        f"{arm}_sim @ K={k}: no run resolved a message (no estimate)"
        for arm in ("controlled", "fcfs", "lcfs")
        for k in (25, 75)
    ]


def test_fixed_cell_with_one_empty_replication_is_noted(monkeypatch):
    # One of a row's two replications resolved nothing: the row's mean
    # is nan, and the note counts the empty run.
    real = sweep_mod.run_sweep_task

    def emptied(task, instrumented=False):
        result = real(task, instrumented=instrumented)
        if _feedback_seed2(task):
            return dataclasses.replace(result, unresolved=result.arrivals)
        return result

    monkeypatch.setattr(sweep_mod, "run_sweep_task", emptied)
    assert _feedback(None, None) == [
        "error rate 0.02: 1 of 2 runs resolved no message (no estimate)"
    ]
