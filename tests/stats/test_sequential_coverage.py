"""Coverage gate: the sequential stopping rule's intervals cover the truth.

A certified half-width is only worth comparing across protocols if the
interval behind it covers the true fraction late at its nominal level.
This gate measures that on four arms of the rho' = 0.25, M = 25 Figure-7
panel at the CLI horizon, spanning the loss range the panel plots:

* controlled K = 12.5 (p ~ 0.12) and K = 75 (p ~ 0.001);
* FCFS K = 37.5 (p ~ 0.02) and K = 150 (p ~ 4e-6).

Each arm's truth is its pooled fraction late over at least 1,000
independent lanes on seeds disjoint from the replays.  Every arm loses
messages with positive probability, so a truth of exactly zero would be
wrong: truth lanes grow in blocks of 1,000 until ``TRUTH_LOSS_LANES`` of
them saw a loss (the p ~ 4e-6 arm needs 4,000).  ``run_sequential``
then certifies every arm ``REPLAYS`` times at the CLI defaults, with
``base_seed`` 1 to ``REPLAYS``, and the interval of each replay must
cover the truth on at least ``NOMINAL - TOLERANCE`` of them.

The near-zero-loss FCFS arm is the one a per-lane t interval fails:
eight lanes that all read zero loss give it zero width, so it stops at
once and misses (coverage ~0.03).  See docs/statistics.md.
"""

from dataclasses import replace

import pytest

from repro.core import ControlPolicy
from repro.experiments import PanelConfig
from repro.experiments.sweep import (
    MACRunSpec,
    SweepExecutor,
    derive_seeds,
    run_sequential,
)
from repro.stats import SequentialConfig

pytestmark = pytest.mark.slow

HORIZON = 80_000.0  # `repro figure7` default --horizon
WARMUP = HORIZON * 0.125  # the warm-up `repro figure7` derives from it
NOMINAL = 0.95
TOLERANCE = 0.03
REPLAYS = 200
TRUTH_BLOCK = 1_000
TRUTH_LOSS_LANES = 5
TRUTH_MAX_LANES = 10_000
#: ``derive_seeds`` root of the truth lanes; the replays use 1..REPLAYS.
TRUTH_ROOT = 0

PANEL = PanelConfig(rho_prime=0.25, message_length=25)
ARMS = (("controlled", 12.5), ("fcfs", 37.5), ("controlled", 75.0), ("fcfs", 150.0))


def _config() -> SequentialConfig:
    """The stopping rule `repro figure7 --sequential` runs by default."""
    return SequentialConfig(ci_target=0.01, min_replications=8, max_replications=64)


def _template(protocol: str, deadline: float) -> MACRunSpec:
    lam = PANEL.arrival_rate
    if protocol == "controlled":
        policy = ControlPolicy.optimal(deadline, lam, PANEL.occupancy)
    else:
        policy = ControlPolicy.uncontrolled_fcfs(lam)
    return MACRunSpec(
        policy=policy,
        arrival_rate=lam,
        transmission_slots=PANEL.message_length,
        horizon=HORIZON,
        warmup=WARMUP,
        deadline=deadline,
    )


def _label(arm) -> str:
    protocol, deadline = arm
    return f"{protocol}-K{deadline:g}"


def _truth(template: MACRunSpec, seeds, executor: SweepExecutor) -> float:
    """Pooled fraction late over enough lanes to have seen losses."""
    lost = resolved = loss_lanes = 0
    for start in range(0, len(seeds), TRUTH_BLOCK):
        block = seeds[start : start + TRUTH_BLOCK]
        for r in executor.run_specs([replace(template, seed=s) for s in block]):
            late = r.delivered_late + r.discarded + r.lost_to_faults
            lost += late
            resolved += r.resolved
            loss_lanes += late > 0
        if loss_lanes >= TRUTH_LOSS_LANES:
            return lost / resolved
    raise AssertionError(f"{loss_lanes} of {len(seeds)} truth lanes saw a loss")


@pytest.fixture(scope="module")
def coverage():
    """Per-arm share of replays whose interval covers the truth."""
    config = _config()
    templates = [(_label(arm), _template(*arm)) for arm in ARMS]
    executor = SweepExecutor(None)

    truth_seeds = derive_seeds(TRUTH_ROOT, TRUTH_MAX_LANES)
    replay_seeds = {
        seed
        for base_seed in range(1, REPLAYS + 1)
        for seed in derive_seeds(base_seed, config.max_replications)
    }
    assert not replay_seeds & set(truth_seeds)
    truth = {
        label: _truth(template, truth_seeds, executor)
        for label, template in templates
    }

    covered = dict.fromkeys(truth, 0)
    for base_seed in range(1, REPLAYS + 1):
        for est in run_sequential(templates, config, executor, base_seed=base_seed):
            low, high = est.mean - est.half_width, est.mean + est.half_width
            covered[est.label] += low <= truth[est.label] <= high
    return {label: hits / REPLAYS for label, hits in covered.items()}


@pytest.mark.parametrize("arm", ARMS, ids=_label)
def test_interval_covers_truth_at_nominal_level(coverage, arm):
    realised = coverage[_label(arm)]
    assert realised >= NOMINAL - TOLERANCE, (
        f"{_label(arm)}: realised coverage {realised:.3f} below "
        f"{NOMINAL} - {TOLERANCE}"
    )
