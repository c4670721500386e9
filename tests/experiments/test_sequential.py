"""Determinism and contracts of the sequential replication engine.

:func:`run_sequential` is a scheduling layer over the executor: lanes
run in waves until the group-sequential look says stop.  The
properties pinned here are exact — worker-count invariance, CRN seed
sharing, journaled stopping decisions, quarantine holes —
because the stopping decision is a pure function of the journaled lane
results and must replay bit-identically.
"""

import math
from dataclasses import replace

import pytest

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    SequentialEstimate,
    SweepExecutor,
    run_sequential,
    sequential_decision_fingerprint,
)
from repro.obs import MetricsRegistry
from repro.resilience import RunJournal
from repro.stats import SequentialConfig

M = 25
LAM = 0.5 / M


def _template(name="optimal", **overrides) -> MACRunSpec:
    if name == "optimal":
        policy = ControlPolicy.optimal(3.0 * M, LAM)
    else:
        policy = getattr(ControlPolicy, name)(LAM)
    kwargs = dict(
        policy=policy,
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=2_500.0,
        warmup=300.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=0,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


def _config(**overrides) -> SequentialConfig:
    kwargs = dict(
        ci_target=0.02,
        wave_size=2,
        min_replications=4,
        max_replications=12,
    )
    kwargs.update(overrides)
    return SequentialConfig(**kwargs)


def _arms():
    return [
        ("controlled", _template("optimal")),
        ("fcfs", _template("uncontrolled_fcfs")),
    ]


class TestDeterminism:
    def test_worker_count_invariant(self):
        inline = run_sequential(_arms(), _config(), SweepExecutor(None))
        fanned = run_sequential(_arms(), _config(), SweepExecutor(2))
        assert inline == fanned

    def test_backend_invariant(self):
        reference_arms = [
            (label, replace(template, backend="reference"))
            for label, template in _arms()
        ]
        compiled = run_sequential(_arms(), _config(), SweepExecutor(None))
        reference = run_sequential(
            reference_arms, _config(), SweepExecutor(None)
        )
        assert compiled == reference

    def test_rerun_is_bit_identical(self):
        a = run_sequential(_arms(), _config(), SweepExecutor(None))
        b = run_sequential(_arms(), _config(), SweepExecutor(None))
        assert a == b

    def test_arms_stop_independently(self):
        # A loose target lets the easy arm stop early; a tiny target
        # drives every arm to the seed budget.  Estimates stay in input
        # order regardless of stopping order.
        loose = run_sequential(
            _arms(), _config(ci_target=0.5), SweepExecutor(None)
        )
        assert [e.label for e in loose] == ["controlled", "fcfs"]
        assert all(e.reason == "ci-target" for e in loose)
        tight = run_sequential(
            _arms(), _config(ci_target=1e-9), SweepExecutor(None)
        )
        assert all(e.reason == "max-replications" for e in tight)
        assert all(e.units == 12 for e in tight)


class TestSeeding:
    def test_crn_shares_unit_seeds_across_arms(self):
        # Two arms with the *same* template under CRN see the same
        # sample paths: their per-lane observations are identical, so
        # the paired arm delta is exactly zero.
        arms = [("a", _template()), ("b", _template())]
        a, b = run_sequential(arms, _config(), SweepExecutor(None))
        assert a.mean == b.mean
        assert a.half_width == b.half_width


class TestJournalReplay:
    def test_resume_replays_identical_decisions(self, tmp_path):
        config = _config()
        first = run_sequential(
            _arms(),
            config,
            SweepExecutor(
                None, ResilienceOptions(checkpoint=str(tmp_path / "j"))
            ),
        )
        resumed = run_sequential(
            _arms(),
            config,
            SweepExecutor(
                None,
                ResilienceOptions(
                    checkpoint=str(tmp_path / "j"),
                    resume=True,
                    verify_replay=True,
                ),
            ),
        )
        assert first == resumed
        assert all(e.decisions for e in resumed)

    def test_decisions_are_journaled_per_wave(self, tmp_path):
        config = _config()
        estimates = run_sequential(
            _arms(),
            config,
            SweepExecutor(
                None, ResilienceOptions(checkpoint=str(tmp_path / "j"))
            ),
        )
        journal = RunJournal(str(tmp_path / "j"))
        for (label, template), estimate in zip(_arms(), estimates):
            for decision in estimate.decisions:
                fp = sequential_decision_fingerprint(
                    template, config, decision.wave
                )
                hit, recorded = journal.get(fp)
                assert hit, f"wave {decision.wave} of {label} not journaled"
                assert recorded == decision.to_dict()

    def test_fingerprint_is_config_sensitive(self):
        template = _template()
        assert sequential_decision_fingerprint(
            template, _config(), 1
        ) != sequential_decision_fingerprint(
            template, _config(ci_target=0.05), 1
        )
        assert sequential_decision_fingerprint(
            template, _config(), 1
        ) != sequential_decision_fingerprint(template, _config(), 2)

    def test_fingerprint_is_seed_sensitive(self):
        # A different --seed derives a different lane seed list, so its
        # decisions must land on different journal keys — colliding
        # would silently retain stale stopping records.
        template = _template()
        assert sequential_decision_fingerprint(
            template, _config(), 1, base_seed=1
        ) != sequential_decision_fingerprint(
            template, _config(), 1, base_seed=2
        )

    def test_resume_with_different_seed_re_decides_cleanly(self, tmp_path):
        """A journal written under one --seed must not collide with a
        resume under another: lanes and decisions both miss, the replay
        audit stays silent, and the run equals a fresh one at the new
        seed (the contract docs/statistics.md promises for config
        changes)."""
        config = _config()
        run_sequential(
            _arms(),
            config,
            SweepExecutor(
                None, ResilienceOptions(checkpoint=str(tmp_path / "j"))
            ),
            base_seed=1,
        )
        resumed = run_sequential(
            _arms(),
            config,
            SweepExecutor(
                None,
                ResilienceOptions(
                    checkpoint=str(tmp_path / "j"),
                    resume=True,
                    verify_replay=True,
                ),
            ),
            base_seed=2,
        )
        fresh = run_sequential(
            _arms(), config, SweepExecutor(None), base_seed=2
        )
        assert resumed == fresh


class TestQuarantineAndEdges:
    def test_unresolved_lanes_poison_their_units(self):
        # A horizon short enough that nothing resolves: every lane is
        # quarantined, no observation lands, and the arm stops at the
        # seed budget instead of looping forever.
        dead = _template(
            arrival_rate=1e-9, horizon=50.0, warmup=0.0
        )
        estimate, = run_sequential(
            [("dead", dead)], _config(), SweepExecutor(None)
        )
        assert estimate.units == 0
        assert estimate.quarantined == 12
        assert estimate.lanes == 12
        assert math.isnan(estimate.mean)
        # The journaled cause must be the real one — the arm *stopped*,
        # it did not decide to continue.
        assert estimate.reason == "seed-budget-exhausted"
        assert estimate.decisions[-1].stop

    def test_empty_arm_list(self):
        assert run_sequential([], _config(), SweepExecutor(None)) == []

    def test_stderr_is_half_the_half_width(self):
        estimate = SequentialEstimate(
            label="x",
            mean=0.1,
            half_width=0.04,
            level=0.95,
            units=8,
            lanes=8,
            waves=2,
            reason="ci-target",
        )
        assert estimate.stderr() == pytest.approx(0.02)


class TestMetrics:
    def test_per_arm_stats_metrics_are_volatile(self):
        registry = MetricsRegistry(enabled=True)
        run_sequential(
            _arms(),
            _config(),
            SweepExecutor(None, metrics=registry),
        )
        names = registry.names()
        assert "stats.lanes_spent" in names
        assert "stats.arm.controlled.lanes_spent" in names
        assert "stats.arm.fcfs.stopping_wave" in names
        assert registry.value("stats.sequential_arms") == 2
        for name in names:
            if name.startswith("stats."):
                assert registry.get(name).volatile, f"{name} must be volatile"
