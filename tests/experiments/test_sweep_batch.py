"""Shard-batched sweep scheduling: chunking, journals, quarantine.

A job on the sweep service is split by :func:`plan_shards` into batches
of specs (same-arm seed replications grouped, at most ``shard_size``
each), and every batch is its own ``run_specs`` call against the job's
one journal.  The contract pinned here: that batching is a *scheduling*
decision — results, journal fingerprints and resume semantics are
identical to one ``run_specs`` call over the whole grid, for any shard
size and worker count, and a poisoned cell holes only itself.
"""

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    SweepExecutor,
    derive_seeds,
    plan_shards,
)
from repro.experiments import sweep as sweep_mod

M = 25
LAM = 0.5 / M


def _spec(seed, arm="optimal", **overrides):
    policy = (
        ControlPolicy.optimal(3.0 * M, LAM)
        if arm == "optimal"
        else ControlPolicy.uncontrolled_fcfs(LAM)
    )
    kwargs = dict(
        policy=policy,
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=3_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=seed,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


def _grid():
    # Two arms x four seeds plus one reference-loop cell, so both
    # engines appear in one sweep.
    specs = [_spec(s) for s in derive_seeds(1, 4)]
    specs += [_spec(s, arm="fcfs") for s in derive_seeds(9, 4)]
    specs.append(_spec(77, backend="reference"))
    return specs


def _run_sharded(specs, shard_size, workers=None, resilience=None):
    """Run ``specs`` shard by shard, as the service does; grid-ordered
    results plus each shard's outcome."""
    results = [None] * len(specs)
    outcomes = []
    for shard in plan_shards(specs, shard_size):
        executor = SweepExecutor(workers, resilience)
        shard_results = executor.run_specs([specs[k] for k in shard])
        for index, result in zip(shard, shard_results):
            results[index] = result
        outcomes.append(executor.last_outcome)
    return results, outcomes


def _poison(monkeypatch, seed):
    real = sweep_mod.run_spec

    def poisoned(spec):
        if spec.seed == seed:
            raise RuntimeError("injected shard poison")
        return real(spec)

    monkeypatch.setattr(sweep_mod, "run_spec", poisoned)


class TestSchedulingInvariance:
    def test_results_invariant_to_batching_chunks_and_workers(self):
        specs = _grid()
        baseline = SweepExecutor(None).run_specs(specs)
        assert _run_sharded(specs, 64)[0] == baseline
        assert _run_sharded(specs, 3)[0] == baseline
        assert SweepExecutor(2).run_specs(specs) == baseline
        assert _run_sharded(specs, 4, workers=2)[0] == baseline

    def test_chunks_group_same_arm_replications(self):
        # Interleaved arms regroup into per-arm seed cohorts (first
        # appearance order) before slicing into shards.
        specs = [
            _spec(1),
            _spec(1, arm="fcfs"),
            _spec(2),
            _spec(2, arm="fcfs"),
        ]
        assert plan_shards(specs, 64) == [[0, 2, 1, 3]]
        assert plan_shards(specs, 2) == [[0, 2], [1, 3]]


class TestQuarantine:
    def test_poisoned_spec_holes_only_its_own_cell(self, monkeypatch):
        specs = [_spec(s) for s in derive_seeds(1, 6)]
        healthy = SweepExecutor(None).run_specs(specs)
        _poison(monkeypatch, specs[4].seed)
        results, outcomes = _run_sharded(
            specs, 3, resilience=ResilienceOptions(max_retries=1, backoff_base=0.0)
        )

        # Shards are [0..2] and [3..5]; only the poisoned cell holes —
        # visibly, never a silent truncation — and its shard neighbours
        # complete untouched.
        assert [r is None for r in results] == [False] * 4 + [True] + [False]
        assert outcomes[0].holes() == []
        assert outcomes[1].holes() == [1]
        (record,) = outcomes[1].quarantined
        assert "injected shard poison" in record.reason
        assert record.attempts == 2
        assert results[:4] + results[5:] == healthy[:4] + healthy[5:]


class TestJournalInterop:
    def test_batched_journal_resumes_unbatched_and_vice_versa(self, tmp_path):
        specs = _grid()
        baseline = SweepExecutor(None).run_specs(specs)

        # Journal written shard by shard, resumed in one call.
        j1 = str(tmp_path / "j-sharded")
        _run_sharded(specs, 3, resilience=ResilienceOptions(checkpoint=j1))
        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=j1, resume=True)
        )
        assert resumer.run_specs(specs) == baseline
        assert resumer.last_outcome.replayed == len(specs)
        assert resumer.last_outcome.executed == 0

        # Journal written in one call, resumed shard by shard.
        j2 = str(tmp_path / "j-plain")
        SweepExecutor(None, ResilienceOptions(checkpoint=j2)).run_specs(specs)
        resumed, outcomes = _run_sharded(
            specs, 3, resilience=ResilienceOptions(checkpoint=j2, resume=True)
        )
        assert resumed == baseline
        assert sum(outcome.replayed for outcome in outcomes) == len(specs)
        assert sum(outcome.executed for outcome in outcomes) == 0

    def test_killed_batched_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # A sharded sweep dies with one cell poisoned (stand-in for a
        # crash mid-grid): completed cells are journaled per spec, so a
        # fresh invocation replays them and re-runs only the hole — and
        # the final grid is bit-identical to an undisturbed run.
        specs = [_spec(s) for s in derive_seeds(1, 6)]
        baseline = SweepExecutor(None).run_specs(specs)
        journal = str(tmp_path / "j-killed")
        real = sweep_mod.run_spec
        _poison(monkeypatch, specs[4].seed)
        partial, _ = _run_sharded(
            specs,
            3,
            resilience=ResilienceOptions(
                max_retries=1, backoff_base=0.0, checkpoint=journal
            ),
        )
        assert partial[:4] + partial[5:] == baseline[:4] + baseline[5:]
        assert partial[4] is None

        monkeypatch.setattr(sweep_mod, "run_spec", real)
        resumed, outcomes = _run_sharded(
            specs, 3, resilience=ResilienceOptions(checkpoint=journal, resume=True)
        )
        assert resumed == baseline
        assert sum(outcome.replayed for outcome in outcomes) == len(specs) - 1
        assert sum(outcome.executed for outcome in outcomes) == 1
