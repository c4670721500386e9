"""Determinism of the parallel sweep engine.

The executor's contract: merged sweep results are identical for any
worker count, and identical to the historical sequential loops.  Grids
here are kept tiny (short horizons) because the property under test is
exact equality, not statistics.
"""

import pytest

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    RobustnessConfig,
    SweepExecutor,
    derive_seeds,
    feedback_error_sweep,
    generate_panel,
    PanelConfig,
    spec_fingerprint,
)
from repro.experiments import sweep as sweep_mod
from repro.resilience import SupervisedExecutor

M = 25
LAM = 0.5 / M


def _base_spec_kwargs():
    return dict(
        policy=ControlPolicy.optimal(3.0 * M, LAM),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=4_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=1,
    )


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"arrival_rate": 0.0},
            {"arrival_rate": -0.01},
            {"transmission_slots": 0},
            {"horizon": 0.0},
            {"horizon": -1.0},
            {"warmup": -1.0},
            {"warmup": 4_000.0},  # warmup == horizon leaves nothing measured
            {"n_stations": 0},
            {"deadline": 0.0},
        ],
    )
    def test_bad_grid_parameters_fail_at_construction(self, overrides):
        # The whole point: a bad cell dies here with a field name, not
        # three retries deep in a worker process.
        kwargs = _base_spec_kwargs()
        kwargs.update(overrides)
        with pytest.raises(ValueError):
            MACRunSpec(**kwargs)

    def test_valid_boundaries_accepted(self):
        kwargs = _base_spec_kwargs()
        kwargs.update(warmup=0.0, transmission_slots=1, n_stations=1)
        MACRunSpec(**kwargs)  # must not raise


def _specs():
    return [
        MACRunSpec(
            policy=ControlPolicy.optimal(3.0 * M, LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            horizon=4_000.0,
            warmup=500.0,
            n_stations=25,
            deadline=3.0 * M,
            seed=seed,
        )
        for seed in derive_seeds(base_seed=77, n=6)
    ]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_does_not_change_results(workers):
    baseline = SweepExecutor(None).run_specs(_specs())
    fanned = SweepExecutor(workers).run_specs(_specs())
    assert fanned == baseline


def test_derive_seeds_deterministic_and_distinct():
    first = derive_seeds(123, 8)
    second = derive_seeds(123, 8)
    assert first == second
    assert len(set(first)) == 8
    # A prefix of a longer spawn is the same seeds: resumable grids.
    assert derive_seeds(123, 4) == first[:4]


@pytest.mark.parametrize("workers", [1, 2])
def test_figure7_panel_independent_of_workers(workers):
    config = PanelConfig(rho_prime=0.5, message_length=M)
    kwargs = dict(
        deadlines=[2.0 * M, 4.0 * M],
        include_simulation=True,
        sim_horizon=3_000.0,
        sim_warmup=400.0,
    )
    sequential = generate_panel(config, workers=None, **kwargs)
    fanned = generate_panel(config, workers=workers, **kwargs)
    for name, series in sequential.series.items():
        assert fanned.series[name].points == series.points


@pytest.mark.parametrize("workers", [1, 2])
def test_robustness_sweep_independent_of_workers(workers):
    config = RobustnessConfig(horizon=3_000.0, n_seeds=2)
    sequential = feedback_error_sweep(config, error_rates=(0.0, 0.01))
    fanned = feedback_error_sweep(
        config, error_rates=(0.0, 0.01), workers=workers
    )
    assert fanned.points == sequential.points


class TestResilientSweep:
    def test_checkpointed_sweep_resumes_bit_identical(self, tmp_path):
        baseline = SweepExecutor(None).run_specs(_specs())
        opts = ResilienceOptions(checkpoint=str(tmp_path / "j"))
        first = SweepExecutor(None, opts).run_specs(_specs())
        assert first == baseline
        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=str(tmp_path / "j"), resume=True)
        )
        resumed = resumer.run_specs(_specs())
        assert resumed == baseline
        assert resumer.last_outcome.replayed == len(baseline)
        assert resumer.last_outcome.executed == 0

    def test_fingerprints_are_grid_position_free(self):
        # Reordering the grid must not change any cell's journal key.
        specs = _specs()
        assert [spec_fingerprint(s) for s in reversed(specs)] == list(
            reversed([spec_fingerprint(s) for s in specs])
        )


class TestOneSpecPerTask:
    def test_killed_sweep_resumes_bit_identical(self, tmp_path, monkeypatch):
        # A sweep dies with one cell poisoned (stand-in for a crash
        # mid-grid) on top of a journal that already holds part of the
        # grid: journaled cells replay before dispatch, the hole keeps
        # its grid index, and a fresh invocation re-runs only the hole —
        # the final grid bit-identical to an undisturbed run.
        specs = _specs()
        baseline = SweepExecutor(None).run_specs(specs)
        journal = str(tmp_path / "j")
        SweepExecutor(None, ResilienceOptions(checkpoint=journal)).run_specs(
            specs[:3]
        )
        poison = specs[4].seed
        real = sweep_mod.run_spec

        def poisoned(spec):
            if spec.seed == poison:
                raise RuntimeError("injected poison cell")
            return real(spec)

        monkeypatch.setattr(sweep_mod, "run_spec", poisoned)
        first = SweepExecutor(
            None,
            ResilienceOptions(max_retries=0, backoff_base=0.0, checkpoint=journal),
        )
        partial = first.run_specs(specs)
        assert first.last_outcome.holes() == [4]
        assert first.last_outcome.replayed == 3
        assert first.last_outcome.executed == 2
        assert partial[:4] + partial[5:] == baseline[:4] + baseline[5:]
        assert partial[4] is None

        monkeypatch.setattr(sweep_mod, "run_spec", real)
        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal, resume=True)
        )
        assert resumer.run_specs(specs) == baseline
        assert resumer.last_outcome.replayed == len(specs) - 1
        assert resumer.last_outcome.executed == 1

    def test_fully_journaled_sweep_never_starts_the_supervisor(
        self, tmp_path, monkeypatch
    ):
        journal = str(tmp_path / "j")
        baseline = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal)
        ).run_specs(_specs())

        def refuse(*_args, **_kwargs):
            raise AssertionError("a fully journaled sweep reached the supervisor")

        monkeypatch.setattr(SupervisedExecutor, "run", refuse)
        resumer = SweepExecutor(
            2, ResilienceOptions(checkpoint=journal, resume=True)
        )
        assert resumer.run_specs(_specs()) == baseline
        assert resumer.last_outcome.replayed == len(baseline)
        assert resumer.last_outcome.executed == 0
