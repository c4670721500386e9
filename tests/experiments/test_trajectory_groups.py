"""One trajectory per deadline-free arm: grouped scoring equals separate runs.

:meth:`SweepExecutor.run_specs` runs each group of specs that differ only
in ``deadline`` once and scores every member's deadline from that run.
These tests hold every member to a separate run of itself — every
``MACSimResult`` field, the ``faults`` telemetry (excluded from result
equality, so compared explicitly) and the per-run metrics registry — on
the compiled, reference, feedback-faulted and replica engines, and pin
the journal contract: one record per spec fingerprint, interchangeable
with journals written one spec at a time.  Each test fails against a
grouping that hands every member the first member's result.
"""

import pytest

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    SweepExecutor,
    spec_fingerprint,
)
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import run_spec, run_spec_with_metrics, run_sweep_task
from repro.faults import FaultModel, FeedbackFaultModel
from repro.mac.simulator import WindowMACSimulator
from repro.obs.metrics import MetricsRegistry
from repro.resilience import RunJournal, SupervisedExecutor

M = 25
LAM = 0.5 / M
#: A float, an int (whose repr must survive rescoring) and no scoring.
DEADLINES = (12.5, 25, None)

ARMS = {
    "fcfs": ControlPolicy.uncontrolled_fcfs,
    "lcfs": ControlPolicy.uncontrolled_lcfs,
    "random": ControlPolicy.uncontrolled_random,
}
ENGINES = {
    "compiled": {},
    "reference": {"backend": "reference"},
    "feedback-faulted": {"feedback_faults": FeedbackFaultModel.noise(0.02)},
    "replica-null": {"fault_model": FaultModel.none()},
    "replica-noise": {"fault_model": FaultModel.feedback_noise(0.02)},
}


def _cells(arm="fcfs", engine="compiled", seeds=(3,), deadlines=DEADLINES):
    """One spec per (seed, deadline): a trajectory group per seed."""
    return [
        MACRunSpec(
            policy=ARMS[arm](LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            horizon=2_500.0,
            warmup=250.0,
            n_stations=25,
            deadline=deadline,
            seed=seed,
            **ENGINES[engine],
        )
        for seed in seeds
        for deadline in deadlines
    ]


def _controlled(deadlines=(50, 75, 100)):
    return [
        MACRunSpec(
            policy=ControlPolicy.optimal(deadline, LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            horizon=4_000.0,
            warmup=400.0,
            n_stations=25,
            deadline=deadline,
            seed=3,
        )
        for deadline in deadlines
    ]


@pytest.fixture
def runs(monkeypatch):
    """Every ``WindowMACSimulator.run`` call of the test (inline sweeps)."""
    calls = []
    real = WindowMACSimulator.run

    def counted(self, *args, **kwargs):
        calls.append(self.deadline)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(WindowMACSimulator, "run", counted)
    return calls


def _assert_separate(results, specs):
    """Each result equals a separate run of its spec, telemetry included."""
    separate = [run_spec(spec) for spec in specs]
    assert results == separate
    assert [r.faults for r in results] == [r.faults for r in separate]
    assert [repr(r.deadline) for r in results] == [
        repr(spec.deadline) for spec in specs
    ]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_grouped_results_equal_separate_runs(arm, engine, runs):
    specs = _cells(arm, engine)
    grouped = SweepExecutor(None).run_specs(specs)
    assert runs == [specs[0].deadline], "one trajectory, one run"
    _assert_separate(grouped, specs)
    # The deadlines really score differently, so reusing one member's
    # counts could not pass.
    assert len({r.delivered_late for r in grouped}) == len(DEADLINES)
    if engine in ("feedback-faulted", "replica-noise"):
        assert any(r.faults.corrupted_observations for r in grouped)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_grouped_registries_equal_separate_runs(engine):
    specs = _cells("lcfs", engine)
    entries = run_sweep_task(tuple(specs), instrumented=True)
    separate = [run_spec_with_metrics(spec) for spec in specs]
    assert [result for result, _ in entries] == [r for r, _ in separate]
    assert [state for _, state in entries] == [s for _, s in separate]
    late = [state["mac.messages.late"]["value"] for _, state in entries]
    assert len(set(late)) == len(DEADLINES)

    executor = SweepExecutor(None, metrics=MetricsRegistry())
    assert executor.run_specs(specs) == [r for r, _ in separate]
    merged = MetricsRegistry.merged(
        MetricsRegistry.from_dict(state) for _, state in separate
    )
    assert executor.last_sim_metrics.to_dict() == merged.to_dict()


def test_controlled_specs_each_run_once(runs):
    controlled = _controlled()
    fcfs = _cells("fcfs")
    specs = controlled + fcfs
    results = SweepExecutor(None).run_specs(specs)
    assert sorted(runs, key=repr) == sorted(
        [spec.deadline for spec in controlled] + [fcfs[0].deadline], key=repr
    )
    _assert_separate(results, specs)


def test_worker_count_does_not_change_grouped_results():
    specs = _controlled() + _cells("fcfs", seeds=(3, 4)) + _cells("random")
    inline = SweepExecutor(None, metrics=MetricsRegistry())
    pooled = SweepExecutor(2, metrics=MetricsRegistry())
    results = inline.run_specs(specs)
    assert pooled.run_specs(specs) == results
    assert pooled.last_sim_metrics.to_dict() == inline.last_sim_metrics.to_dict()
    assert pooled.last_outcome.executed == len(specs)
    _assert_separate(results, specs)


class TestJournal:
    def test_spec_by_spec_journal_resumes_and_verifies_grouped(self, tmp_path):
        journal = str(tmp_path / "j")
        specs = _cells("fcfs", seeds=(3, 4))
        written = SupervisedExecutor(
            None, ResilienceOptions(checkpoint=journal)
        ).run(run_spec, specs, [spec_fingerprint(spec) for spec in specs])
        assert written.executed == len(specs)

        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal, resume=True)
        )
        assert resumer.run_specs(specs) == written.results
        assert resumer.last_outcome.executed == 0
        assert resumer.last_outcome.replayed == len(specs)

        # --verify-replay recomputes every member grouped and compares
        # it with the record written by a separate run.
        verifier = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal, verify_replay=True)
        )
        assert verifier.run_specs(specs) == written.results
        assert verifier.last_outcome.executed == len(specs)

    def test_grouped_journal_holds_one_record_per_spec(self, tmp_path, runs):
        journal = str(tmp_path / "j")
        specs = _cells("lcfs", seeds=(3, 4))
        executor = SweepExecutor(None, ResilienceOptions(checkpoint=journal))
        results = executor.run_specs(specs)
        assert len(runs) == 2
        assert executor.last_outcome.executed == len(specs)

        store = RunJournal(journal)
        assert sorted(store.fingerprints()) == sorted(
            spec_fingerprint(spec) for spec in specs
        )
        for spec, result in zip(specs, results):
            hit, value = store.get(spec_fingerprint(spec))
            assert hit and value == run_spec(spec)
            assert value == result

        # A spec-by-spec executor replays the grouped journal whole.
        replayer = SupervisedExecutor(
            None, ResilienceOptions(checkpoint=journal, resume=True)
        )
        replay = replayer.run(
            run_spec, specs, [spec_fingerprint(spec) for spec in specs]
        )
        assert replay.replayed == len(specs) and replay.executed == 0
        assert replay.results == results

    def test_instrumented_group_journals_result_and_registry(self, tmp_path):
        journal = str(tmp_path / "j")
        specs = _cells("random")
        executor = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal), metrics=MetricsRegistry()
        )
        executor.run_specs(specs)
        store = RunJournal(journal)
        for spec in specs:
            hit, value = store.get(spec_fingerprint(spec, instrumented=True))
            assert hit and value == run_spec_with_metrics(spec)

    def test_partly_journaled_group_runs_only_its_misses(self, tmp_path, runs):
        journal = str(tmp_path / "j")
        specs = _cells("fcfs")
        SweepExecutor(None, ResilienceOptions(checkpoint=journal)).run_specs(
            specs[:1]
        )
        del runs[:]

        executor = SweepExecutor(None, ResilienceOptions(checkpoint=journal))
        results = executor.run_specs(specs)
        assert runs == [specs[1].deadline], "the two misses share one run"
        assert executor.last_outcome.replayed == 1
        assert executor.last_outcome.executed == 2
        _assert_separate(results, specs)

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_poisoned_group_leaves_a_hole_at_each_member(
        self, monkeypatch, instrumented
    ):
        specs = _cells("fcfs", seeds=(3, 4))
        real = sweep_mod._build_simulator

        def poisoned(spec, metrics=None):
            if spec.seed == 3:
                raise RuntimeError("injected poison trajectory")
            return real(spec, metrics=metrics)

        monkeypatch.setattr(sweep_mod, "_build_simulator", poisoned)
        registry = MetricsRegistry() if instrumented else None
        executor = SweepExecutor(
            None,
            ResilienceOptions(max_retries=1, backoff_base=0.0),
            metrics=registry,
        )
        results = executor.run_specs(specs)
        monkeypatch.setattr(sweep_mod, "_build_simulator", real)

        outcome = executor.last_outcome
        poisoned_members = [k for k, spec in enumerate(specs) if spec.seed == 3]
        assert outcome.holes() == poisoned_members
        assert [r.fingerprint for r in outcome.quarantined] == [
            spec_fingerprint(specs[k], instrumented) for k in poisoned_members
        ]
        assert all(r.attempts == 2 for r in outcome.quarantined)
        assert all(results[k] is None for k in poisoned_members)
        healthy = [k for k in range(len(specs)) if k not in poisoned_members]
        _assert_separate([results[k] for k in healthy], [specs[k] for k in healthy])
        assert outcome.executed == len(healthy)
        assert f"{len(poisoned_members)} quarantined" in outcome.summary()
        if instrumented:
            # The run report counts cells as the footer does: members.
            assert registry.value("sweep.cells.executed") == outcome.executed
            assert registry.value("sweep.cells.quarantined") == len(
                poisoned_members
            )
