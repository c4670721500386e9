"""Chaos acceptance tests: the PR's two headline guarantees.

1. A sweep whose worker is SIGKILLed mid-run, then resumed from its
   journal by a fresh invocation, produces results **bit-identical** to
   an uninterrupted ``workers=1`` run.
2. A sweep containing a poison cell completes as a partial grid with
   the hole explicitly marked — never silently truncated.

CI runs this file as its chaos-smoke step; set
``REPRO_CHAOS_JOURNAL_DIR`` to persist the journal outside pytest's
tmp dir so a failing run can upload it as an artifact.
"""

import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    SweepExecutor,
    derive_seeds,
    run_sequential,
    spec_fingerprint,
)
from repro.experiments import sweep as sweep_mod
from repro.faults import FeedbackFaultModel
from repro.resilience import SupervisedExecutor

from . import _workers

# SIGKILL + resume round-trips take tens of seconds; the default CI job
# skips them (-m "not slow and not chaos") and the chaos-smoke job runs
# them with invariants armed.
pytestmark = pytest.mark.chaos

M = 25
LAM = 0.5 / M


def _grid(feedback_faults=None):
    return [
        MACRunSpec(
            policy=ControlPolicy.optimal(3.0 * M, LAM),
            arrival_rate=LAM,
            transmission_slots=M,
            horizon=2_500.0,
            warmup=300.0,
            n_stations=25,
            deadline=3.0 * M,
            seed=seed,
            feedback_faults=feedback_faults,
        )
        for seed in derive_seeds(base_seed=99, n=4)
    ]


def _journal_dir(tmp_path: Path) -> Path:
    # CI points this at the workspace so a failing run uploads the
    # journal as an artifact; locally it lives in pytest's tmp dir.
    root = Path(os.environ.get("REPRO_CHAOS_JOURNAL_DIR", tmp_path))
    journal = root / "chaos-journal"
    if journal.exists():
        shutil.rmtree(journal)
    return journal


def test_killed_and_resumed_sweep_is_bit_identical(tmp_path):
    baseline = SweepExecutor(None).run_specs(_grid())

    # Interrupted run: one worker SIGKILLed mid-sweep, supervision
    # recovers on a respawned pool, every cell checkpoints.
    journal = _journal_dir(tmp_path)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    specs = _grid()
    chaos = SupervisedExecutor(
        2, ResilienceOptions(checkpoint=str(journal), backoff_base=0.0)
    ).run(
        _workers.run_spec_after_kill,
        [(spec, str(scratch)) for spec in specs],
        [spec_fingerprint(spec) for spec in specs],
    )
    assert chaos.pool_restarts >= 1, "the kill must actually break a pool"
    assert chaos.complete
    assert chaos.results == baseline

    # Fresh invocation with the same journal: pure replay, still
    # bit-identical to the uninterrupted sequential run.
    resumer = SweepExecutor(
        2, ResilienceOptions(checkpoint=str(journal), resume=True)
    )
    resumed = resumer.run_specs(_grid())
    assert resumed == baseline
    assert resumer.last_outcome.replayed == len(baseline)
    assert resumer.last_outcome.executed == 0


def test_killed_and_resumed_faulted_sweep_is_bit_identical(tmp_path):
    """The kill-and-resume guarantee extends to feedback-faulted cells:
    faulted runs ride the compiled engine, and their journaled
    results replay bit-identically too."""
    faults = FeedbackFaultModel.noise(0.02, recovery="gated-rejoin")
    baseline = SweepExecutor(None).run_specs(_grid(faults))
    assert any(r.lost_to_faults > 0 or r.faults.resyncs > 0 for r in baseline)

    journal = _journal_dir(tmp_path)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    specs = _grid(faults)
    chaos = SupervisedExecutor(
        2, ResilienceOptions(checkpoint=str(journal), backoff_base=0.0)
    ).run(
        _workers.run_spec_after_kill,
        [(spec, str(scratch)) for spec in specs],
        [spec_fingerprint(spec) for spec in specs],
    )
    assert chaos.pool_restarts >= 1, "the kill must actually break a pool"
    assert chaos.complete
    assert chaos.results == baseline

    resumer = SweepExecutor(
        2, ResilienceOptions(checkpoint=str(journal), resume=True)
    )
    resumed = resumer.run_specs(_grid(faults))
    assert resumed == baseline
    assert resumer.last_outcome.replayed == len(baseline)
    assert resumer.last_outcome.executed == 0


def test_poison_cell_completes_as_partial_grid_with_marked_hole(monkeypatch):
    specs = _grid()
    poison = spec_fingerprint(specs[1])
    real = sweep_mod.run_spec

    def poisoned(spec):
        if spec_fingerprint(spec) == poison:
            raise RuntimeError("injected poison cell")
        return real(spec)

    monkeypatch.setattr(sweep_mod, "run_spec", poisoned)
    executor = SweepExecutor(
        None, ResilienceOptions(max_retries=1, backoff_base=0.0)
    )
    results = executor.run_specs(specs)

    assert results[1] is None, "the hole must stay visible at its index"
    assert all(results[i] is not None for i in (0, 2, 3))
    outcome = executor.last_outcome
    assert outcome.holes() == [1]
    (record,) = outcome.quarantined
    assert record.attempts == 2
    assert "injected poison cell" in record.reason


def test_strict_sweep_still_fails_fast(monkeypatch):
    # Without resilience options the legacy contract holds: the first
    # failure propagates instead of becoming a hole.
    specs = _grid()[:2]

    def boom(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(sweep_mod, "run_spec", boom)
    with pytest.raises(RuntimeError, match="boom"):
        SweepExecutor(None).run_specs(specs)


# Shared between the parent test and the SIGKILLed child process so the
# arm templates (and hence every journal fingerprint) are literally the
# same code.  A tiny ci_target drives both arms to the seed budget, so
# the run is guaranteed to span multiple waves for the kill to land in.
_SEQ_SETUP = textwrap.dedent(
    """
    from repro.core import ControlPolicy
    from repro.experiments import MACRunSpec
    from repro.stats import SequentialConfig

    M = 25
    LAM = 0.5 / M

    def _seq_arms():
        def template(policy):
            return MACRunSpec(
                policy=policy,
                arrival_rate=LAM,
                transmission_slots=M,
                horizon=2_500.0,
                warmup=300.0,
                n_stations=25,
                deadline=3.0 * M,
                seed=0,
            )
        return [
            ("controlled", template(ControlPolicy.optimal(3.0 * M, LAM))),
            ("fcfs", template(ControlPolicy.uncontrolled_fcfs(LAM))),
        ]

    SEQ_CONFIG = SequentialConfig(
        ci_target=1e-9,
        wave_size=2,
        min_replications=4,
        max_replications=8,
    )
    """
)

_SEQ_CHILD = _SEQ_SETUP + textwrap.dedent(
    """
    import os
    import signal
    import sys

    from repro.experiments import ResilienceOptions, SweepExecutor
    from repro.experiments.sweep import run_sequential

    class KillMidWave(SweepExecutor):
        # Wave 1 completes and journals; halfway through wave 2's lanes
        # the process dies the hard way — after some of the wave's lane
        # results hit the journal but before its stopping decision does.
        calls = 0

        def run_specs(self, specs):
            KillMidWave.calls += 1
            if KillMidWave.calls == 2:
                SweepExecutor.run_specs(self, specs[: len(specs) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            return SweepExecutor.run_specs(self, specs)

    executor = KillMidWave(
        None, ResilienceOptions(checkpoint=sys.argv[1], backoff_base=0.0)
    )
    run_sequential(_seq_arms(), SEQ_CONFIG, executor)
    raise SystemExit("unreachable: the kill must fire during wave 2")
    """
)


def test_sequential_killed_mid_wave_resumes_to_identical_report(tmp_path):
    """ISSUE 10 chaos acceptance: a sequential run SIGKILLed mid-wave,
    resumed from its journal, reaches the *same* stopping decisions and
    final per-arm report as an uninterrupted run — bit for bit."""
    namespace = {}
    exec(compile(_SEQ_SETUP, "<seq-setup>", "exec"), namespace)
    arms, config = namespace["_seq_arms"](), namespace["SEQ_CONFIG"]

    baseline = run_sequential(arms, config, SweepExecutor(None))
    assert all(e.waves > 1 for e in baseline), "need multiple looks to kill"

    journal = _journal_dir(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    child = subprocess.run(
        [sys.executable, "-c", _SEQ_CHILD, str(journal)],
        cwd=str(Path(__file__).resolve().parents[2]),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == -signal.SIGKILL, (
        f"child must die by SIGKILL mid-wave, got rc={child.returncode}: "
        f"{child.stderr[-500:]}"
    )
    assert journal.exists(), "the interrupted run must leave its journal"

    # Fresh invocation, same journal: journaled lanes replay (verified
    # against recomputation), the missing half of wave 2 executes, and
    # every wave decision re-derives identically.  last_outcome only
    # covers the final wave, so per-wave outcomes are collected here.
    wave_outcomes = []

    class Recording(SweepExecutor):
        def run_specs(self, specs):
            results = SweepExecutor.run_specs(self, specs)
            wave_outcomes.append(self.last_outcome)
            return results

    resumer = Recording(
        None,
        ResilienceOptions(
            checkpoint=str(journal), resume=True, verify_replay=True
        ),
    )
    resumed = run_sequential(arms, config, resumer)
    assert resumed == baseline
    assert [e.decisions for e in resumed] == [e.decisions for e in baseline]
    # verify_replay recomputes journal hits instead of reusing them, so
    # the audit pass shows executed lanes only; the mismatch-free run IS
    # its assertion.  A second, plain resume then proves the journal is
    # complete: every lane replays, nothing executes.
    wave_outcomes.clear()
    replayer = Recording(
        None, ResilienceOptions(checkpoint=str(journal), resume=True)
    )
    replayed_run = run_sequential(arms, config, replayer)
    assert replayed_run == baseline
    assert sum(o.executed for o in wave_outcomes) == 0
    assert sum(o.replayed for o in wave_outcomes) == sum(
        e.lanes for e in baseline
    )
