"""The supervised executor: retry, quarantine, pool recovery, resume.

The parallel tests spawn real process pools and kill real workers —
they are the repo's claim that a sweep survives what ``pool.map``
cannot.  Horizontal scale stays tiny (a handful of integer tasks) so
the whole file runs in seconds.
"""

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.resilience import (
    JournalMismatchError,
    ResilienceOptions,
    RunJournal,
    SupervisedExecutor,
    backoff_delay,
    value_digest,
)
from repro.resilience import supervisor as supervisor_mod
from repro.resilience.supervisor import _backoff_key, _Task

from . import _workers


def _opts(**overrides) -> ResilienceOptions:
    base = dict(max_retries=2, backoff_base=0.0)
    base.update(overrides)
    return ResilienceOptions(**base)


class TestOptions:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ResilienceOptions(max_retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            ResilienceOptions(task_timeout=0.0)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            ResilienceOptions(resume=True)

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SupervisedExecutor(
                None, _opts(checkpoint=str(tmp_path / "absent"), resume=True)
            )

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ResilienceOptions(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            ResilienceOptions(backoff_jitter=-0.1)


class TestBackoffDelay:
    def test_no_jitter_is_pure_exponential(self):
        options = _opts(backoff_base=0.5, backoff_jitter=0.0)
        delays = [backoff_delay(options, "task-a", a) for a in (1, 2, 3)]
        assert delays == [0.5, 1.0, 2.0]

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_delay(_opts(), "task-a", 0)

    def test_jitter_is_bounded(self):
        options = _opts(backoff_base=1.0, backoff_jitter=0.25)
        for attempt in (1, 2, 3):
            base = 2.0 ** (attempt - 1)
            delay = backoff_delay(options, f"task-{attempt}", attempt)
            assert base <= delay <= base * 1.25

    def test_deterministic_under_fixed_seed(self):
        # The whole retry schedule must be a pure function of the
        # options and the task identity — a re-run reproduces it.
        options = _opts(backoff_base=0.5, backoff_jitter=0.25, backoff_seed=7)
        first = [backoff_delay(options, "fp", a) for a in (1, 2, 3)]
        second = [backoff_delay(options, "fp", a) for a in (1, 2, 3)]
        assert first == second

    def test_different_tasks_spread_out(self):
        # The anti-thundering-herd property: tasks failing at the same
        # instant (one BrokenProcessPool) back off at distinct moments.
        options = _opts(backoff_base=1.0, backoff_jitter=0.25)
        delays = {backoff_delay(options, f"task-{i}", 1) for i in range(16)}
        assert len(delays) == 16

    def test_seed_changes_the_draw(self):
        a = backoff_delay(_opts(backoff_base=1.0, backoff_seed=0), "fp", 1)
        b = backoff_delay(_opts(backoff_base=1.0, backoff_seed=1), "fp", 1)
        assert a != b

    def test_zero_base_stays_zero(self):
        options = _opts(backoff_base=0.0, backoff_jitter=0.25)
        assert backoff_delay(options, "fp", 3) == 0.0


class TestBackoffKey:
    """The ISSUE 10 seeded-jitter audit: retry jitter must be keyed by
    task *content*, never by scheduler position.

    A task's ``index`` shifts with how much of the grid was already
    journaled; seeding jitter from it would make the retry schedule
    depend on journal state.
    """

    def test_fingerprint_wins_when_present(self):
        task = _Task(index=3, item=None, fingerprint="abc123")
        assert _backoff_key(task) == "abc123"

    def test_index_fallback_only_without_any_content_key(self):
        task = _Task(index=5, item=None, fingerprint=None)
        assert _backoff_key(task) == "task-5"

    def test_retry_schedule_is_worker_count_invariant(self):
        # The same cell lands at index 2 on a resumed run and index 7
        # on a fresh one; its backoff draws must agree.
        options = _opts(backoff_base=0.5, backoff_jitter=0.25)
        few_workers = _Task(index=7, item=None, fingerprint="cell-fp")
        many_workers = _Task(index=2, item=None, fingerprint="cell-fp")
        for attempt in (1, 2, 3):
            assert backoff_delay(
                options, _backoff_key(few_workers), attempt
            ) == backoff_delay(options, _backoff_key(many_workers), attempt)


class TestInline:
    def test_happy_path(self):
        outcome = SupervisedExecutor(None, _opts()).run(
            _workers.square, [0, 1, 2, 3]
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.executed == 4 and outcome.complete

    def test_strict_mode_reraises_first_failure(self):
        with pytest.raises(ValueError, match="poison item 2"):
            SupervisedExecutor(None).run(
                _workers.square_or_fail, [(x, 2) for x in range(4)]
            )

    def test_persistent_failure_quarantines_with_explicit_hole(self):
        outcome = SupervisedExecutor(None, _opts(max_retries=1)).run(
            _workers.square_or_fail, [(x, 2) for x in range(4)]
        )
        assert outcome.results == [0, 1, None, 9]
        assert not outcome.complete and outcome.holes() == [2]
        (record,) = outcome.quarantined
        assert record.index == 2
        assert record.attempts == 2  # initial + 1 retry
        assert "poison item 2" in record.reason
        assert "quarantined" in outcome.summary()

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        outcome = SupervisedExecutor(None, _opts()).run(
            _workers.fail_once, [(x, str(tmp_path)) for x in range(3)]
        )
        assert outcome.results == [0, 1, 4]
        assert outcome.retries == 3 and outcome.complete

    def test_zero_retries_quarantines_immediately(self, tmp_path):
        outcome = SupervisedExecutor(None, _opts(max_retries=0)).run(
            _workers.fail_once, [(x, str(tmp_path)) for x in range(3)]
        )
        assert outcome.results == [None, None, None]
        assert outcome.retries == 0 and len(outcome.quarantined) == 3


class TestJournal:
    def test_results_checkpoint_as_they_complete(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        fps = [f"fp-{x}" for x in range(3)]
        SupervisedExecutor(None, opts).run(_workers.square, [0, 1, 2], fps)
        journal = RunJournal(tmp_path / "j")
        assert journal.get("fp-2") == (True, 4)
        assert len(journal) == 3

    def test_second_invocation_replays_everything(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        fps = [f"fp-{x}" for x in range(3)]
        SupervisedExecutor(None, opts).run(_workers.square, [0, 1, 2], fps)
        outcome = SupervisedExecutor(None, opts).run(
            _workers.fail_always, [0, 1, 2], fps
        )
        # fail_always never ran: every cell came from the journal.
        assert outcome.results == [0, 1, 4]
        assert outcome.replayed == 3 and outcome.executed == 0
        assert "replayed" in outcome.summary()

    def test_partial_journal_runs_only_the_gap(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        fps = [f"fp-{x}" for x in range(4)]
        RunJournal(tmp_path / "j").record("fp-1", 1)
        outcome = SupervisedExecutor(None, opts).run(
            _workers.square, [0, 1, 2, 3], fps
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.replayed == 1 and outcome.executed == 3

    def test_keyboard_interrupt_leaves_a_valid_resumable_journal(self, tmp_path):
        # Ctrl-C mid-sweep is the canonical crash: completed cells must
        # already be on disk, and the rerun must do only the remainder.
        opts = _opts(checkpoint=str(tmp_path / "j"))
        fps = [f"fp-{x}" for x in range(5)]
        completed = []

        def interrupted(x):
            if x == 3:
                raise KeyboardInterrupt
            completed.append(x)
            return x * x

        with pytest.raises(KeyboardInterrupt):
            SupervisedExecutor(None, opts).run(interrupted, list(range(5)), fps)
        assert completed == [0, 1, 2]
        assert len(RunJournal(tmp_path / "j")) == 3

        resumed = SupervisedExecutor(
            None, _opts(checkpoint=str(tmp_path / "j"), resume=True)
        ).run(_workers.square, list(range(5)), fps)
        assert resumed.results == [0, 1, 4, 9, 16]
        assert resumed.replayed == 3 and resumed.executed == 2

    def test_verify_replay_accepts_deterministic_results(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        fps = [f"fp-{x}" for x in range(3)]
        SupervisedExecutor(None, opts).run(_workers.square, [0, 1, 2], fps)
        verify = _opts(
            checkpoint=str(tmp_path / "j"), resume=True, verify_replay=True
        )
        outcome = SupervisedExecutor(None, verify).run(
            _workers.square, [0, 1, 2], fps
        )
        assert outcome.results == [0, 1, 4]
        assert outcome.executed == 3  # verified by re-execution

    def test_verify_replay_rejects_divergence(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        SupervisedExecutor(None, opts).run(_workers.square, [2], ["fp-2"])
        journal = RunJournal(tmp_path / "j")
        journal.record("fp-2", 999)  # tamper
        verify = _opts(
            checkpoint=str(tmp_path / "j"), resume=True, verify_replay=True
        )
        with pytest.raises(JournalMismatchError) as excinfo:
            SupervisedExecutor(None, verify).run(_workers.square, [2], ["fp-2"])
        # The error must name the offending record file and both value
        # digests, so a CI failure is actionable without a debugger.
        message = str(excinfo.value)
        assert str(journal.record_path("fp-2")) in message
        assert value_digest(999) in message  # what the journal held
        assert value_digest(4) in message  # what re-execution produced


class TestParallel:
    def test_happy_path_matches_inline(self):
        inline = SupervisedExecutor(None, _opts()).run(
            _workers.square, list(range(8))
        )
        fanned = SupervisedExecutor(3, _opts()).run(
            _workers.square, list(range(8))
        )
        assert fanned.results == inline.results

    def test_strict_parallel_reraises_worker_exception(self):
        with pytest.raises(ValueError, match="poison item 1"):
            SupervisedExecutor(2).run(
                _workers.square_or_fail, [(x, 1) for x in range(4)]
            )

    def test_worker_exception_quarantines_without_losing_neighbours(self):
        outcome = SupervisedExecutor(2, _opts(max_retries=1)).run(
            _workers.square_or_fail, [(x, 2) for x in range(6)]
        )
        assert outcome.results == [0, 1, None, 9, 16, 25]
        assert outcome.holes() == [2]

    def test_sigkilled_worker_recovers_on_a_fresh_pool(self, tmp_path):
        # kill_once SIGKILLs its worker on the first attempt at x == 3:
        # the parent sees BrokenProcessPool, respawns, and the retry
        # (which finds the sentinel) completes — nothing is lost.
        outcome = SupervisedExecutor(2, _opts()).run(
            _workers.kill_once, [(x, str(tmp_path)) for x in range(6)]
        )
        assert outcome.results == [x * x for x in range(6)]
        assert outcome.pool_restarts >= 1
        assert outcome.complete

    def test_timeout_kills_and_quarantines_the_overdue_task(self, tmp_path):
        items = [(x, 60.0 if x == 2 else 0.0) for x in range(4)]
        opts = _opts(task_timeout=0.5, max_retries=1)
        outcome = SupervisedExecutor(2, opts).run(_workers.sleepy, items)
        assert outcome.results == [0, 1, None, 9]
        assert outcome.timeouts == 2  # initial attempt + one retry
        assert outcome.holes() == [2]
        assert "timed out" in outcome.summary()

    def test_crash_mid_sweep_keeps_completed_cells_journaled(self, tmp_path):
        opts = _opts(checkpoint=str(tmp_path / "j"))
        items = [(x, str(tmp_path / "scratch")) for x in range(6)]
        (tmp_path / "scratch").mkdir()
        fps = [f"fp-{x}" for x in range(6)]
        SupervisedExecutor(2, opts).run(_workers.kill_once, items, fps)
        journal = RunJournal(tmp_path / "j")
        assert len(journal) == 6
        assert journal.get("fp-3") == (True, 9)


class _BrokenPool:
    """Stands in for a pool whose worker died after the last wait."""

    def submit(self, fn, *args):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenOnSubmit:
    def test_submit_to_broken_pool_requeues_task_uncharged(self):
        executor = SupervisedExecutor(2, _opts())
        tasks = [_Task(index=i, item=i, fingerprint=None) for i in range(3)]
        pending, inflight = deque(tasks), {}
        healthy = executor._submit_eligible(
            _workers.square, _BrokenPool(), pending, inflight, {}, 0.0
        )
        assert healthy is False
        assert list(pending) == tasks
        assert inflight == {}
        assert all(task.attempts == 0 for task in tasks)

    def test_pool_broken_while_idle_is_respawned(self, monkeypatch):
        # A worker killed between tasks leaves a broken pool with no
        # future to report it: the next submit is the only witness.
        broken = iter([_BrokenPool()])

        def make_pool(max_workers):
            return next(broken, None) or ProcessPoolExecutor(max_workers)

        monkeypatch.setattr(supervisor_mod, "_new_pool", make_pool)
        outcome = SupervisedExecutor(2, _opts()).run(
            _workers.square, list(range(4))
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.pool_restarts == 1
        assert outcome.retries == 0
