"""Invariant guards: gating, failure class, and clean simulator runs."""

from bisect import bisect_left

import pytest

from repro.core import ControlPolicy
from repro.experiments import MACRunSpec
from repro.experiments.sweep import run_spec
from repro.faults import FeedbackFaultModel
from repro.mac.kernels import compiled
from repro.mac.kernels.engine import FlatLane
from repro.resilience import InvariantViolation, invariants_enabled, require
from repro.resilience.invariants import INVARIANTS_ENV


class TestGating:
    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv(INVARIANTS_ENV, value)
        assert invariants_enabled()

    @pytest.mark.parametrize("value", ["", "0", "no", "off"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(INVARIANTS_ENV, value)
        assert not invariants_enabled()

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        assert not invariants_enabled()


class TestRequire:
    def test_violation_is_runtime_error_not_assertion(self):
        # RuntimeError so `python -O` cannot strip the check and the
        # supervisor treats a violation like any other task failure.
        with pytest.raises(InvariantViolation) as excinfo:
            require(False, "clock stalled")
        assert isinstance(excinfo.value, RuntimeError)
        assert not isinstance(excinfo.value, AssertionError)
        assert "clock stalled" in str(excinfo.value)

    def test_true_condition_is_free(self):
        require(True, "never raised")


#: The fault settings the guarded runs cover: clean, and 2% feedback
#: noise (the faulted lane's phantom descents and capped fast-forward).
FAULTS = {"clean": None, "noise-2pct": FeedbackFaultModel.noise(0.02)}


def _spec(backend: str, faults=None) -> MACRunSpec:
    m = 25
    lam = 0.5 / m
    return MACRunSpec(
        policy=ControlPolicy.optimal(3.0 * m, lam),
        arrival_rate=lam,
        transmission_slots=m,
        horizon=4_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * m,
        seed=17,
        backend=backend,
        feedback_faults=faults,
    )


class TestSimulatorUnderGuards:
    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_guarded_run_is_clean_and_bit_identical(
        self, monkeypatch, backend, faults
    ):
        # The guards must be pure observation: enabling them neither
        # raises on a healthy run nor perturbs a single statistic (a
        # guarded compiled request stays on the compiled engine).
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        unguarded = run_spec(_spec(backend, FAULTS[faults]))
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        guarded = run_spec(_spec(backend, FAULTS[faults]))
        assert guarded == unguarded
        assert guarded.faults == unguarded.faults

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_guarded_default_run_stays_compiled(self, monkeypatch, faults):
        lanes = []
        original = compiled.run_compiled

        def counting(*args):
            lanes.append(args)
            return original(*args)

        monkeypatch.setattr(compiled, "run_compiled", counting)
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        run_spec(_spec("compiled", FAULTS[faults]))
        assert len(lanes) == 1


class TestFlatLaneGuardsFire:
    """A corrupted lane must fail under the guards, not finish quietly."""

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_uncounted_discard_fails_conservation_at_finalize(
        self, monkeypatch, faults
    ):
        def uncounted_cut(lane, now_f):
            # Element 4's backlog cut without the discard count.
            cut = bisect_left(lane.backlog_t, now_f - lane.discard_deadline)
            del lane.backlog_t[:cut]
            del lane.backlog_i[:cut]

        monkeypatch.setattr(FlatLane, "_cut", uncounted_cut)
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        run_spec(_spec("compiled", FAULTS[faults]))  # unguarded: silent
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        with pytest.raises(InvariantViolation, match="conservation"):
            run_spec(_spec("compiled", FAULTS[faults]))

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_clock_moved_backwards_fails_at_the_next_round(
        self, monkeypatch, faults
    ):
        original = FlatLane.advance_round
        rounds = []

        def rewinding(lane):
            rounds.append(lane.now)
            if len(rounds) == 10:
                lane.now = lane.last_now - 1.0
            return original(lane)

        monkeypatch.setattr(FlatLane, "advance_round", rewinding)
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        with pytest.raises(InvariantViolation, match="clock stalled"):
            run_spec(_spec("compiled", FAULTS[faults]))
        assert len(rounds) == 10

    def test_negative_window_measure_fails_at_the_next_epoch(self, monkeypatch):
        # A faulted lane runs GEN epochs only, so its unresolved columns
        # are live every round; FCFS has no element-4 clamp that could
        # drop the corrupt interval before the measure is taken.
        from dataclasses import replace

        spec = _spec("compiled", FAULTS["noise-2pct"])
        spec = replace(spec, policy=ControlPolicy.uncontrolled_fcfs(spec.arrival_rate))
        original = FlatLane.advance_round
        rounds = []

        def corrupting(lane):
            rounds.append(lane.now)
            if len(rounds) == 10:
                lane.u_lo.insert(0, -5.0)
                lane.u_hi.insert(0, -1e6)  # an interval of measure < 0
            return original(lane)

        monkeypatch.setattr(FlatLane, "advance_round", corrupting)
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        with pytest.raises(InvariantViolation, match="negative measure"):
            run_spec(spec)
        assert len(rounds) == 10
