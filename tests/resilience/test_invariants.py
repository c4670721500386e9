"""Invariant guards: gating, failure class, and clean simulator runs."""

import pytest

from repro.core import ControlPolicy
from repro.experiments import MACRunSpec
from repro.experiments.sweep import run_spec
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


def _spec(backend: str) -> MACRunSpec:
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
    )


class TestSimulatorUnderGuards:
    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_guarded_run_is_clean_and_bit_identical(self, monkeypatch, backend):
        # The guards must be pure observation: enabling them neither
        # raises on a healthy run nor perturbs a single statistic (a
        # guarded compiled request runs the guarded reference loop).
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        unguarded = run_spec(_spec(backend))
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        guarded = run_spec(_spec(backend))
        assert guarded == unguarded
