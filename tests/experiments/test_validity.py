"""Unit tests for the model-validity sweep driver."""

import math

import pytest

from repro.experiments import (
    DEFAULT_AGREEMENT_TOL,
    SCENARIO_FAMILIES,
    ValidityConfig,
    run_validity,
    scenario_workload,
)
from repro.obs.metrics import MetricsRegistry

SMALL = ValidityConfig(
    rho_primes=(0.5,),
    message_lengths=(25,),
    deadline_factors=(3.0,),
    families=("stationary", "adversarial"),
    horizon=6_000.0,
    warmup=750.0,
)


class TestScenarioWorkloads:
    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    @pytest.mark.parametrize("rate", (0.01, 0.02, 0.0075))
    def test_every_family_is_rate_matched(self, family, rate):
        workload = scenario_workload(family, rate)
        if family == "stationary":
            assert workload is None  # the simulator's built-in Poisson
        else:
            assert workload.mean_rate == pytest.approx(rate, rel=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            scenario_workload("fractal", 0.02)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            ValidityConfig(families=("stationary", "fractal"))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            ValidityConfig(rho_primes=())

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            ValidityConfig(agreement_tol=0.0)

    def test_bad_deadline_factor(self):
        with pytest.raises(ValueError, match="deadline factors"):
            ValidityConfig(deadline_factors=(0.0, 3.0))


class TestRunValidity:
    def test_small_sweep_shape_and_control_arm(self):
        report = run_validity(SMALL)
        assert len(report.cells) == 2
        assert [cell.family for cell in report.cells] == [
            "stationary",
            "adversarial",
        ]
        for cell in report.cells:
            assert cell.deadline == 75.0
            assert 0.0 <= cell.analytic <= 1.0
            assert 0.0 <= cell.simulated <= 1.0
            assert math.isfinite(cell.stderr)
            assert cell.delta == cell.simulated - cell.analytic
        # Both cells compare against the same Poisson counterfactual.
        assert report.cells[0].analytic == report.cells[1].analytic
        # The adversarial arm diverges far beyond the control arm even
        # on this short horizon.
        assert abs(report.cells[1].delta) > abs(report.cells[0].delta)

    def test_compiled_and_reference_sweeps_agree(self):
        compiled = run_validity(SMALL)
        reference = run_validity(SMALL, backend="reference")
        assert compiled.cells == reference.cells

    def test_family_summaries_and_tables(self):
        report = run_validity(SMALL)
        summaries = {s.family: s for s in report.family_summaries()}
        assert set(summaries) == {"stationary", "adversarial"}
        assert summaries["adversarial"].cells == 1
        assert summaries["adversarial"].max_abs_delta == abs(
            report.cell("adversarial", 0.5, 25, 75.0).delta
        )
        table = report.to_table()
        assert "Family verdicts" in table
        assert "adversarial" in table
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("family,rho_prime")
        assert len(csv.splitlines()) == 3

    def test_flush_metrics_writes_the_divergence_map(self):
        registry = MetricsRegistry()
        run_validity(SMALL, metrics=registry)
        state = registry.to_dict()
        key = "validity.adversarial.rho0.5.m25.k75"
        assert f"{key}.delta" in state
        assert state[f"{key}.delta"]["value"] == pytest.approx(
            state[f"{key}.simulated"]["value"] - state[f"{key}.analytic"]["value"]
        )
        assert state["validity.cells"]["value"] == 2
        assert "validity.adversarial.max_abs_delta" in state

    def test_cell_lookup_raises_on_missing(self):
        report = run_validity(SMALL)
        with pytest.raises(KeyError):
            report.cell("diurnal", 0.5, 25, 75.0)


@pytest.mark.slow
def test_full_grid_acceptance():
    # The ISSUE 9 acceptance criterion on the real Figure-7 grid: the
    # stationary control agrees with eq. 4.7 everywhere, and every
    # nonstationary family demonstrably exceeds the tolerance somewhere.
    report = run_validity(ValidityConfig(), workers=4)
    summaries = {s.family: s for s in report.family_summaries()}
    assert summaries["stationary"].holds
    for family in ("heavy-tailed", "diurnal", "flash-crowd", "adversarial"):
        assert not summaries[family].holds, family
        assert summaries[family].max_abs_delta > 2 * DEFAULT_AGREEMENT_TOL
