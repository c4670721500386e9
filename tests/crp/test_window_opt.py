"""Tests for the window-length heuristic (policy element 2)."""

import pytest
from scipy.optimize import minimize_scalar

from repro.crp import WindowSizer, mean_scheduling_slots, optimal_window_occupancy


class TestOptimalOccupancy:
    def test_value_in_expected_range(self):
        """The binary-splitting optimum is known to sit near 1.1."""
        mu = optimal_window_occupancy()
        assert 0.9 < mu < 1.3

    def test_is_a_local_minimum(self):
        mu = optimal_window_occupancy()
        best = mean_scheduling_slots(mu)
        for eps in (0.05, 0.2, 0.5):
            assert mean_scheduling_slots(mu - eps) >= best
            assert mean_scheduling_slots(mu + eps) >= best

    def test_cached(self):
        assert optimal_window_occupancy() == optimal_window_occupancy()

    def test_pinned_value_is_the_bounded_minimiser(self):
        """μ* is a literal in the source; recomputing it must land on
        exactly the same float."""
        result = minimize_scalar(
            mean_scheduling_slots, bounds=(1e-3, 20.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert result.success
        assert float(result.x) == optimal_window_occupancy()


class TestWindowSizer:
    def test_default_uses_optimum(self):
        sizer = WindowSizer()
        assert sizer.target_occupancy == optimal_window_occupancy()

    def test_explicit_occupancy(self):
        sizer = WindowSizer(occupancy=2.0)
        assert sizer.target_occupancy == 2.0
        assert sizer.window_length(0.5) == pytest.approx(4.0)

    def test_window_scales_inversely_with_rate(self):
        sizer = WindowSizer()
        assert sizer.window_length(0.01) == pytest.approx(
            10 * sizer.window_length(0.1)
        )

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            WindowSizer().window_length(0.0)

    def test_mean_scheduling_at_target(self):
        sizer = WindowSizer(occupancy=1.5)
        assert sizer.mean_scheduling_slots() == pytest.approx(
            mean_scheduling_slots(1.5)
        )

    def test_heuristic_beats_neighbours_end_to_end(self):
        """The heuristic occupancy gives lower mean scheduling time than
        clearly off values — the §4.1 rationale."""
        best = WindowSizer().mean_scheduling_slots()
        assert best < mean_scheduling_slots(0.3)
        assert best < mean_scheduling_slots(4.0)
