"""Tests for the collision-resolution recursion."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crp import (
    ExactSchedulingModel,
    binomial_split_probabilities,
    expected_resolution_steps,
    optimal_window_occupancy,
    resolution_time_pmf,
)
from repro.crp import scheduling_time
from repro.crp.splitting import resolution_success_probability


class TestBinomialSplit:
    def test_sums_to_one(self):
        for n in range(0, 12):
            assert sum(binomial_split_probabilities(n)) == pytest.approx(1.0)

    def test_symmetric(self):
        q = binomial_split_probabilities(6)
        assert q == tuple(reversed(q))

    def test_known_values(self):
        assert binomial_split_probabilities(2) == (0.25, 0.5, 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial_split_probabilities(-1)


class TestExpectedSteps:
    def test_requires_collision(self):
        with pytest.raises(ValueError):
            expected_resolution_steps(1)

    def test_two_arrivals_exact(self):
        """D(2)·(1 − 1/4 − 1/4) = 1/2  →  D(2) = 1."""
        assert expected_resolution_steps(2) == pytest.approx(1.0)

    def test_three_arrivals_exact(self):
        """Hand computation: D(3) = (5/8 + 3/8·D(2)) / (1 − 1/8 − 1/8) = 4/3."""
        assert expected_resolution_steps(3) == pytest.approx(4.0 / 3.0)

    def test_monotone_increasing_in_n(self):
        values = [expected_resolution_steps(n) for n in range(2, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_logarithmic_growth(self):
        """Splitting isolates one of n in roughly log2(n) levels."""
        assert expected_resolution_steps(64) < 4 * math.log2(64)


class TestResolutionPmf:
    def test_degenerate_rows(self):
        pmf = resolution_time_pmf(1, 10)
        assert pmf[0, 0] == 1.0
        assert pmf[1, 0] == 1.0

    def test_negative_args_rejected(self):
        with pytest.raises(ValueError):
            resolution_time_pmf(-1, 5)
        with pytest.raises(ValueError):
            resolution_time_pmf(5, -1)

    def test_n2_geometric_structure(self):
        """For n = 2: success at each level with prob 1/2 (older half has
        exactly one) and stay otherwise → P(T = t) = (1/2)^{t+1}."""
        pmf = resolution_time_pmf(2, 20)
        for t in range(10):
            assert pmf[2, t] == pytest.approx(0.5 ** (t + 1))

    def test_rows_sum_to_at_most_one(self):
        pmf = resolution_time_pmf(10, 50)
        sums = pmf.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)

    def test_rows_approach_one_with_long_horizon(self):
        pmf = resolution_time_pmf(8, 300)
        assert pmf[8].sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_recursion(self):
        """Σ t·P_n(t) must reproduce D(n) (two independent computations)."""
        t_max = 800
        pmf = resolution_time_pmf(12, t_max)
        for n in (2, 3, 5, 8, 12):
            mean = float(np.dot(np.arange(t_max + 1), pmf[n]))
            assert mean == pytest.approx(expected_resolution_steps(n), rel=1e-6)

    def test_success_probability_helper(self):
        assert resolution_success_probability(1, 5) == 1.0
        assert resolution_success_probability(2, 200) == pytest.approx(1.0, abs=1e-9)
        assert resolution_success_probability(2, 0) == pytest.approx(0.5)

    @given(n=st.integers(2, 20))
    def test_pmf_nonnegative_property(self, n):
        pmf = resolution_time_pmf(n, 60)
        assert np.all(pmf >= 0.0)


def _scalar_resolution_time_pmf(n_max, t_max):
    """The recursion as a plain scalar loop: each row's terms added left
    to right, q₀·P_n first.  The oracle of the vectorised form."""
    pmf = np.zeros((n_max + 1, t_max + 1))
    pmf[0, 0] = 1.0
    if n_max >= 1:
        pmf[1, 0] = 1.0
    if n_max < 2:
        return pmf
    q_rows = [binomial_split_probabilities(n) for n in range(n_max + 1)]
    for n in range(2, n_max + 1):
        pmf[n, 0] = q_rows[n][1]
    for t in range(1, t_max + 1):
        previous = pmf[:, t - 1]
        for n in range(2, n_max + 1):
            q = q_rows[n]
            value = q[0] * previous[n]
            for j in range(2, n + 1):
                value += q[j] * previous[j]
            pmf[n, t] = value
    return pmf


def _assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.fixture(scope="module")
def scalar_pmf_60_399():
    return _scalar_resolution_time_pmf(60, 399)


class TestBitwiseAgainstScalarLoop:
    """The vectorised recursion must equal the scalar loop bit for bit:
    Figure 7's analytic curves are pinned to the last digit."""

    @pytest.mark.parametrize("t_max", [0, 1, 2, 50, 399])
    def test_grid(self, t_max, scalar_pmf_60_399):
        # Entry (n, t) of the scalar loop depends on no row above n and
        # no column after t, so every (n_max, t_max) is a corner of the
        # one (60, 399) table.
        for n_max in range(61):
            _assert_bitwise_equal(
                resolution_time_pmf(n_max, t_max),
                scalar_pmf_60_399[: n_max + 1, : t_max + 1],
            )

    def test_figure7_shape_computed_directly(self):
        _assert_bitwise_equal(
            resolution_time_pmf(28, 399), _scalar_resolution_time_pmf(28, 399)
        )

    @given(n_max=st.integers(0, 40), t_max=st.integers(0, 120))
    def test_property(self, n_max, t_max):
        _assert_bitwise_equal(
            resolution_time_pmf(n_max, t_max),
            _scalar_resolution_time_pmf(n_max, t_max),
        )

    def test_exact_service_pmf(self, monkeypatch):
        model = ExactSchedulingModel(25, optimal_window_occupancy())
        vectorised = model.service_pmf()
        monkeypatch.setattr(
            scheduling_time, "resolution_time_pmf", _scalar_resolution_time_pmf
        )
        scalar = model.service_pmf()
        assert vectorised.delta == scalar.delta
        _assert_bitwise_equal(vectorised.p, scalar.p)
