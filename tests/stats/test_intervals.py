"""Tests for confidence-interval machinery."""

import numpy as np
import pytest

from repro.stats import batch_means, t_interval, wilson_interval


class TestTInterval:
    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            t_interval([1.0])

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            t_interval([1.0, 2.0], level=1.0)

    def test_mean_and_bounds(self):
        ci = t_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert ci.mean == pytest.approx(3.0)
        assert ci.low < 3.0 < ci.high
        assert ci.contains(3.0)
        assert ci.n == 5

    def test_degenerate_data_zero_width(self):
        ci = t_interval([2.0, 2.0, 2.0])
        assert ci.half_width == pytest.approx(0.0)

    def test_coverage_calibration(self, rng):
        """~95% of 95% intervals should cover the true mean."""
        covered = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, size=15)
            if t_interval(sample, level=0.95).contains(10.0):
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.05)

    def test_higher_level_wider(self):
        data = [1.0, 3.0, 2.0, 4.0, 5.0, 2.5]
        assert (
            t_interval(data, level=0.99).half_width
            > t_interval(data, level=0.90).half_width
        )

    def test_str_format(self):
        text = str(t_interval([1.0, 2.0, 3.0]))
        assert "±" in text and "95%" in text


class TestBatchMeans:
    def test_needs_enough_data(self):
        with pytest.raises(ValueError):
            batch_means(list(range(10)), n_batches=20)

    def test_needs_two_batches(self):
        with pytest.raises(ValueError):
            batch_means(list(range(100)), n_batches=1)

    def test_iid_series_matches_t_interval_mean(self, rng):
        series = rng.normal(5.0, 1.0, size=2000)
        ci = batch_means(series, n_batches=20)
        assert ci.mean == pytest.approx(5.0, abs=0.15)

    def test_correlated_series_wider_than_naive(self, rng):
        """Batch means must widen the interval for autocorrelated data."""
        noise = rng.normal(0.0, 1.0, size=5000)
        ar = np.zeros(5000)
        for i in range(1, 5000):
            ar[i] = 0.95 * ar[i - 1] + noise[i]
        naive = t_interval(ar)
        batched = batch_means(ar, n_batches=10)
        assert batched.half_width > naive.half_width


class TestProportionInterval:
    """The Wilson score interval the sequential stopping rule uses."""

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_negative_successes_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)

    def test_centre_near_p_hat(self):
        ci = wilson_interval(30, 100)
        assert ci.mean == pytest.approx(0.3, abs=0.02)

    def test_zero_successes_positive_upper(self):
        """Wilson handles the boundary gracefully (no zero-width at p=0)."""
        ci = wilson_interval(0, 50)
        assert ci.low >= 0.0
        assert ci.high > 0.0

    def test_width_shrinks_with_n(self):
        small = wilson_interval(5, 50)
        large = wilson_interval(500, 5000)
        assert large.half_width < small.half_width

    def test_coverage_calibration(self, rng):
        """~95% of 95% Wilson intervals should cover the true p."""
        p, covered, trials = 0.04, 0, 400
        for _ in range(trials):
            s = int(rng.binomial(500, p))
            if wilson_interval(s, 500).contains(p):
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.05)

    def test_fractional_effective_counts(self):
        """The sequential engine deflates pooled counts by a cluster
        design effect, so the interval must accept fractional counts:
        same p-hat, fewer effective trials, wider interval."""
        full = wilson_interval(160, 800)
        deflated = wilson_interval(160 / 28.5, 800 / 28.5)
        assert deflated.mean == pytest.approx(full.mean, abs=0.08)
        assert deflated.half_width > 2.0 * full.half_width
        assert 0.0 <= deflated.low <= deflated.high <= 1.0


class TestBoundaryBehaviour:
    """Nonzero, clamped intervals at p̂ ∈ {0, 1}.

    A degenerate t interval over identical lane fractions has zero
    width, which would stop a sequential arm after one wave on pure
    luck; the Wilson interval must keep honest width at the boundaries
    instead.
    """

    def test_zero_losses_nonzero_width(self):
        ci = wilson_interval(0, 200)
        assert ci.half_width > 0.0
        assert ci.low >= 0.0
        assert ci.contains(0.0) or ci.low == 0.0

    def test_all_losses_nonzero_width(self):
        ci = wilson_interval(200, 200)
        assert ci.half_width > 0.0
        assert ci.high <= 1.0

    def test_clamped_to_unit_interval(self):
        for s, n in [(0, 3), (3, 3), (1, 3), (0, 10000), (9999, 10000)]:
            ci = wilson_interval(s, n)
            assert 0.0 <= ci.low <= ci.high <= 1.0

    def test_t_interval_zero_width_at_boundary_is_why(self):
        # The degenerate behaviour the Wilson look exists to avoid.
        assert t_interval([0.0, 0.0, 0.0, 0.0]).half_width == 0.0
