"""Tests for confidence-interval machinery."""

import pytest

from repro.stats import wilson_interval


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

    def test_str_format(self):
        text = str(wilson_interval(3, 10))
        assert "±" in text and "95%" in text


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
