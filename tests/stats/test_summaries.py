"""Tests for the curve-shape check."""

import pytest

from repro.stats import monotone_fraction


class TestMonotoneFraction:
    def test_needs_two(self):
        with pytest.raises(ValueError):
            monotone_fraction([1.0])

    def test_perfectly_decreasing(self):
        assert monotone_fraction([5.0, 4.0, 2.0, 1.0]) == 1.0

    def test_perfectly_increasing(self):
        assert monotone_fraction([1.0, 2.0, 3.0], decreasing=False) == 1.0

    def test_partial(self):
        assert monotone_fraction([3.0, 2.0, 2.5, 1.0]) == pytest.approx(2 / 3)
