"""Tests for the packetized-voice workload."""

import math

import numpy as np
import pytest

from repro.workloads import VoiceWorkload


def make(n=10, interval=20.0, talk=1000.0, silence=1350.0, jitter=0.25):
    return VoiceWorkload(
        n_sources=n,
        packet_interval=interval,
        mean_talkspurt=talk,
        mean_silence=silence,
        jitter=jitter,
    )


class TestValidation:
    def test_needs_sources(self):
        with pytest.raises(ValueError):
            make(n=0)

    def test_positive_interval(self):
        with pytest.raises(ValueError):
            make(interval=0.0)

    def test_positive_durations(self):
        with pytest.raises(ValueError):
            make(talk=0.0)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            make(jitter=25.0)  # >= interval


class TestStatistics:
    def test_activity_factor(self):
        w = make(talk=1000.0, silence=1000.0)
        assert w.activity_factor == pytest.approx(0.5)

    def test_mean_rate_formula(self):
        # One packet at each spurt's start, then one per interval: a
        # spurt of mean T carries 1 / (1 - exp(-I/T)) packets, not T/I.
        w = make(n=4, interval=10.0, talk=1000.0, silence=1000.0)
        per_spurt = 1.0 / (1.0 - math.exp(-10.0 / 1000.0))
        assert w.mean_rate == pytest.approx(4 * per_spurt / 2000.0)
        # At I = T the start-of-spurt packet dominates: 1.58x T/I.
        w = make(n=1, interval=40.0, talk=40.0, silence=40.0, jitter=0.0)
        assert w.mean_rate == pytest.approx(1.0 / (80.0 * (1.0 - math.exp(-1.0))))

    def test_generated_rate_matches(self, rng):
        w = make(n=20)
        times, _ = w.generate(300_000.0, 20, rng)
        assert times.size == pytest.approx(w.mean_rate * 300_000, rel=0.15)

    def test_sorted_and_bounded(self, rng):
        w = make()
        times, stations = w.generate(50_000.0, 10, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.max() < 50_000.0
        assert stations.max() < 10

    def test_packets_within_talkspurt_are_periodic(self, rng):
        """A single source's packet gaps concentrate at the frame interval."""
        w = VoiceWorkload(
            n_sources=1,
            packet_interval=20.0,
            mean_talkspurt=10_000.0,
            mean_silence=1.0,
            jitter=0.0,
        )
        times, _ = w.generate(100_000.0, 1, rng)
        gaps = np.diff(times)
        assert np.median(gaps) == pytest.approx(20.0, abs=0.5)

    def test_station_mapping_round_robin(self, rng):
        w = make(n=6)
        _, stations = w.generate(100_000.0, 3, rng)
        assert set(np.unique(stations)) <= {0, 1, 2}
