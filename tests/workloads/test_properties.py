"""Property tests over every Workload generator, new and existing.

Four contracts every generator must keep, whatever its parameters:

* times sorted and inside ``[0, horizon)``, one station per time;
* station indices are integers in ``[0, n_stations)``;
* the empirical arrival count tracks ``mean_rate`` (the window-length
  heuristics and the validity sweep's rate-matching both lean on an
  honest ``mean_rate``);
* regenerating with a reconstructed same-seed ``rng`` is bit-identical
  (the cross-backend parity contract reduces to exactly this).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import (
    AdversarialWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    HeavyTailedWorkload,
    MMPPWorkload,
    PoissonWorkload,
    VoiceWorkload,
)

HORIZON = 5_000.0
N_STATIONS = 7

# Rates chosen so shape checks stay cheap (a few hundred arrivals) while
# the rate check below can scale its own horizon to a useful sample.
rates = st.floats(min_value=0.01, max_value=0.08)


@st.composite
def poisson_workloads(draw):
    return PoissonWorkload(rate=draw(rates))


@st.composite
def mmpp_workloads(draw):
    mean = draw(rates)
    ratio = draw(st.floats(min_value=1.0, max_value=4.0))
    high = mean * ratio
    hold = draw(st.floats(min_value=20.0, max_value=100.0))
    return MMPPWorkload(
        low_rate=max(0.0, 2.0 * mean - high),
        high_rate=high,
        mean_low=hold,
        mean_high=hold,
    )


@st.composite
def voice_workloads(draw):
    return VoiceWorkload(
        n_sources=draw(st.integers(min_value=1, max_value=6)),
        packet_interval=draw(st.floats(min_value=5.0, max_value=40.0)),
        mean_talkspurt=draw(st.floats(min_value=40.0, max_value=150.0)),
        mean_silence=draw(st.floats(min_value=40.0, max_value=150.0)),
    )


@st.composite
def heavy_tailed_workloads(draw, shape_floor=1.5):
    family = draw(st.sampled_from(["pareto", "weibull"]))
    if family == "pareto":
        shape = draw(st.floats(min_value=shape_floor, max_value=3.0))
    else:
        shape = draw(st.floats(min_value=0.45, max_value=1.5))
    return HeavyTailedWorkload(rate=draw(rates), shape=shape, family=family)


@st.composite
def diurnal_workloads(draw):
    return DiurnalWorkload(
        rate=draw(rates),
        period=draw(st.floats(min_value=100.0, max_value=2_000.0)),
        amplitude=draw(st.floats(min_value=0.0, max_value=1.0)),
        phase=draw(st.floats(min_value=0.0, max_value=2.0 * math.pi)),
    )


@st.composite
def flash_crowd_workloads(draw):
    ramp = draw(st.floats(min_value=10.0, max_value=100.0))
    hold = draw(st.floats(min_value=0.0, max_value=200.0))
    slack = draw(st.floats(min_value=50.0, max_value=2_000.0))
    return FlashCrowdWorkload(
        base_rate=draw(rates),
        peak_ratio=draw(st.floats(min_value=1.0, max_value=8.0)),
        ramp=ramp,
        hold=hold,
        period=2.0 * ramp + hold + slack,
        onset=draw(st.floats(min_value=0.0, max_value=500.0)),
    )


@st.composite
def adversarial_workloads(draw):
    interval = draw(st.floats(min_value=50.0, max_value=500.0))
    return AdversarialWorkload(
        burst_size=draw(st.integers(min_value=1, max_value=10)),
        interval=interval,
        background_rate=draw(st.floats(min_value=0.0, max_value=0.05)),
        offset=draw(st.floats(min_value=0.0, max_value=40.0)),
        spread=draw(st.floats(min_value=0.5, max_value=10.0)),
    )


all_workloads = st.one_of(
    poisson_workloads(),
    mmpp_workloads(),
    voice_workloads(),
    heavy_tailed_workloads(),
    diurnal_workloads(),
    flash_crowd_workloads(),
    adversarial_workloads(),
)

# The rate check needs the law of large numbers on its side; exclude the
# corners where convergence over an affordable horizon is hopeless
# (infinite-variance Pareto below shape 2).
rate_checkable_workloads = st.one_of(
    poisson_workloads(),
    mmpp_workloads(),
    voice_workloads(),
    heavy_tailed_workloads(shape_floor=2.2),
    diurnal_workloads(),
    flash_crowd_workloads(),
    adversarial_workloads(),
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(workload=all_workloads, seed=seeds)
def test_times_sorted_and_inside_horizon(workload, seed):
    times, stations = workload.generate(
        HORIZON, N_STATIONS, np.random.default_rng(seed)
    )
    assert len(times) == len(stations)
    times = np.asarray(times, dtype=float)
    if times.size:
        assert np.all(np.diff(times) >= 0.0)
        assert times[0] >= 0.0
        assert times[-1] < HORIZON


@given(workload=all_workloads, seed=seeds)
def test_stations_are_integers_in_range(workload, seed):
    _, stations = workload.generate(
        HORIZON, N_STATIONS, np.random.default_rng(seed)
    )
    stations = np.asarray(stations)
    if stations.size:
        assert np.issubdtype(stations.dtype, np.integer)
        assert stations.min() >= 0
        assert stations.max() < N_STATIONS


@given(workload=all_workloads, seed=seeds)
def test_same_seed_reconstruction_is_bit_identical(workload, seed):
    first = workload.generate(HORIZON, N_STATIONS, np.random.default_rng(seed))
    second = workload.generate(HORIZON, N_STATIONS, np.random.default_rng(seed))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@settings(max_examples=30)
@given(workload=rate_checkable_workloads, seed=seeds)
@example(workload=VoiceWorkload(1, 40.0, 40.0, 40.0), seed=138)
def test_empirical_rate_tracks_mean_rate(workload, seed):
    rate = workload.mean_rate
    assert rate > 0.0
    # Aim for ~1000 expected arrivals so the sampling error is small
    # against the slack below; cap the horizon to keep the loop-based
    # generators affordable.
    horizon = min(500_000.0, 1_000.0 / rate)
    times, _ = workload.generate(
        horizon, N_STATIONS, np.random.default_rng(seed)
    )
    expected = rate * horizon
    # Coarse by design: burstier processes fluctuate several sigma, and
    # this check is after factor-of-two mean_rate lies, not precision.
    slack = 0.4 * expected + 6.0 * math.sqrt(expected) + 5.0
    assert abs(len(times) - expected) <= slack


def test_adversarial_rejects_zero_spread():
    with pytest.raises(ValueError, match="spread"):
        AdversarialWorkload(burst_size=4, interval=100.0, spread=0.0)


def test_heavy_tailed_rejects_undefined_mean():
    with pytest.raises(ValueError, match="shape"):
        HeavyTailedWorkload(rate=0.02, shape=1.0, family="pareto")


def test_flash_crowd_rejects_overlapping_surges():
    with pytest.raises(ValueError, match="period"):
        FlashCrowdWorkload(
            base_rate=0.02, peak_ratio=4.0, ramp=100.0, hold=50.0, period=200.0
        )
