"""Unit tests for reproducible random streams."""

import numpy as np
import pytest

from repro.des import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(7).get("arrivals").random(10)
    b = RandomStreams(7).get("arrivals").random(10)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    streams = RandomStreams(7)
    a = streams.get("arrivals").random(10)
    b = streams.get("service").random(10)
    assert not np.array_equal(a, b)


def test_stream_instance_is_cached():
    streams = RandomStreams(3)
    assert streams.get("x") is streams.get("x")


def test_stream_isolation_under_consumption():
    """Consuming one stream must not perturb another (CRN property)."""
    one = RandomStreams(9)
    one.get("noise").random(1000)  # heavy consumption
    after = one.get("arrivals").random(5)

    fresh = RandomStreams(9)
    untouched = fresh.get("arrivals").random(5)
    assert np.array_equal(after, untouched)


def test_different_master_seeds_differ():
    a = RandomStreams(1).get("s").random(10)
    b = RandomStreams(2).get("s").random(10)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)
