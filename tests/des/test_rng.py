"""Unit tests for reproducible random streams."""

import numpy as np
import pytest

from repro.des import AntitheticGenerator, RandomStreams


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


def test_antithetic_mirrors_random():
    plain = np.random.default_rng(11).random(100)
    mirrored = AntitheticGenerator(np.random.default_rng(11)).random(100)
    assert np.allclose(plain + mirrored, 1.0)


def test_antithetic_mirrors_uniform_within_bounds():
    plain = np.random.default_rng(11).uniform(2.0, 6.0, 50)
    mirrored = AntitheticGenerator(np.random.default_rng(11)).uniform(
        2.0, 6.0, 50
    )
    assert np.allclose(plain + mirrored, 8.0)  # reflected about (low+high)/2
    assert np.all((mirrored >= 2.0) & (mirrored <= 6.0))


def test_antithetic_consumes_identical_bit_stream():
    """Mirroring must not change *how much* randomness is drawn: draws
    after a mix of method calls stay aligned with the plain twin."""
    plain = np.random.default_rng(4)
    mirrored = AntitheticGenerator(np.random.default_rng(4))
    for rng in (plain, mirrored):
        rng.random(7)
        rng.poisson(3.0, size=5)
        rng.integers(0, 10, size=4)
    assert np.allclose(plain.random(20) + mirrored.random(20), 1.0)


def test_antithetic_delegates_non_uniform_methods():
    """poisson/integers/shuffle pass straight through to the base
    generator — only the uniform family is reflected."""
    plain = np.random.default_rng(4)
    mirrored = AntitheticGenerator(np.random.default_rng(4))
    assert np.array_equal(
        plain.poisson(2.0, size=10), mirrored.poisson(2.0, size=10)
    )
    assert np.array_equal(
        plain.integers(0, 100, size=10), mirrored.integers(0, 100, size=10)
    )


def test_antithetic_double_wrap_is_identity():
    """Wrapping an antithetic generator unwraps to the base: a pair of
    mirrors would silently reproduce the plain lane."""
    base = np.random.default_rng(8)
    double = AntitheticGenerator(AntitheticGenerator(np.random.default_rng(8)))
    assert np.allclose(base.random(20) + double.random(20), 1.0)


def test_streams_antithetic_flag_mirrors_every_stream():
    plain = RandomStreams(13)
    mirrored = RandomStreams(13, antithetic=True)
    for name in ("arrivals", "service"):
        a = plain.get(name).random(25)
        b = mirrored.get(name).random(25)
        assert np.allclose(a + b, 1.0)
