"""The Cephes port in ``repro.stats.normal`` is bit-identical to scipy's.

Sequential looks take their normal quantiles from
:mod:`repro.stats.normal`.  Journals written when they came from
``scipy.special`` must still pass ``--verify-replay``, and
``tests/golden/test_golden_sequential.py`` pins ``decide_wave`` as
``float.hex``; both fail on a one-ulp difference.  So every comparison
here is on the bit pattern, over a million seeded draws and the
``math.nextafter`` neighbours of every branch point.
"""

import math

import numpy as np
import pytest
from scipy import special

from repro.stats import SequentialConfig, look_level
from repro.stats.normal import erf, erfc, ndtr, ndtri

_MAXLOG = math.log(np.finfo(float).max)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_bitwise(ours, theirs, inputs):
    got = np.asarray(list(map(ours, inputs.tolist())))
    want = theirs(inputs)
    bad = np.flatnonzero(_bits(got) != _bits(want))
    assert bad.size == 0, [
        (float(inputs[i]).hex(), float(got[i]).hex(), float(want[i]).hex())
        for i in bad[:5]
    ]


def _around(x, steps):
    """``x`` and its ``steps`` nearest floats on either side."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _ndtri_draws(rng):
    return {
        "uniform": rng.random(300_000),
        "lower-tail": 0.2 * rng.random(100_000),
        "upper-tail": 1.0 - 0.2 * rng.random(100_000),
        "exp(-700u)": np.exp(-700.0 * rng.random(100_000)),
        "subnormal-to-1": 2.0 ** -(1074.0 * rng.random(50_000)),
        "upper-half": 0.5 + 0.5 * rng.random(50_000),
    }


def _ndtr_draws(rng):
    return {
        "normal(0,9)": rng.normal(0.0, 3.0, 150_000),
        "uniform(-40,40)": rng.uniform(-40.0, 40.0, 100_000),
        "uniform(-1.5,1.5)": rng.uniform(-1.5, 1.5, 50_000),
        "uniform(0,12)": rng.uniform(0.0, 12.0, 50_000),
    }


def test_draws_total_at_least_a_million():
    rng = np.random.default_rng(0)
    total = sum(len(v) for v in _ndtri_draws(rng).values())
    total += sum(len(v) for v in _ndtr_draws(rng).values())
    assert total >= 1_000_000


@pytest.mark.parametrize("name", list(_ndtri_draws(np.random.default_rng(0))))
def test_ndtri_matches_scipy_on_draws(name):
    draws = _ndtri_draws(np.random.default_rng(1983))[name]
    _assert_bitwise(ndtri, special.ndtri, draws)


@pytest.mark.parametrize("name", list(_ndtr_draws(np.random.default_rng(0))))
def test_ndtr_matches_scipy_on_draws(name):
    draws = _ndtr_draws(np.random.default_rng(1983))[name]
    _assert_bitwise(ndtr, special.ndtr, draws)


@pytest.mark.parametrize(
    "y",
    [
        0.13533528323661269189,  # exp(-2): rational in y vs in sqrt(-2 log y)
        math.exp(-2.0),
        1.0 - 0.13533528323661269189,  # the reflection point
        math.exp(-32.0),  # sqrt(-2 log y) crosses 8 (15 ulps up): P1/Q1 vs P2/Q2
        0.5,
        math.nextafter(1.0, 0.0),
        2.2250738585072014e-308,  # smallest normal
        1e-320,
        5e-324,  # smallest subnormal
    ],
)
def test_ndtri_branch_edges(y):
    edge = np.array([v for v in _around(y, steps=32) if 0.0 < v < 1.0])
    _assert_bitwise(ndtri, special.ndtri, edge)


@pytest.mark.parametrize(
    "a",
    [
        1.0,  # |x| = sqrt(1/2): erf vs erfc
        math.sqrt(2.0),  # erfc's argument crosses 1: 1 - erf vs P/Q
        8.0 * math.sqrt(2.0),  # erfc's argument crosses 8: P/Q vs R/S
        math.sqrt(2.0 * _MAXLOG),  # exp(-x*x) below MAXLOG: underflow
        0.0,
    ],
)
def test_ndtr_branch_edges(a):
    edge = np.array(_around(a, steps=6) + [-v for v in _around(a, steps=6)])
    _assert_bitwise(ndtr, special.ndtr, edge)


@pytest.mark.parametrize(
    "ours, theirs", [(erf, special.erf), (erfc, special.erfc)],
    ids=["erf", "erfc"],
)
def test_erf_and_erfc_match_scipy(ours, theirs):
    # ndtr reaches them only with |x| < sqrt(1/2) and x >= sqrt(1/2);
    # negative and large arguments take the branches it never does.
    rng = np.random.default_rng(1983)
    edges = [s * v for e in (1.0, 8.0, math.sqrt(_MAXLOG))
             for v in _around(e, steps=6) for s in (1.0, -1.0)]
    draws = np.concatenate([
        rng.normal(0.0, 3.0, 50_000), rng.uniform(-30.0, 30.0, 50_000), edges,
    ])
    _assert_bitwise(ours, theirs, draws)


def test_infinities_and_domain():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    for y in (-0.5, 1.5, math.nan):
        assert math.isnan(ndtri(y)) and math.isnan(special.ndtri(y))
    extremes = np.array([-math.inf, -1e300, -40.0, 40.0, 1e300, math.inf])
    _assert_bitwise(ndtr, special.ndtr, extremes)
    assert math.isnan(ndtr(math.nan))


def test_call_site_arguments():
    """Every argument a sequential look hands the port.

    ``cumulative_alpha`` takes ``ndtri(1 - alpha/2)`` and
    ``ndtr(z / sqrt(t))`` at each information fraction ``t = n/max``;
    ``wilson_interval`` takes ``ndtri(0.5 + level/2)`` at each look's
    spending level.
    """
    quantiles, cdfs = [], []
    for level in (0.9, 0.95, 0.99):
        alpha = 1.0 - level
        z = ndtri(1.0 - alpha / 2.0)
        quantiles.append(1.0 - alpha / 2.0)
        for n_max in range(2, 129):
            config = SequentialConfig(
                ci_target=0.01, level=level, min_replications=2,
                max_replications=n_max,
            )
            for n in range(1, n_max + 1):
                cdfs.append(z / math.sqrt(min(1.0, max(1e-12, n / n_max))))
                for previous in (0, n - 1, n - 4):
                    if 0 <= previous < n:
                        look = look_level(config, n, previous)
                        quantiles.append(0.5 + look / 2.0)
    _assert_bitwise(ndtri, special.ndtri, np.array(quantiles))
    _assert_bitwise(ndtr, special.ndtr, np.array(cdfs))
