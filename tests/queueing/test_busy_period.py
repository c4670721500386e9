"""Tests for the discrete M/G/1 busy-period computation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.experiments import PanelConfig, default_deadlines
from repro.queueing import (
    LatticePMF,
    busy_period_pmf,
    delay_busy_period_pmf,
    deterministic_pmf,
    geometric_pmf,
)


def _compose(initial, a, g, limit):
    """PMF of ``Σ_{s=1..T} (1 + A_s·G_s)``, ``T ~ initial``, below ``limit``."""
    w = np.zeros(limit)  # one slot plus, with probability a, a sub-busy period
    w[1:] = a * g[: limit - 1]
    if limit > 1:
        w[1] += 1.0 - a
    out = np.zeros(limit)
    power = np.zeros(limit)
    power[0] = 1.0
    for t, p_t in enumerate(initial[:limit]):  # W^{*t} vanishes below t
        if t > 0:
            power = np.convolve(power, w)[:limit]
        out += p_t * power
    return out


def fixed_point_delay_busy_period(initial, service, a, limit):
    """Oracle: iterate ``G(z) = X̃(z·(1 − a + a·G(z)))``, then compose R.

    Entry n of the composition reads only entries below n, so the
    truncated iteration settles bit for bit within ``limit`` passes.
    """
    g = np.zeros(limit)
    for _ in range(limit + 1):
        g_next = _compose(service, a, g, limit)
        if np.array_equal(g_next, g):
            return _compose(initial, a, g, limit)
        g = g_next
    raise AssertionError("fixed point did not settle")


class TestBusyPeriod:
    def test_service_mass_at_zero_rejected(self):
        with pytest.raises(ValueError):
            busy_period_pmf(LatticePMF([0.3, 0.7]), 0.1, horizon=50.0)

    def test_deterministic_service_closed_form(self):
        """Service of d slots, with n = d(j+1):

        P(G = n) = C(n, j)·aʲ·(1 − a)ⁿ⁻ʲ / (j + 1), and 0 off that grid.
        """
        d, lam, horizon = 6, 0.1, 600
        a = 1.0 - math.exp(-lam)
        expected = np.zeros(horizon + 1)
        for j in range(horizon // d):
            n = d * (j + 1)
            expected[n] = math.comb(n, j) * a**j * (1 - a) ** (n - j) / (j + 1)
        bp = busy_period_pmf(deterministic_pmf(float(d)), lam, horizon=horizon)
        assert bp.p.size == horizon + 1
        assert np.abs(bp.p - expected).max() <= 1e-13

    def test_zero_arrivals_busy_period_is_service(self):
        service = deterministic_pmf(5.0)
        bp = busy_period_pmf(service, arrival_rate=0.0, horizon=50.0)
        assert bp.p[5] == pytest.approx(1.0)
        assert bp.p.sum() == pytest.approx(1.0)

    def test_mean_matches_closed_form(self):
        """E[busy period] = x̄ / (1 − ρ)."""
        service = deterministic_pmf(4.0)
        lam = 0.1  # rho = 0.4
        bp = busy_period_pmf(service, lam, horizon=3000.0)
        mass = bp.p.sum()
        assert mass > 0.999  # horizon captures nearly everything
        mean = bp.mean() / mass
        # The slotted Bernoulli chain approximates the continuous formula.
        assert mean == pytest.approx(4.0 / (1.0 - 0.4), rel=0.05)

    def test_mass_within_horizon_increases(self):
        service = deterministic_pmf(4.0)
        short = busy_period_pmf(service, 0.1, horizon=20.0)
        long = busy_period_pmf(service, 0.1, horizon=200.0)
        assert long.p.sum() >= short.p.sum()

    def test_busy_period_no_shorter_than_service(self):
        service = deterministic_pmf(6.0)
        bp = busy_period_pmf(service, 0.05, horizon=100.0)
        assert np.all(bp.p[:6] == 0.0)

    def test_heavier_load_longer_busy_period(self):
        service = deterministic_pmf(4.0)
        light = busy_period_pmf(service, 0.02, horizon=2000.0)
        heavy = busy_period_pmf(service, 0.15, horizon=2000.0)
        assert heavy.mean() / heavy.p.sum() > light.mean() / light.p.sum()


class TestDelayBusyPeriod:
    def test_delta_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delay_busy_period_pmf(
                deterministic_pmf(2.0, delta=0.5),
                deterministic_pmf(4.0, delta=1.0),
                0.1,
                horizon=50.0,
            )

    def test_zero_initial_delay_is_instant(self):
        initial = LatticePMF([1.0])  # all mass at zero
        out = delay_busy_period_pmf(initial, deterministic_pmf(4.0), 0.1, horizon=50.0)
        assert out.p[0] == pytest.approx(1.0)

    def test_no_arrivals_reduces_to_initial_delay(self):
        initial = deterministic_pmf(7.0)
        out = delay_busy_period_pmf(initial, deterministic_pmf(4.0), 0.0, horizon=50.0)
        assert out.p[7] == pytest.approx(1.0)

    def test_mean_matches_delay_cycle_formula(self):
        """E[delay busy period] = E[R] / (1 − ρ)."""
        service = deterministic_pmf(4.0)
        lam = 0.1
        initial = geometric_pmf(3.0, start=1.0)
        out = delay_busy_period_pmf(initial, service, lam, horizon=4000.0)
        mass = out.p.sum()
        assert mass > 0.995
        assert out.mean() / mass == pytest.approx(3.0 / (1 - 0.4), rel=0.06)


class TestAgainstFixedPointOracle:
    @given(
        service=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        initial=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        horizon=st.integers(0, 60),
    )
    def test_random_service_and_initial_work(self, service, initial, rate, horizon):
        x = np.array([0.0] + service)
        r = np.array(initial)
        assume(x.sum() > 0 and r.sum() > 0)
        x, r = LatticePMF(x / x.sum()), LatticePMF(r / r.sum())
        a, limit = 1.0 - math.exp(-rate), horizon + 1
        for got, start in (
            (busy_period_pmf(x, rate, horizon), x),
            (delay_busy_period_pmf(r, x, rate, horizon), r),
        ):
            want = fixed_point_delay_busy_period(start.p, x.p, a, limit)
            assert got.p.size == limit
            assert np.abs(got.p - want).max() <= 1e-13

    def test_figure7_lcfs_service_at_default_deadlines(self):
        """The rho'=0.75, M=25 LCFS baseline inputs, as Figure 7 builds them."""
        config = PanelConfig(rho_prime=0.75, message_length=25)
        service = config.service_pmf().refine(2)
        residual = service.residual()
        lam = config.arrival_rate
        deadlines = default_deadlines(config)
        a = 1.0 - math.exp(-lam * service.delta)
        limit = int(max(deadlines) / service.delta) + 1
        # Truncation is exact below the horizon, so one oracle run at the
        # largest deadline covers the others as prefixes.
        want = fixed_point_delay_busy_period(residual.p, service.p, a, limit)
        for deadline in deadlines:
            got = delay_busy_period_pmf(residual, service, lam, horizon=deadline)
            assert np.abs(got.p - want[: got.p.size]).max() <= 1e-13
