"""Tests for the non-preemptive LCFS waiting-time analysis."""

import math

import numpy as np
import pytest

from repro.queueing import (
    MG1,
    LCFSQueue,
    deterministic_pmf,
    simulate_mg1_waits,
)


class TestLCFS:
    def test_mean_wait_equals_fcfs_mean(self):
        """Work conservation: LCFS and FCFS share the same mean wait."""
        service = deterministic_pmf(10.0)
        lam = 0.05
        assert LCFSQueue(lam, service).mean_wait() == pytest.approx(
            MG1(lam, service).mean_wait()
        )

    def test_mean_wait_unstable_raises(self):
        with pytest.raises(ValueError):
            LCFSQueue(0.2, deterministic_pmf(10.0)).mean_wait()

    def test_no_wait_probability_is_idle(self):
        """P(W = 0) = 1 − ρ under any work-conserving discipline.

        On the lattice the residual's first cell carries an O(δ) atom at
        0, so the identity is approached as the lattice refines.
        """
        coarse = LCFSQueue(0.06, deterministic_pmf(10.0))
        fine = LCFSQueue(0.06, deterministic_pmf(10.0).refine(8))
        target = 1 - 0.6
        coarse_err = abs(coarse.wait_cdf_at(0.0) - target)
        fine_err = abs(fine.wait_cdf_at(0.0) - target)
        assert fine_err < coarse_err
        assert fine.wait_cdf_at(0.0) == pytest.approx(target, abs=0.01)

    def test_saturated_queue_loses_everything(self):
        queue = LCFSQueue(0.2, deterministic_pmf(10.0))
        assert queue.wait_survival_at(100.0) == 1.0
        assert queue.loss_beyond_deadline(100.0) == 1.0

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            LCFSQueue(0.05, deterministic_pmf(10.0)).loss_beyond_deadline(-1.0)

    def test_infinite_deadline(self):
        """Like MG1: nothing is lost without a deadline, unless saturated."""
        stable = LCFSQueue(0.05, deterministic_pmf(10.0))
        saturated = LCFSQueue(0.2, deterministic_pmf(10.0))
        assert stable.loss_beyond_deadline(math.inf) == 0.0
        assert saturated.loss_beyond_deadline(math.inf) == 1.0

    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(ValueError, match="negative arrival rate"):
            LCFSQueue(-0.05, deterministic_pmf(10.0))

    def test_survival_monotone_decreasing(self):
        queue = LCFSQueue(0.06, deterministic_pmf(10.0).refine(2))
        values = [queue.wait_survival_at(t) for t in (0, 10, 30, 60, 120)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_heavier_tail_than_fcfs(self):
        """LCFS has the same mean but a heavier tail: beyond some t,
        P(W_LCFS > t) > P(W_FCFS > t)."""
        service = deterministic_pmf(10.0).refine(2)
        lam = 0.06
        lcfs = LCFSQueue(lam, service)
        fcfs = MG1(lam, service)
        t = 150.0
        assert lcfs.wait_survival_at(t) > fcfs.wait_survival_at(t)

    def test_lighter_head_than_fcfs(self):
        """Conversely LCFS beats FCFS at small deadlines (more customers
        served immediately after short backlogs)."""
        service = deterministic_pmf(10.0).refine(2)
        lam = 0.07
        lcfs = LCFSQueue(lam, service)
        fcfs = MG1(lam, service)
        assert lcfs.wait_survival_at(12.0) < fcfs.wait_survival_at(12.0)

    def test_against_event_simulation(self, rng):
        """Analytic LCFS tail matches a direct event-driven simulation."""
        service = deterministic_pmf(8.0)
        lam = 0.08  # rho = 0.64
        sim = simulate_mg1_waits(lam, service, 300_000, rng, discipline="lcfs")
        queue = LCFSQueue(lam, service.refine(4))
        for t in (10.0, 40.0, 100.0):
            analytic = queue.wait_survival_at(t)
            empirical = sim.fraction_late(t)
            assert analytic == pytest.approx(empirical, rel=0.12, abs=0.004)
