"""Tests for the replica bank and the fault-injected simulator path.

The headline regression: driving a simulation through the per-station
replica machinery with a null fault model must reproduce the shared
controller's results **bit for bit**, for every protocol including the
stochastic ones.
"""

import pytest

from repro.core import ControlPolicy
from repro.des.rng import RandomStreams
from repro.faults import FaultModel
from repro.mac.simulator import WindowMACSimulator

RHO = 0.5
M = 25
LAM = RHO / M
K = 75.0

FACTORIES = {
    "controlled": lambda: ControlPolicy.optimal(K, LAM),
    "fcfs": lambda: ControlPolicy.uncontrolled_fcfs(LAM),
    "lcfs": lambda: ControlPolicy.uncontrolled_lcfs(LAM),
    "random": lambda: ControlPolicy.uncontrolled_random(LAM),
}


def run(policy, fault_model=None, seed=11, horizon=6_000.0, streams=None):
    simulator = WindowMACSimulator(
        policy,
        arrival_rate=LAM,
        transmission_slots=M,
        n_stations=50,
        deadline=K,
        seed=seed,
        fault_model=fault_model,
        streams=streams,
    )
    return simulator.run(horizon, warmup_slots=500.0)


class TestZeroFaultBitIdentity:
    @pytest.mark.parametrize("protocol", sorted(FACTORIES))
    def test_replica_path_reproduces_shared_path(self, protocol):
        factory = FACTORIES[protocol]
        shared = run(factory())
        replicated = run(factory(), fault_model=FaultModel.none())
        # Frozen-dataclass equality covers every count, both waiting-time
        # definitions and the full slot breakdown (telemetry is excluded
        # from comparison by design).
        assert replicated == shared

    def test_streams_variant_is_also_identical(self):
        streams = lambda: RandomStreams(4)  # noqa: E731
        shared = run(FACTORIES["controlled"](), streams=streams())
        replicated = run(
            FACTORIES["controlled"](),
            fault_model=FaultModel.none(),
            streams=streams(),
        )
        assert replicated == shared

    def test_null_model_stays_one_cohort(self):
        result = run(FACTORIES["controlled"](), fault_model=FaultModel.none())
        t = result.faults
        assert t.peak_cohorts == 1
        assert t.cohort_splits == 0
        assert t.resyncs == 0
        assert t.corrupted_observations == 0
        assert result.lost_to_faults == 0


class TestFeedbackNoise:
    def test_cohorts_split_and_remerge(self):
        result = run(
            FACTORIES["controlled"](),
            fault_model=FaultModel.feedback_noise(0.02),
            horizon=15_000.0,
        )
        t = result.faults
        assert t.corrupted_observations > 0
        assert t.cohort_splits > 0
        assert t.cohort_merges > 0
        assert t.peak_cohorts > 1
        # Divergence is detected and repaired, not accumulated: merges
        # (plus resync-driven resets) keep pace with splits.
        assert t.cohort_merges + t.resyncs >= 0.5 * t.cohort_splits
        assert 0.0 <= result.loss_fraction <= 1.0

    def test_noise_does_not_deadlock_uncontrolled(self):
        # No element 4 here, so recovery leans on the 16·M resync
        # horizon rather than the policy's discard deadline.  Divergence
        # must be detected and repaired, and the backlog kept draining.
        result = run(
            FACTORIES["fcfs"](),
            fault_model=FaultModel.feedback_noise(0.02),
            horizon=10_000.0,
        )
        assert result.faults.resyncs > 0
        assert result.arrivals > 0
        assert not result.saturated

    def test_capture_effect_causes_silent_loss(self):
        # Per-station capture: a transmitter that alone mis-hears its
        # collision as SUCCESS dequeues a message nobody received.
        model = FaultModel(p_collision_as_success=0.4)
        result = run(
            FACTORIES["controlled"](),
            fault_model=model,
            horizon=15_000.0,
        )
        t = result.faults
        assert t.phantom_deliveries > 0
        assert result.lost_to_faults > 0


class TestStationFailures:
    def test_crash_restart_runs_to_completion(self):
        model = FaultModel(crash_rate=1e-3, mean_downtime=200.0)
        result = run(
            FACTORIES["controlled"](), fault_model=model, horizon=15_000.0
        )
        t = result.faults
        assert t.crashes > 0
        assert t.restarts > 0
        # Every restart boots a resync cohort.
        assert t.resyncs >= t.restarts
        assert result.lost_to_faults > 0  # crashed backlogs / arrivals
        assert result.arrivals == (
            result.delivered_on_time
            + result.delivered_late
            + result.discarded
            + result.lost_to_faults
            + result.unresolved
        )

    def test_deafness_recovers(self):
        model = FaultModel(deaf_rate=1e-3, mean_deaf_slots=60.0)
        result = run(
            FACTORIES["controlled"](), fault_model=model, horizon=15_000.0
        )
        t = result.faults
        assert t.deaf_events > 0
        assert t.deaf_recoveries > 0
        assert t.resyncs >= t.deaf_recoveries

    def test_combined_faults_complete(self):
        model = FaultModel(
            p_idle_as_collision=0.01,
            p_collision_as_idle=0.01,
            p_success_as_collision=0.01,
            p_collision_as_success=0.01,
            crash_rate=5e-4,
            mean_downtime=150.0,
            deaf_rate=5e-4,
            mean_deaf_slots=50.0,
        )
        result = run(
            FACTORIES["controlled"](), fault_model=model, horizon=15_000.0
        )
        assert 0.0 <= result.loss_fraction <= 1.0
        assert result.faults.peak_cohorts <= 50


class TestResultAccounting:
    def test_loss_fraction_guards_zero_denominator(self):
        from repro.mac.simulator import MACSimResult
        from repro.mac.channel import ChannelStats
        import math

        empty = MACSimResult(
            arrivals=0,
            delivered_on_time=0,
            delivered_late=0,
            discarded=0,
            unresolved=0,
            mean_true_wait=float("nan"),
            mean_paper_wait=float("nan"),
            channel=ChannelStats(),
            deadline=None,
        )
        assert math.isnan(empty.loss_fraction)
        assert math.isnan(empty.loss_stderr())
        assert not empty.saturated

    def test_saturated_flag(self):
        from repro.mac.simulator import MACSimResult
        from repro.mac.channel import ChannelStats

        result = MACSimResult(
            arrivals=100,
            delivered_on_time=50,
            delivered_late=0,
            discarded=0,
            unresolved=50,
            mean_true_wait=1.0,
            mean_paper_wait=1.0,
            channel=ChannelStats(),
            deadline=10.0,
        )
        assert result.saturated
        ok = MACSimResult(
            arrivals=100,
            delivered_on_time=95,
            delivered_late=0,
            discarded=0,
            unresolved=5,
            mean_true_wait=1.0,
            mean_paper_wait=1.0,
            channel=ChannelStats(),
            deadline=10.0,
        )
        assert not ok.saturated
