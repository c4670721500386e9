"""Tests for the common-mode feedback fault family
(:mod:`repro.faults.feedback`)."""

import math

import numpy as np
import pytest

from repro.core.window import ChannelFeedback
from repro.faults import RECOVERY_POLICIES, FeedbackFaultModel, FeedbackFaultState


class TestValidation:
    """Every field fails at construction with an error naming it."""

    @pytest.mark.parametrize(
        "field", ["p_collision_as_success", "p_success_as_idle", "p_erasure"]
    )
    def test_probability_bounds_name_the_field(self, field):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=field):
                FeedbackFaultModel(**{field: bad})

    def test_erasure_budget_shared_with_capture(self):
        with pytest.raises(ValueError, match="p_collision_as_success"):
            FeedbackFaultModel(p_erasure=0.6, p_collision_as_success=0.6)
        with pytest.raises(ValueError, match="p_success_as_idle"):
            FeedbackFaultModel(p_erasure=0.6, p_success_as_idle=0.6)
        # Disjoint budgets are fine at their extremes.
        FeedbackFaultModel(p_erasure=0.5, p_collision_as_success=0.5)

    @pytest.mark.parametrize("field", ["miss_rate", "jam_rate"])
    def test_negative_rates_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            FeedbackFaultModel(**{field: -1e-4})

    def test_mean_jam_slots_positive(self):
        with pytest.raises(ValueError, match="mean_jam_slots"):
            FeedbackFaultModel(mean_jam_slots=0.0)

    def test_recovery_policy_names(self):
        with pytest.raises(ValueError, match="recovery"):
            FeedbackFaultModel(recovery="pray")
        for policy in RECOVERY_POLICIES:
            FeedbackFaultModel(recovery=policy)

    def test_rejoin_listen_slots_whole_and_nonnegative(self):
        with pytest.raises(ValueError, match="rejoin_listen_slots"):
            FeedbackFaultModel(rejoin_listen_slots=-1.0)
        with pytest.raises(ValueError, match="rejoin_listen_slots"):
            FeedbackFaultModel(rejoin_listen_slots=2.5)
        FeedbackFaultModel(rejoin_listen_slots=0.0)

    def test_max_split_depth_bounds(self):
        with pytest.raises(ValueError, match="max_split_depth"):
            FeedbackFaultModel(max_split_depth=0)
        with pytest.raises(ValueError, match="max_split_depth"):
            # 60 would collide with WindowingProcess's own depth error.
            FeedbackFaultModel(max_split_depth=60)
        FeedbackFaultModel(max_split_depth=59)

    def test_noise_factory_bounds(self):
        with pytest.raises(ValueError):
            FeedbackFaultModel.noise(0.6)
        model = FeedbackFaultModel.noise(0.05, recovery="gated-rejoin")
        assert model.p_erasure == 0.05
        assert model.p_collision_as_success == 0.05
        assert model.p_success_as_idle == 0.05
        assert model.recovery == "gated-rejoin"


class TestQueries:
    def test_null_model(self):
        model = FeedbackFaultModel.none()
        assert model.is_null
        assert not model.has_noise
        assert not model.has_events

    def test_noise_flag(self):
        assert FeedbackFaultModel(p_erasure=0.01).has_noise
        assert not FeedbackFaultModel(jam_rate=0.01).has_noise

    def test_event_flag(self):
        assert FeedbackFaultModel(miss_rate=0.01).has_events
        assert FeedbackFaultModel(jam_rate=0.01).has_events
        assert not FeedbackFaultModel.noise(0.1).has_events


class TestObserve:
    def _state(self, model, seed=0, n_stations=4):
        return FeedbackFaultState(
            model, n_stations, np.random.default_rng(seed)
        )

    def test_null_model_never_draws(self):
        state = self._state(FeedbackFaultModel.none())
        before = repr(state.rng.bit_generator.state)
        for symbol in ChannelFeedback:
            assert state.observe(symbol) is symbol
        assert repr(state.rng.bit_generator.state) == before

    def test_one_draw_per_slot_with_noise(self):
        state = self._state(FeedbackFaultModel.noise(0.1))
        mirror = np.random.default_rng(0)
        for symbol in (
            ChannelFeedback.IDLE,
            ChannelFeedback.SUCCESS,
            ChannelFeedback.COLLISION,
        ):
            state.observe(symbol)
            mirror.random()
        assert repr(state.rng.bit_generator.state) == repr(
            mirror.bit_generator.state
        )

    def test_certain_erasure(self):
        state = self._state(FeedbackFaultModel(p_erasure=1.0))
        for symbol in ChannelFeedback:
            assert state.observe(symbol) is ChannelFeedback.COLLISION
        # IDLE/SUCCESS corruptions counted, COLLISION->COLLISION not.
        assert state.telemetry.corrupted_observations == 2

    def test_certain_capture_and_fade(self):
        state = self._state(
            FeedbackFaultModel(p_collision_as_success=1.0, p_success_as_idle=1.0)
        )
        assert state.observe(ChannelFeedback.COLLISION) is ChannelFeedback.SUCCESS
        assert state.observe(ChannelFeedback.SUCCESS) is ChannelFeedback.IDLE
        assert state.observe(ChannelFeedback.IDLE) is ChannelFeedback.IDLE

    def test_determinism_given_seed(self):
        model = FeedbackFaultModel.noise(0.3)
        a, b = self._state(model, seed=9), self._state(model, seed=9)
        seq = [ChannelFeedback.SUCCESS, ChannelFeedback.COLLISION] * 50
        assert [a.observe(s) for s in seq] == [b.observe(s) for s in seq]


class TestEvents:
    def _state(self, model, seed=0, n_stations=4):
        return FeedbackFaultState(
            model, n_stations, np.random.default_rng(seed)
        )

    def test_poll_is_idempotent_at_an_instant(self):
        state = self._state(FeedbackFaultModel(miss_rate=0.5), seed=3)
        state.poll(10.0)
        before = repr(state.rng.bit_generator.state)
        desynced = dict(state.desynced)
        assert state.poll(10.0) == []
        assert repr(state.rng.bit_generator.state) == before
        assert state.desynced == desynced

    def test_miss_desyncs_until_epoch_rejoin(self):
        state = self._state(FeedbackFaultModel(miss_rate=0.5))
        state.poll(50.0)
        assert state.desynced
        assert state.telemetry.missed_feedback == len(state.desynced)
        station, (rejoin_at, missed_at) = next(iter(state.desynced.items()))
        # reset-to-epoch: eligible to rejoin immediately at the next epoch.
        assert rejoin_at == missed_at
        state.rejoin(60.0)
        assert station not in state.desynced
        assert state.telemetry.resyncs >= 1
        assert state.telemetry.diverged_slots > 0

    def test_gated_rejoin_waits_out_the_listen_window(self):
        model = FeedbackFaultModel(
            miss_rate=0.5, recovery="gated-rejoin", rejoin_listen_slots=16.0
        )
        state = self._state(model)
        state.poll(50.0)
        assert state.desynced
        for rejoin_at, missed_at in state.desynced.values():
            assert rejoin_at == missed_at + 16.0
        first = min(r for r, _ in state.desynced.values())
        last = max(r for r, _ in state.desynced.values())
        state.rejoin(first - 1.0)
        assert state.desynced  # everyone still listening
        state.rejoin(last)
        assert not state.desynced

    def test_drop_out_reports_the_station(self):
        state = self._state(
            FeedbackFaultModel(miss_rate=0.5, recovery="drop-out")
        )
        dropped = state.poll(50.0)
        assert dropped
        assert all(s in state.desynced for s in dropped)

    def test_jam_covers_a_burst_and_reschedules(self):
        state = self._state(FeedbackFaultModel(jam_rate=0.05), seed=1)
        horizon = 10_000.0
        jammed = 0
        now = 0.0
        while now < horizon:
            state.poll(now)
            if state.jammed(now):
                jammed += 1
            now += 1.0
        assert state.telemetry.jam_bursts > 1
        assert jammed > state.telemetry.jam_bursts  # bursts last > 1 slot
        assert math.isfinite(state.jam_until)

    def test_event_schedule_deterministic_given_seed(self):
        model = FeedbackFaultModel(miss_rate=0.01, jam_rate=0.005)
        a, b = self._state(model, seed=11), self._state(model, seed=11)
        for now in range(0, 2000, 7):
            assert a.poll(float(now)) == b.poll(float(now))
            assert a.jam_until == b.jam_until
            assert a.desynced == b.desynced
