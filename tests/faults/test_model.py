"""Tests for the fault taxonomy (:mod:`repro.faults.model`)."""

import pytest

from repro.core.window import ChannelFeedback
from repro.faults import FaultModel, FaultTelemetry


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultModel(p_idle_as_collision=1.5)
        with pytest.raises(ValueError):
            FaultModel(p_success_as_collision=-0.1)

    def test_collision_confusions_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            FaultModel(p_collision_as_idle=0.6, p_collision_as_success=0.6)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(crash_rate=-1e-3)
        with pytest.raises(ValueError):
            FaultModel(deaf_rate=-1e-3)

    def test_feedback_noise_bounds(self):
        with pytest.raises(ValueError):
            FaultModel.feedback_noise(0.6)
        model = FaultModel.feedback_noise(0.05)
        assert model.p_idle_as_collision == 0.05
        assert model.p_collision_as_idle == 0.05


class TestQueries:
    def test_null_model(self):
        model = FaultModel.none()
        assert model.is_null
        assert not model.has_channel_noise
        assert not model.has_station_faults

    def test_channel_noise_flag(self):
        assert FaultModel(p_collision_as_success=0.01).has_channel_noise
        assert not FaultModel(crash_rate=0.01).has_channel_noise

    def test_station_fault_flag(self):
        assert FaultModel(crash_rate=0.01).has_station_faults
        assert FaultModel(deaf_rate=0.01).has_station_faults
        assert not FaultModel.feedback_noise(0.1).has_station_faults

    def test_confusion_targets(self):
        model = FaultModel.feedback_noise(0.1)
        ((p, target),) = model.confusion_for(ChannelFeedback.IDLE)
        assert (p, target) == (0.1, ChannelFeedback.COLLISION)
        targets = {t for _, t in model.confusion_for(ChannelFeedback.COLLISION)}
        assert targets == {ChannelFeedback.IDLE, ChannelFeedback.SUCCESS}


class TestTelemetry:
    def test_summary_mentions_counters(self):
        t = FaultTelemetry(resyncs=3, cohort_splits=7)
        text = t.summary()
        assert "resyncs=3" in text
        assert "splits=7" in text
