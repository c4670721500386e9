"""Tests for the event-driven fault source (:mod:`repro.faults.injector`)."""

import numpy as np

from repro.core.window import ChannelFeedback
from repro.faults import FaultEvent, FaultInjector, FaultModel


def make(model, n_stations=10, seed=0):
    return FaultInjector(model, n_stations, np.random.default_rng(seed))


class TestHealth:
    def test_null_model_never_fires(self):
        injector = make(FaultModel.none())
        assert injector.poll(1e9) == []
        assert not injector.any_down
        assert all(injector.is_up(s) for s in range(10))

    def test_crash_then_restart(self):
        injector = make(FaultModel(crash_rate=0.01, mean_downtime=50.0), seed=3)
        crashed = set()
        restarted = set()
        for now in range(0, 20_000, 10):
            for event, station in injector.poll(float(now)):
                if event is FaultEvent.CRASH:
                    crashed.add(station)
                    assert injector.is_crashed(station)
                elif event is FaultEvent.RESTART:
                    restarted.add(station)
                    assert injector.is_up(station)
        assert crashed, "crash hazard never fired over 20k slots"
        assert restarted <= crashed | restarted
        # Counter consistency: down count equals non-UP stations.
        down = sum(
            1 for s in range(injector.n_stations) if not injector.is_up(s)
        )
        assert injector.any_down == (down > 0)

    def test_deaf_then_hear(self):
        injector = make(FaultModel(deaf_rate=0.01, mean_deaf_slots=20.0), seed=5)
        events = []
        for now in range(0, 20_000, 10):
            events.extend(injector.poll(float(now)))
        kinds = {event for event, _ in events}
        assert FaultEvent.DEAF in kinds
        assert FaultEvent.HEAR in kinds

    def test_events_reported_in_time_order(self):
        injector = make(
            FaultModel(crash_rate=0.05, mean_downtime=10.0, deaf_rate=0.05),
            seed=7,
        )
        applied = injector.poll(5_000.0)
        assert len(applied) > 0  # plenty due after a long jump


class TestObservation:
    def test_no_confusion_is_draw_free(self):
        injector = make(FaultModel.none())
        before = repr(injector.rng.bit_generator.state)
        symbols = injector.observe(ChannelFeedback.COLLISION, 8)
        assert symbols == [ChannelFeedback.COLLISION] * 8
        assert repr(injector.rng.bit_generator.state) == before

    def test_certain_confusion_flips_everyone(self):
        injector = make(FaultModel(p_idle_as_collision=1.0))
        symbols = injector.observe(ChannelFeedback.IDLE, 5)
        assert symbols == [ChannelFeedback.COLLISION] * 5

    def test_partial_confusion_mixes(self):
        injector = make(FaultModel(p_success_as_collision=0.5), seed=1)
        symbols = injector.observe(ChannelFeedback.SUCCESS, 200)
        kinds = set(symbols)
        assert kinds == {ChannelFeedback.SUCCESS, ChannelFeedback.COLLISION}
