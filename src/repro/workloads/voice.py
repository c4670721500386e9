"""Packetized-voice traffic ([Cohen 77], the paper's motivating example).

Each voice source alternates between *talkspurts* and *silences*
(exponentially distributed, the classic Brady on/off model).  During a
talkspurt the vocoder emits one packet every ``packet_interval`` slots.
Time-constrained delivery is exactly the paper's setting: a voice packet
older than the playout deadline K is useless and a few percent of loss
is tolerable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import Workload

__all__ = ["VoiceWorkload"]


@dataclass(frozen=True)
class VoiceWorkload(Workload):
    """Superposition of independent on/off voice sources.

    Parameters
    ----------
    n_sources:
        Number of simultaneously active voice calls (one per station; the
        simulator maps source ``i`` to station ``i % n_stations``).
    packet_interval:
        Slots between packets within a talkspurt (vocoder frame time in
        units of τ).
    mean_talkspurt:
        Mean talkspurt duration in slots (classically ~1 s).
    mean_silence:
        Mean silence duration in slots (classically ~1.35 s).
    jitter:
        Uniform per-packet jitter in slots, so packets from distinct
        sources do not collide at identical instants.
    """

    n_sources: int
    packet_interval: float
    mean_talkspurt: float
    mean_silence: float
    jitter: float = 0.25

    def __post_init__(self):
        if self.n_sources < 1:
            raise ValueError(f"need at least one source, got {self.n_sources}")
        if self.packet_interval <= 0:
            raise ValueError("packet interval must be positive")
        if min(self.mean_talkspurt, self.mean_silence) <= 0:
            raise ValueError("talkspurt and silence means must be positive")
        if not 0 <= self.jitter < self.packet_interval:
            raise ValueError("jitter must be in [0, packet_interval)")

    @property
    def activity_factor(self) -> float:
        """Fraction of time a source is talking."""
        return self.mean_talkspurt / (self.mean_talkspurt + self.mean_silence)

    @property
    def mean_rate(self) -> float:
        """Aggregate packets per slot across all sources.

        A talkspurt emits a packet at its start and then one every
        ``packet_interval`` I, so an exponential spurt of mean T̄ carries
        ``1 / (1 - exp(-I/T̄))`` packets on average (not T̄/I), once per
        talk/silence cycle of mean T̄ + S̄.
        """
        cycle = self.mean_talkspurt + self.mean_silence
        per_spurt = 1.0 / -math.expm1(-self.packet_interval / self.mean_talkspurt)
        return self.n_sources * per_spurt / cycle

    def generate(self, horizon, n_stations, rng):
        times = []
        stations = []
        for source in range(self.n_sources):
            station = source % n_stations
            clock = 0.0
            # Stationary start: talking with probability = activity factor.
            talking = rng.random() < self.activity_factor
            while clock < horizon:
                if talking:
                    spurt_end = min(clock + rng.exponential(self.mean_talkspurt), horizon)
                    t = clock
                    while t < spurt_end:
                        instant = t + (rng.uniform(0.0, self.jitter) if self.jitter else 0.0)
                        if instant < horizon:
                            times.append(instant)
                            stations.append(station)
                        t += self.packet_interval
                    clock = spurt_end
                else:
                    clock += rng.exponential(self.mean_silence)
                talking = not talking
        order = np.argsort(times) if times else np.empty(0, dtype=int)
        return (
            np.asarray(times, dtype=float)[order],
            np.asarray(stations, dtype=int)[order],
        )
