"""Per-station fault taxonomy for the multiple-access channel (see
docs/robustness.md).

The paper's protocol (§2) rests on one strong assumption: every station
observes an *error-free* ternary feedback signal and therefore maintains
an identical replica of the shared protocol state.  :class:`FaultModel`
describes the ways that assumption breaks *per station*, so that
stations can disagree about what they heard (common-mode errors, where
everyone mis-hears alike, are :class:`~repro.faults.FeedbackFaultModel`'s):

**Slot-level channel impairments** — each examination slot's feedback
symbol may be mis-observed, independently at each station:

* ``p_idle_as_collision`` — noise on an empty slot is read as energy;
* ``p_collision_as_idle`` — colliding signals cancel below the carrier
  threshold;
* ``p_success_as_collision`` — a successful transmission fails to decode
  at an observer (receiver noise);
* ``p_collision_as_success`` — one colliding signal dominates and is
  captured as if it were alone (the capture effect).

**Station-level faults**:

* crashes — a station dies with its backlog (per-slot hazard
  ``crash_rate``) and restarts after an exponential downtime with a
  cold protocol state;
* deafness — a station temporarily misses feedback slots (per-slot
  hazard ``deaf_rate``); unlike corruption it *knows* it lost symbols
  and must re-synchronize when it recovers.

The bounded re-synchronization that repairs the damage has fixed
parameters, the constants of :mod:`repro.faults.replicas`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.window import ChannelFeedback

__all__ = ["FaultModel", "FaultTelemetry"]

_PROB_FIELDS = (
    "p_idle_as_collision",
    "p_collision_as_idle",
    "p_success_as_collision",
    "p_collision_as_success",
)


@dataclass(frozen=True)
class FaultModel:
    """Per-station slot- and station-level faults (see module docstring).

    ``FaultModel.none()`` — the all-zero configuration — still routes the
    simulation through the per-station replica machinery, which is how
    the test suite proves that machinery behavior-preserving.
    """

    p_idle_as_collision: float = 0.0
    p_collision_as_idle: float = 0.0
    p_success_as_collision: float = 0.0
    p_collision_as_success: float = 0.0
    crash_rate: float = 0.0
    mean_downtime: float = 200.0
    deaf_rate: float = 0.0
    mean_deaf_slots: float = 50.0

    def __post_init__(self):
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.p_collision_as_idle + self.p_collision_as_success > 1.0:
            raise ValueError(
                "collision confusion probabilities must sum to at most 1"
            )
        for name in ("crash_rate", "deaf_rate", "mean_downtime", "mean_deaf_slots"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- factories -----------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultModel":
        """The fault-free configuration (exercises the replica path)."""
        return cls()

    @classmethod
    def feedback_noise(cls, error_rate: float) -> "FaultModel":
        """Symmetric feedback noise: every confusion occurs at ``error_rate``.

        The single knob used by the degradation sweep
        (:mod:`repro.experiments.robustness`).  Collision feedback has two
        confusion targets, so ``error_rate`` must be at most 0.5.
        """
        if not 0.0 <= error_rate <= 0.5:
            raise ValueError(
                f"symmetric error rate must be in [0, 0.5], got {error_rate}"
            )
        return cls(
            p_idle_as_collision=error_rate,
            p_collision_as_idle=error_rate,
            p_success_as_collision=error_rate,
            p_collision_as_success=error_rate,
        )

    # -- queries -------------------------------------------------------------

    @property
    def has_channel_noise(self) -> bool:
        """Whether any feedback confusion probability is positive."""
        return any(getattr(self, name) > 0 for name in _PROB_FIELDS)

    @property
    def has_station_faults(self) -> bool:
        """Whether stations can crash or go deaf."""
        return self.crash_rate > 0 or self.deaf_rate > 0

    @property
    def is_null(self) -> bool:
        """Whether the model injects no faults at all."""
        return not (self.has_channel_noise or self.has_station_faults)

    def confusion_for(
        self, feedback: ChannelFeedback
    ) -> "tuple[tuple[float, ChannelFeedback], ...]":
        """(probability, corrupted symbol) pairs applicable to a true symbol."""
        if feedback is ChannelFeedback.IDLE:
            return ((self.p_idle_as_collision, ChannelFeedback.COLLISION),)
        if feedback is ChannelFeedback.SUCCESS:
            return ((self.p_success_as_collision, ChannelFeedback.COLLISION),)
        return (
            (self.p_collision_as_idle, ChannelFeedback.IDLE),
            (self.p_collision_as_success, ChannelFeedback.SUCCESS),
        )


@dataclass
class FaultTelemetry:
    """Counters describing what the fault layer did during one run.

    Attached to :class:`repro.mac.MACSimResult` (excluded from equality
    comparisons) so experiments can report resilience behavior alongside
    loss figures.
    """

    crashes: int = 0
    restarts: int = 0
    deaf_events: int = 0
    deaf_recoveries: int = 0
    corrupted_observations: int = 0
    cohort_splits: int = 0
    cohort_merges: int = 0
    resyncs: int = 0
    phantom_deliveries: int = 0
    peak_cohorts: int = 1
    # Feedback-channel error families (repro.faults.feedback) and the
    # divergence-recovery policies share this record.
    jam_bursts: int = 0
    jam_slots: int = 0
    missed_feedback: int = 0
    divergence_detections: int = 0
    diverged_slots: float = 0.0
    faded_frames: int = 0
    dropped_messages: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"corrupted={self.corrupted_observations} splits={self.cohort_splits} "
            f"merges={self.cohort_merges} resyncs={self.resyncs} "
            f"crashes={self.crashes} deaf={self.deaf_events} "
            f"phantom={self.phantom_deliveries} peak_cohorts={self.peak_cohorts} "
            f"missed={self.missed_feedback} jams={self.jam_bursts} "
            f"faded={self.faded_frames} dropped={self.dropped_messages} "
            f"diverged_slots={self.diverged_slots:g}"
        )
