"""Fault injection and graceful protocol degradation.

The paper's protocol assumes error-free ternary feedback and therefore
perfectly replicated protocol state.  This package quantifies and
hardens the reproduction against that assumption breaking:

- :mod:`~repro.faults.model` — the per-station fault taxonomy
  (:class:`FaultModel`): slot-feedback confusion, station crashes and
  deaf periods;
- :mod:`~repro.faults.feedback` — :class:`FeedbackFaultModel`, the
  common-mode feedback errors that keep one shared protocol state;
- :mod:`~repro.faults.injector` — :class:`FaultInjector`, the
  event-driven fault source;
- :mod:`~repro.faults.replicas` — :class:`ReplicatedControllerBank`,
  per-station protocol replicas grouped into agreement cohorts, with
  divergence detection and bounded re-synchronization.

Pass a :class:`FaultModel` to
:class:`~repro.mac.simulator.WindowMACSimulator` to route a simulation
through the replica machinery; ``FaultModel.none()`` reproduces the
shared-controller results bit-for-bit.  See ``docs/robustness.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".feedback": ("RECOVERY_POLICIES", "FeedbackFaultModel", "FeedbackFaultState"),
    ".injector": ("FaultEvent", "FaultInjector", "StationHealth"),
    ".model": ("FaultModel", "FaultTelemetry"),
    ".replicas": ("ReplicaCohort", "ReplicatedControllerBank"),
})

__all__ = [
    "FaultModel",
    "FaultTelemetry",
    "FeedbackFaultModel",
    "FeedbackFaultState",
    "RECOVERY_POLICIES",
    "FaultInjector",
    "FaultEvent",
    "StationHealth",
    "ReplicaCohort",
    "ReplicatedControllerBank",
]
