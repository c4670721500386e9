"""The paper's primary contribution: the controlled window protocol.

Policy elements 1-4 (:mod:`repro.core.policy`), the station's view of
the time axis (:mod:`repro.core.timeline`), the windowing / splitting
state machine (:mod:`repro.core.window`) and the shared protocol
controller (:mod:`repro.core.controller`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": ("DiscardReport", "ProtocolController"),
    ".policy": (
        "ControlPolicy", "FixedLength", "FullBacklogLength", "LengthRule",
        "NewestFirstPosition", "OccupancyLength", "OldestFirstPosition",
        "PositionRule", "RandomPosition",
    ),
    ".timeline": ("IntervalSet", "Span"),
    ".window": ("ChannelFeedback", "WindowingProcess"),
})

__all__ = [
    "ControlPolicy",
    "PositionRule",
    "OldestFirstPosition",
    "NewestFirstPosition",
    "RandomPosition",
    "LengthRule",
    "FixedLength",
    "FullBacklogLength",
    "OccupancyLength",
    "IntervalSet",
    "Span",
    "ChannelFeedback",
    "WindowingProcess",
    "ProtocolController",
    "DiscardReport",
]
