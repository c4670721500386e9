"""Multiple-access channel substrate.

Slot-level simulation of the broadcast channel: messages, stations, the
ternary-feedback slotted channel, and the window-MAC simulator that
produces Figure 7's simulation points.  Time advances in τ-slots; the
simulator's reference loop is the oracle and the fast kernels in
:mod:`repro.mac.kernels` reproduce it bit for bit.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".channel": ("ChannelStats", "SlottedChannel"),
    ".messages": ("Message", "MessageFate"),
    ".simulator": ("MACSimResult", "WindowMACSimulator"),
    ".station": ("Station", "StationRegistry"),
})

__all__ = [
    "Message",
    "MessageFate",
    "Station",
    "StationRegistry",
    "SlottedChannel",
    "ChannelStats",
    "WindowMACSimulator",
    "MACSimResult",
]
