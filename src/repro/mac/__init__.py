"""Multiple-access channel substrate.

Slot-level simulation of the broadcast channel: messages, stations, the
ternary-feedback slotted channel, and the window-MAC simulator that
produces Figure 7's simulation points.  Time advances in τ-slots; the
simulator's reference loop is the oracle and the fast kernels in
:mod:`repro.mac.kernels` reproduce it bit for bit.  Slotted-ALOHA and
TDMA baselines (not part of the paper's evaluation) live here as
extensions.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".aloha": ("AlohaResult", "SlottedAlohaSimulator"),
    ".channel": ("ChannelStats", "SlottedChannel"),
    ".messages": ("Message", "MessageFate"),
    ".simulator": ("MACSimResult", "WindowMACSimulator"),
    ".station": ("Station", "StationRegistry"),
    ".tdma": ("TDMAResult", "TDMASimulator", "tdma_loss_probability"),
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
    "SlottedAlohaSimulator",
    "AlohaResult",
    "TDMASimulator",
    "TDMAResult",
    "tdma_loss_probability",
]
