"""Traffic-generation substrate: Poisson, MMPP, voice and nonstationary
(heavy-tailed / diurnal / flash-crowd / adversarial) models, all behind
the :class:`Workload` interface."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".arrivals": ("MMPPWorkload", "PoissonWorkload", "Workload"),
    ".nonstationary": (
        "AdversarialWorkload", "DiurnalWorkload", "FlashCrowdWorkload",
        "HeavyTailedWorkload", "thin_inhomogeneous",
    ),
    ".voice": ("VoiceWorkload",),
})

__all__ = [
    "Workload",
    "PoissonWorkload",
    "MMPPWorkload",
    "VoiceWorkload",
    "HeavyTailedWorkload",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "AdversarialWorkload",
    "thin_inhomogeneous",
]
