"""Output-analysis substrate: confidence intervals, the sequential
stopping rule and a curve-shape check."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".intervals": ("ConfidenceInterval", "wilson_interval"),
    ".sequential": (
        "SequentialConfig", "WaveDecision", "cumulative_alpha", "decide_wave",
        "design_effect", "look_level",
    ),
    ".summaries": ("monotone_fraction",),
})

__all__ = [
    "ConfidenceInterval",
    "wilson_interval",
    "SequentialConfig",
    "WaveDecision",
    "cumulative_alpha",
    "design_effect",
    "look_level",
    "decide_wave",
    "monotone_fraction",
]
