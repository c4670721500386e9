"""Output-analysis substrate: confidence intervals and summaries."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".intervals": ("ConfidenceInterval", "wilson_interval"),
    ".sequential": (
        "SequentialConfig", "WaveDecision", "cumulative_alpha", "decide_wave",
        "design_effect", "look_level",
    ),
    ".summaries": ("Summary", "describe", "monotone_fraction", "relative_error"),
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
    "Summary",
    "describe",
    "relative_error",
    "monotone_fraction",
]
