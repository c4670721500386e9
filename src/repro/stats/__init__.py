"""Output-analysis substrate: confidence intervals and summaries."""

from .intervals import ConfidenceInterval, wilson_interval
from .sequential import (
    SequentialConfig,
    WaveDecision,
    cumulative_alpha,
    decide_wave,
    design_effect,
    look_level,
)
from .summaries import Summary, describe, monotone_fraction, relative_error

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
