"""Semi-Markov decision process substrate.

A generic average-cost SMDP with Howard policy iteration (the paper's
Appendix A machinery) and a value-iteration cross-check, plus the
pseudo-time protocol model of section 3 and a Monte-Carlo pseudo-time
protocol simulator used to verify Theorem 1 empirically.
"""

from .._lazy import lazy_exports

# ``policy_iteration`` is also a submodule's name, so it is bound eagerly.
from .policy_iteration import (
    PolicyEvaluation,
    PolicyIterationResult,
    evaluate_policy,
    policy_iteration,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".model": ("ActionData", "SMDP"),
    ".protocol_model": (
        "NEWER", "OLDER", "WAIT", "WindowAction", "build_protocol_smdp",
        "lcfs_like_policy", "minimum_slack_policy", "pseudo_loss_fraction",
    ),
    ".pseudo_sim": (
        "PseudoSimResult", "make_window_policy", "simulate_pseudo_protocol",
    ),
    ".value_iteration": ("ValueIterationResult", "relative_value_iteration"),
})

__all__ = [
    "SMDP",
    "ActionData",
    "evaluate_policy",
    "policy_iteration",
    "PolicyEvaluation",
    "PolicyIterationResult",
    "relative_value_iteration",
    "ValueIterationResult",
    "build_protocol_smdp",
    "minimum_slack_policy",
    "lcfs_like_policy",
    "pseudo_loss_fraction",
    "WindowAction",
    "WAIT",
    "OLDER",
    "NEWER",
    "PseudoSimResult",
    "make_window_policy",
    "simulate_pseudo_protocol",
]
