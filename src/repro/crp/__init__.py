"""Collision-resolution-process (CRP) analysis.

Exact analysis of the binary window-splitting process: expected
resolution steps, scheduling-time distributions, the optimal-occupancy
window-length heuristic (policy element 2), the joint
(duration, resolved-length) law used by the decision model, and the
[Kurose 83] two-endpoint approximation for comparison.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".capacity": ("CapacityReport", "max_stable_throughput", "utilization_bound"),
    ".joint": ("WindowProcessDistribution", "windowing_process_outcomes"),
    ".scheduling_time": (
        "ExactSchedulingModel", "GeometricSchedulingModel",
        "mean_scheduling_slots", "scheduling_time_pmf",
    ),
    ".splitting": (
        "binomial_split_probabilities", "expected_resolution_steps",
        "resolution_time_pmf",
    ),
    ".twopoint": ("TwoPointFit", "fit_two_point"),
    ".window_opt": ("WindowSizer", "optimal_window_occupancy"),
})

__all__ = [
    "binomial_split_probabilities",
    "expected_resolution_steps",
    "resolution_time_pmf",
    "mean_scheduling_slots",
    "scheduling_time_pmf",
    "ExactSchedulingModel",
    "GeometricSchedulingModel",
    "WindowSizer",
    "optimal_window_occupancy",
    "WindowProcessDistribution",
    "windowing_process_outcomes",
    "CapacityReport",
    "max_stable_throughput",
    "utilization_bound",
    "TwoPointFit",
    "fit_two_point",
]
