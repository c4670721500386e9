"""Queueing-theory substrate.

Lattice distributions, classic M/G/1 results, the paper's
impatient-customer model (eq. 4.2-4.7), an exact discrete workload-chain
validator, busy-period/LCFS analytics for the uncontrolled baselines,
and Monte-Carlo queue simulators.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accepted_wait": ("accepted_wait_pmf", "accepted_wait_pmf_from_chain"),
    ".busy_period": ("busy_period_pmf", "delay_busy_period_pmf"),
    ".convolve": ("SeriesResult", "convolution_series", "waiting_series_pmf"),
    ".distributions": (
        "LatticePMF", "deterministic_pmf", "exponential_pmf", "geometric_pmf",
        "mixture", "poisson_pmf", "uniform_pmf",
    ),
    ".impatient": ("ImpatientMG1", "ImpatientSolution", "LossCurvePoint", "loss_curve"),
    ".lcfs": ("LCFSQueue",),
    ".mg1": ("MG1", "pollaczek_khinchine_wait"),
    ".simulation": (
        "ImpatientSimResult", "WaitSimResult", "simulate_impatient_mg1",
        "simulate_mg1_waits",
    ),
    ".transient": ("TransientResult", "transient_workload"),
    ".true_wait": ("TrueWaitCorrection", "true_wait_correction"),
    ".workload_chain": ("WorkloadChainSolution", "solve_workload_chain"),
})

__all__ = [
    "LatticePMF",
    "deterministic_pmf",
    "geometric_pmf",
    "poisson_pmf",
    "exponential_pmf",
    "uniform_pmf",
    "mixture",
    "SeriesResult",
    "convolution_series",
    "waiting_series_pmf",
    "MG1",
    "pollaczek_khinchine_wait",
    "ImpatientMG1",
    "ImpatientSolution",
    "LossCurvePoint",
    "loss_curve",
    "TransientResult",
    "transient_workload",
    "TrueWaitCorrection",
    "true_wait_correction",
    "WorkloadChainSolution",
    "solve_workload_chain",
    "accepted_wait_pmf",
    "accepted_wait_pmf_from_chain",
    "busy_period_pmf",
    "delay_busy_period_pmf",
    "LCFSQueue",
    "ImpatientSimResult",
    "WaitSimResult",
    "simulate_impatient_mg1",
    "simulate_mg1_waits",
]
