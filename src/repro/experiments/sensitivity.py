"""Robustness experiments beyond the paper's evaluation.

The paper's analysis assumes an infinite population of stations and
Poisson arrivals.  These sweeps measure how the *simulated* protocol
departs from the analysis when those assumptions bend:

* :func:`station_count_sensitivity` — the protocol's control state is
  shared, so performance should be nearly independent of the population
  size; only same-station message aggregation (a station transmits one
  message per window) perturbs small populations.
* :func:`burstiness_sensitivity` — MMPP traffic with the same mean rate
  but increasing burstiness degrades time-constrained performance; the
  controlled protocol's discard keeps the degradation bounded.
* :func:`scheduling_model_sensitivity` — eq. 4.7 under the exact
  scheduling-time law vs the paper's geometric approximation (same
  mean): how much distribution shape matters.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.policy import ControlPolicy
from ..crp.scheduling_time import ExactSchedulingModel, GeometricSchedulingModel
from ..crp.window_opt import optimal_window_occupancy
from ..queueing.impatient import ImpatientMG1
from ..workloads.arrivals import MMPPWorkload
from ..obs import tracing as trace
from ..stats.sequential import SequentialConfig
from .ablations import AblationArm
from .sweep import (
    MACRunSpec,
    SweepExecutor,
    run_sequential,
)

__all__ = [
    "station_count_sensitivity",
    "burstiness_sensitivity",
    "scheduling_model_sensitivity",
]


def _arms(label_format, parameters, results) -> List[AblationArm]:
    """Wrap sweep results as arms; quarantined cells become explicit
    ``NaN`` arms labelled ``[quarantined]`` rather than vanishing."""
    arms = []
    for parameter, result in zip(parameters, results):
        label = label_format.format(parameter)
        if result is None:
            arms.append(AblationArm(label=f"{label} [quarantined]", loss=math.nan))
        else:
            arms.append(
                AblationArm(
                    label=label,
                    loss=result.loss_fraction,
                    stderr=result.loss_stderr(),
                )
            )
    return arms


def _sequential_arms(
    label_format, parameters, specs, workers, resilience, metrics,
    sequential,
) -> List[AblationArm]:
    """Adaptive-replication variant of the sweep-then-wrap pattern."""
    labels = [label_format.format(parameter) for parameter in parameters]
    executor = SweepExecutor(workers, resilience, metrics=metrics)
    base_seed = specs[0].seed if specs else 1
    estimates = run_sequential(
        list(zip(labels, specs)), sequential, executor, base_seed=base_seed
    )
    return [
        AblationArm(
            label=f"{est.label} [quarantined]" if est.units == 0 else est.label,
            loss=est.mean if est.units else math.nan,
            stderr=est.stderr() if est.units else None,
        )
        for est in estimates
    ]


def station_count_sensitivity(
    station_counts: Sequence[int] = (4, 16, 64, 256),
    rho_prime: float = 0.75,
    message_length: int = 25,
    deadline: float = 75.0,
    horizon: float = 100_000.0,
    warmup: float = 12_000.0,
    seed: int = 41,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    backend: str = "compiled",
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Loss of the controlled protocol across population sizes."""
    lam = rho_prime / message_length
    specs = [
        MACRunSpec(
            policy=ControlPolicy.optimal(deadline, lam),
            arrival_rate=lam,
            transmission_slots=message_length,
            horizon=horizon,
            warmup=warmup,
            n_stations=n_stations,
            deadline=deadline,
            seed=seed,
            backend=backend,
        )
        for n_stations in station_counts
    ]
    if sequential is not None:
        with trace.span("sensitivity.stations", cells=len(specs)):
            return _sequential_arms(
                "{0} stations", station_counts, specs, workers, resilience,
                metrics, sequential,
            )
    with trace.span("sensitivity.stations", cells=len(specs)):
        results = SweepExecutor(workers, resilience, metrics=metrics).run_specs(specs)
    return _arms("{0} stations", station_counts, results)


def burstiness_sensitivity(
    burst_ratios: Sequence[float] = (1.0, 3.0, 9.0),
    rho_prime: float = 0.6,
    message_length: int = 25,
    deadline: float = 100.0,
    modulation_period: float = 4_000.0,
    horizon: float = 150_000.0,
    warmup: float = 15_000.0,
    seed: int = 43,
    workers: Optional[int] = None,
    resilience=None,
    metrics=None,
    backend: str = "compiled",
    sequential: Optional[SequentialConfig] = None,
) -> List[AblationArm]:
    """Loss under MMPP traffic of fixed mean rate, varying peak/mean.

    ``burst_ratio`` is the high-state rate divided by the mean rate;
    1.0 degenerates to Poisson.  States alternate with equal mean
    holding time ``modulation_period / 2``.
    """
    mean_rate = rho_prime / message_length
    specs = []
    for ratio in burst_ratios:
        if ratio < 1.0:
            raise ValueError(f"burst ratio must be >= 1, got {ratio}")
        high = mean_rate * ratio
        low = max(0.0, 2.0 * mean_rate - high)  # keeps the average at mean_rate
        workload = (
            None
            if ratio == 1.0
            else MMPPWorkload(
                low_rate=low,
                high_rate=high,
                mean_low=modulation_period / 2,
                mean_high=modulation_period / 2,
            )
        )
        specs.append(
            MACRunSpec(
                policy=ControlPolicy.optimal(deadline, mean_rate),
                arrival_rate=mean_rate,
                transmission_slots=message_length,
                horizon=horizon,
                warmup=warmup,
                deadline=deadline,
                seed=seed,
                workload=workload,
                backend=backend,
            )
        )
    if sequential is not None:
        with trace.span("sensitivity.burstiness", cells=len(specs)):
            return _sequential_arms(
                "peak/mean {0:g}", burst_ratios, specs, workers, resilience,
                metrics, sequential,
            )
    with trace.span("sensitivity.burstiness", cells=len(specs)):
        results = SweepExecutor(workers, resilience, metrics=metrics).run_specs(specs)
    return _arms("peak/mean {0:g}", burst_ratios, results)


def scheduling_model_sensitivity(
    deadlines: Sequence[float] = (25.0, 50.0, 100.0, 200.0),
    rho_prime: float = 0.75,
    message_length: int = 25,
) -> List[List[str]]:
    """Eq. 4.7 loss rows: exact scheduling law vs geometric approximation."""
    lam = rho_prime / message_length
    mu = optimal_window_occupancy()
    exact_service = ExactSchedulingModel(message_length, mu).service_pmf()
    geo_service = GeometricSchedulingModel(message_length, mu).service_pmf()
    rows = []
    for deadline in deadlines:
        exact = ImpatientMG1(lam, exact_service, deadline).loss_probability()
        geo = ImpatientMG1(lam, geo_service, deadline).loss_probability()
        gap = abs(geo - exact) / exact if exact > 0 else 0.0
        rows.append(
            [f"{deadline:g}", f"{exact:.5f}", f"{geo:.5f}", f"{gap:.1%}"]
        )
    return rows
