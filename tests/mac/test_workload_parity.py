"""Cross-backend parity for the nonstationary workloads.

The acceptance criterion of ISSUE 9's engine: every nonstationary
workload — heavy-tailed (both interarrival families), diurnal,
flash-crowd, adversarial — produces **bit-identical** results on the
reference loop and the compiled engine, across all four protocol
disciplines, with metrics registries equal except for the
epoch-granularity series the idle fast-forward elides (exactly as
``tests/mac/test_obs_parity.py`` documents).
"""

import dataclasses

import pytest

from repro.core import ControlPolicy
from repro.experiments.sweep import (
    MACRunSpec,
    SweepExecutor,
    run_spec,
    run_spec_with_metrics,
)
from repro.workloads import (
    AdversarialWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    HeavyTailedWorkload,
)

M = 25
LAM = 0.5 / M
DEADLINE = 3.0 * M
HORIZON = 2_500.0
WARMUP = 400.0

WORKLOADS = {
    "pareto": HeavyTailedWorkload(rate=LAM, shape=1.5, family="pareto"),
    "weibull": HeavyTailedWorkload(rate=LAM, shape=0.6, family="weibull"),
    "diurnal": DiurnalWorkload(rate=LAM, period=800.0, amplitude=0.9),
    "flash-crowd": FlashCrowdWorkload(
        base_rate=LAM / 1.4,
        peak_ratio=6.0,
        ramp=60.0,
        hold=150.0,
        period=1_500.0,
        onset=300.0,
    ),
    "adversarial": AdversarialWorkload(
        burst_size=6, interval=600.0, background_rate=LAM / 2.0
    ),
}

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")

#: Epoch-granularity names the compiled engine's idle fast-forward
#: accounts differently from the reference loop (test_obs_parity.py).
EPOCH_GRANULARITY = frozenset(
    {
        "mac.epochs",
        "mac.backlog.size",
        "mac.window.size",
        "mac.fastforward.spans",
        "mac.fastforward.slots",
        "mac.fastforward.span",
    }
)


def _policy(name: str) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(DEADLINE, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _spec(workload, protocol, backend="compiled", seed=3) -> MACRunSpec:
    return MACRunSpec(
        policy=_policy(protocol),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=HORIZON,
        warmup=WARMUP,
        n_stations=25,
        deadline=DEADLINE,
        seed=seed,
        workload=workload,
        backend=backend,
    )


def _scored(state: dict) -> dict:
    return {k: v for k, v in state.items() if k not in EPOCH_GRANULARITY}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_all_backends_bit_identical(workload_name, protocol):
    workload = WORKLOADS[workload_name]
    reference = run_spec(_spec(workload, protocol, backend="reference"))
    compiled = run_spec(_spec(workload, protocol, backend="compiled"))
    for field in dataclasses.fields(reference):
        name = field.name
        assert getattr(compiled, name) == getattr(reference, name), (
            f"compiled.{name}"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_kernel_registries_equal(workload_name, protocol):
    workload = WORKLOADS[workload_name]
    compiled_result, compiled_state = run_spec_with_metrics(
        _spec(workload, protocol, backend="compiled")
    )
    reference_result, reference_state = run_spec_with_metrics(
        _spec(workload, protocol, backend="reference")
    )
    assert compiled_result == reference_result
    # The reference loop walks every epoch individually, so its
    # epoch-granularity series differ by design; everything else —
    # slot and message accounting included — agrees to the last count.
    assert _scored(reference_state) == _scored(compiled_state)


def test_heterogeneous_batch_matches_per_spec_runs():
    # One sweep mixing every workload family (distinct arrival shapes
    # and seeds) must equal the spec-at-a-time reference runs.
    specs = [
        _spec(workload, "optimal", seed=11 + i)
        for i, (_, workload) in enumerate(sorted(WORKLOADS.items()))
    ]
    swept = SweepExecutor(None).run_specs(specs)
    individual = [
        run_spec(dataclasses.replace(spec, backend="reference"))
        for spec in specs
    ]
    assert swept == individual
