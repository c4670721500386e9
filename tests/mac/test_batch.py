"""Bit-parity of a batch of specs dispatched through the sweep executor.

The contract under test: ``SweepExecutor.run_specs(specs)`` — every spec
its own ``run_spec`` task — is **field-for-field identical** to running
each spec on its own, in spec order, whatever mix of arms, seeds and
engines the batch holds: specs the compiled engine takes, specs pinned
to the reference loop and feedback-faulted specs share one call.  The
per-spec compiled runs are in turn bit-identical to the reference loop,
so all three execution paths are pinned against each other here.  Grids
are tiny: the property is exact equality, not statistics.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.experiments.sweep import (
    MACRunSpec,
    SweepExecutor,
    derive_seeds,
    run_spec,
    run_spec_with_metrics,
)
from repro.faults import FeedbackFaultModel
from repro.obs.metrics import MetricsRegistry

M = 25
LAM = 0.5 / M

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")


def _policy(name: str, deadline: float) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(deadline, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _spec(name: str, seed: int, **overrides) -> MACRunSpec:
    kwargs = dict(
        policy=_policy(name, 3.0 * M),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=4_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=seed,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


def _run_batch(specs):
    return SweepExecutor(None).run_specs(specs)


class TestBitParity:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_batched_equals_sequential_fast_and_reference(self, name):
        # All four disciplines, three seeds each: batched == compiled ==
        # reference loop, field for field.
        specs = [_spec(name, seed) for seed in (1, 7, 42)]
        fast = [run_spec(s) for s in specs]
        batched = _run_batch(specs)
        reference = [
            run_spec(_spec(name, seed, backend="reference")) for seed in (1, 7, 42)
        ]
        assert batched == fast
        assert batched == reference

    def test_mixed_arms_in_one_cohort(self):
        # Heterogeneous specs (different arms, deadlines, horizons,
        # loss definitions) in a single call keep spec order.
        specs = [
            _spec("optimal", 3),
            _spec("uncontrolled_lcfs", 5, horizon=2_500.0),
            _spec("optimal", 3, deadline=1.0 * M, policy=_policy("optimal", 1.0 * M)),
            _spec("uncontrolled_fcfs", 9, loss_definition="paper"),
            _spec("uncontrolled_random", 2, transmission_slots=1),
        ]
        assert _run_batch(specs) == [run_spec(s) for s in specs]

    def test_replicated_seeds_match_derive_seeds_loop(self):
        specs = [_spec("optimal", s) for s in derive_seeds(1, 8)]
        assert _run_batch(specs) == [run_spec(s) for s in specs]

    def test_instrumented_parity_and_registry_equality(self):
        # The instrumented batch must reproduce both the results and the
        # per-run registry state of run_spec_with_metrics, merged in spec
        # order — this is what makes sweep metrics merge-invariant.
        specs = [_spec(name, 11) for name in PROTOCOLS]
        sequential = [run_spec_with_metrics(s) for s in specs]
        executor = SweepExecutor(None, metrics=MetricsRegistry())
        batched = executor.run_specs(specs)
        assert batched == [result for result, _ in sequential]
        expected = MetricsRegistry()
        for _, state in sequential:
            expected.merge_from(MetricsRegistry.from_dict(state))
        assert executor.last_sim_metrics.to_dict() == expected.to_dict()


class TestEligibilityAndFallback:
    def test_mixed_eligibility_preserves_order(self):
        # Compiled, reference-pinned and feedback-faulted specs (three
        # different engines) in one batch come back in spec order.
        specs = [
            _spec("optimal", 1),
            _spec("optimal", 2, backend="reference"),
            _spec("uncontrolled_fcfs", 3, feedback_faults=FeedbackFaultModel.none()),
            _spec("uncontrolled_fcfs", 3),
        ]
        results = _run_batch(specs)
        assert results == [run_spec(s) for s in specs]
        assert results[2] == results[3]


# Ragged lifetimes: specs with very different horizons, warmups, and
# sub-slot deadline fractions.
_spec_strategy = st.builds(
    lambda name, seed, horizon, warm_frac, dl_mult, m, loss: MACRunSpec(
        policy=_policy(name, dl_mult * m),
        arrival_rate=0.5 / m,
        transmission_slots=m,
        horizon=float(horizon),
        warmup=math.floor(horizon * warm_frac),
        n_stations=25,
        deadline=dl_mult * m,
        loss_definition=loss,
        seed=seed,
    ),
    name=st.sampled_from(PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.integers(min_value=200, max_value=3_000),
    warm_frac=st.sampled_from([0.0, 0.1, 0.25]),
    dl_mult=st.sampled_from([0.5, 1.0, 3.0, 8.0]),
    m=st.sampled_from([1, 2, 25]),
    loss=st.sampled_from(["true", "paper"]),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(specs=st.lists(_spec_strategy, min_size=1, max_size=6))
def test_property_random_cohorts_are_bit_identical(specs):
    assert _run_batch(specs) == [
        run_spec(replace(s, backend="reference")) for s in specs
    ]
