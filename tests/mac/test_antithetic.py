"""Bit-parity of antithetic lanes across every execution backend.

The ISSUE 10 contract: flipping ``MACRunSpec.antithetic`` wraps the
simulator's generator in the uniform-mirroring twin at the same
pre-draw point on every backend, so the reference loop and the compiled
engine produce the **same** mirrored result — bit for bit — and a
mirrored lane genuinely differs from its plain twin (it is a second
sample path, not a replay).
"""

from dataclasses import replace

import pytest

from repro.core import ControlPolicy
from repro.experiments.sweep import MACRunSpec, SweepExecutor, run_spec

M = 25
LAM = 0.5 / M

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs")


def _policy(name: str) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(3.0 * M, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _spec(name: str, **overrides) -> MACRunSpec:
    kwargs = dict(
        policy=_policy(name),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=4_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=11,
        antithetic=True,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


class TestAntitheticParity:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_all_backends_agree_on_the_mirrored_lane(self, name):
        reference = run_spec(_spec(name, backend="reference"))
        compiled = run_spec(_spec(name, backend="compiled"))
        assert compiled == reference

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_mirrored_lane_differs_from_plain(self, name):
        plain = run_spec(_spec(name, antithetic=False))
        mirrored = run_spec(_spec(name))
        assert plain != mirrored

    def test_mirrored_lane_is_reproducible(self):
        assert run_spec(_spec("optimal")) == run_spec(_spec("optimal"))

    def test_mixed_plain_and_mirrored_lanes_in_one_cohort(self):
        # The generator is wrapped per run, so a CRN pair (plain,
        # mirrored) in one sweep matches the reference loop lane by lane.
        specs = [
            _spec("optimal", antithetic=False),
            _spec("optimal"),
            _spec("uncontrolled_fcfs", antithetic=False),
            _spec("uncontrolled_fcfs"),
        ]
        assert SweepExecutor(None).run_specs(specs) == [
            run_spec(replace(s, backend="reference")) for s in specs
        ]

    def test_stream_seed_construction_also_mirrors(self):
        # The RandomStreams construction (robustness sweeps) honours
        # the flag too, via RandomStreams(antithetic=...).
        spec = _spec("optimal", seed=0, stream_seed=11)
        assert run_spec(spec) == run_spec(
            _spec("optimal", seed=0, stream_seed=11, backend="reference")
        )
        assert run_spec(spec) != run_spec(
            _spec("optimal", seed=0, stream_seed=11, antithetic=False)
        )
