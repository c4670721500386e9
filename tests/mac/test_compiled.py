"""Bit-parity and fallback behaviour of the compiled MAC backend.

The contract under test: running with ``backend="compiled"`` — the
default — is **field-for-field identical** to the reference loop (and
to its own faulted lane under a null feedback model) for all four
protocol disciplines, seeded RANDOM included, on stream-seeded runs and
on randomly drawn arms, with equal metrics registries (up to the
epoch-granularity names the fast-forward elides) when instrumentation
is on.  The golden seeds at ρ′ = 0.25 and 0.8, the bursty workload and
the null replica model live in ``test_fastpath.py``.  On top of parity: the
numba-less fallback must be a logged notice and a pure-NumPy run, never
a crash; ineligible runs must fall back to the reference loop; and the
backend must hold across ragged station counts (the 1e5–1e6 scaling
axis is exercised at its small end here — the perf budgets live in the
perf smoke).
"""

import dataclasses
import logging
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.des.rng import RandomStreams
from repro.experiments.sweep import MACRunSpec, run_spec
from repro.faults import FeedbackFaultModel
from repro.mac.kernels import compiled
from repro.mac.simulator import WindowMACSimulator
from repro.obs.metrics import MetricsRegistry
from repro.resilience import invariants

M = 25
LAM = 0.5 / M
DEADLINE = 3.0 * M

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")

#: Epoch-granularity registry names that legitimately differ from the
#: reference loop: the idle fast-forward elides empty epochs and
#: accounts them under ``mac.fastforward.*`` (see test_obs_parity.py).
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


def _policy(name: str, lam: float = LAM) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(DEADLINE, lam)
    return getattr(ControlPolicy, name)(lam)


def _simulator(name, backend, seed=1, n_stations=25, metrics=None,
               rho=0.5, **kwargs):
    lam = rho / M
    return WindowMACSimulator(
        _policy(name, lam),
        arrival_rate=lam,
        transmission_slots=M,
        n_stations=n_stations,
        deadline=DEADLINE,
        seed=seed,
        backend=backend,
        metrics=metrics,
        **kwargs,
    )


def _run(name: str, backend: str, horizon=4_000.0, warmup=500.0, **kwargs):
    return _simulator(name, backend, **kwargs).run(horizon, warmup_slots=warmup)


class TestBitParity:
    @pytest.mark.parametrize("name", PROTOCOLS)
    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_compiled_equals_fast_and_reference(self, name, seed):
        # Both compiled lanes against the oracle: compiled == the faulted
        # lane under a null feedback model (its physics collapse
        # to the fault-free run) == reference, field for field.
        reference = _run(name, "reference", seed=seed)
        faulted = _run(name, "compiled", seed=seed,
                       feedback_faults=FeedbackFaultModel.none())
        result = _run(name, "compiled", seed=seed)
        assert result == faulted
        for field in dataclasses.fields(reference):
            assert getattr(result, field.name) == getattr(
                reference, field.name
            ), field.name

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_metrics_registries_equal(self, name):
        # Instrumented runs: identical results, and the registry equals
        # the reference loop's on every name except the epoch-granularity
        # ones the compiled engine accounts under mac.fastforward.*.
        reference_registry = MetricsRegistry(enabled=True)
        reference = _run(name, "reference", metrics=reference_registry)
        compiled_registry = MetricsRegistry(enabled=True)
        result = _run(name, "compiled", metrics=compiled_registry)
        assert result == reference
        ref_state = reference_registry.to_dict()
        state = compiled_registry.to_dict()
        assert {k: v for k, v in state.items() if k not in EPOCH_GRANULARITY} == {
            k: v for k, v in ref_state.items() if k not in EPOCH_GRANULARITY
        }
        assert state["mac.fastforward.spans"]["value"] > 0

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_stream_seeded_runs_match(self, name):
        # The compiled backend drives the simulator's own generator, so
        # the RandomStreams construction stays bit-identical too.
        reference = _run(name, "reference", seed=None, streams=RandomStreams(11))
        result = _run(name, "compiled", seed=None, streams=RandomStreams(11))
        assert result == reference

    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_stations=st.one_of(
            st.integers(min_value=1, max_value=400),
            st.sampled_from([1_000, 10_000, 100_000]),
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_parity_over_ragged_station_counts(self, n_stations, seed):
        # Property: parity is population-independent — from a single
        # station to the 1e5 scaling arm, same fields either way.
        reference = _run("optimal", "reference", seed=seed, n_stations=n_stations)
        result = _run("optimal", "compiled", seed=seed, n_stations=n_stations)
        assert result == reference


# Random arms: horizons, warmups, sub-M and fractional deadlines,
# transmission lengths and both loss definitions.
_spec_strategy = st.builds(
    lambda name, seed, horizon, warm_frac, dl_mult, m, loss: MACRunSpec(
        policy=(
            ControlPolicy.optimal(dl_mult * m, 0.5 / m)
            if name == "optimal"
            else getattr(ControlPolicy, name)(0.5 / m)
        ),
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
@given(spec=_spec_strategy)
def test_property_random_arms_are_bit_identical(spec):
    assert run_spec(spec) == run_spec(dataclasses.replace(spec, backend="reference"))


class TestScoredMessages:
    def test_compiled_run_leaves_scored_messages_unset(self):
        simulator = _simulator("optimal", "compiled", seed=3)
        simulator.run(4_000.0, warmup_slots=500.0)
        with pytest.raises(AttributeError):
            simulator.scored_messages

    def test_reference_run_yields_scored_messages(self):
        simulator = _simulator("optimal", "reference", seed=3)
        result = simulator.run(4_000.0, warmup_slots=500.0)
        records = simulator.scored_messages
        assert len(records) == result.arrivals
        assert all(message.arrival >= 500.0 for message in records)


class TestFallbackAndEligibility:
    def test_numpy_fallback_runs_with_logged_notice(self, caplog, monkeypatch):
        # With numba absent the backend must run the NumPy path and say
        # so once — never crash.  The probe is re-armed and the import
        # is forced to fail so the test is meaningful even when numba
        # happens to be installed.
        import builtins

        real_import = builtins.__import__

        def no_numba(name, *args, **kwargs):
            if name == "numba":
                raise ImportError("No module named 'numba'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numba)
        monkeypatch.setattr(compiled, "_PROBED", False)
        monkeypatch.setattr(compiled, "_JIT_WALK", None)
        with caplog.at_level(logging.INFO, logger=compiled.__name__):
            assert compiled.numba_available() is False
            result = _run("optimal", "compiled")
        assert "pure-NumPy" in caplog.text
        assert result == _run("optimal", "reference")

    def test_fallback_notice_logged_once(self, caplog, monkeypatch):
        monkeypatch.setattr(compiled, "_PROBED", False)
        monkeypatch.setattr(compiled, "_JIT_WALK", None)
        compiled._probe()
        with caplog.at_level(logging.INFO, logger=compiled.__name__):
            compiled._probe()
        assert "pure-NumPy" not in caplog.text

    def test_ineligible_run_falls_back_to_reference(self, monkeypatch):
        # A §5 scaled station makes the run ineligible: the default
        # dispatch completes on the reference loop, bit-identical to an
        # explicit reference run, without touching the compiled engine.
        def refuse(*_args):
            raise AssertionError("an ineligible run reached run_compiled")

        monkeypatch.setattr(compiled, "run_compiled", refuse)
        default = _simulator("optimal", "compiled")
        default.registry.set_window_scale(3, 0.5)
        reference = _simulator("optimal", "reference")
        reference.registry.set_window_scale(3, 0.5)
        assert default.run(4_000.0, 500.0) == reference.run(4_000.0, 500.0)

    def test_unknown_backend_rejected(self):
        for backend in ("auto", "fast", None):
            with pytest.raises(ValueError, match="unknown backend"):
                _simulator("optimal", backend)

    def test_eligibility_gate(self, monkeypatch):
        simulator = _simulator("optimal", "compiled")
        assert compiled.compiled_eligible(simulator)
        # The §5 priority extension is reference-loop territory.
        simulator.registry.set_window_scale(0, 0.5)
        assert not compiled.compiled_eligible(simulator)
        simulator.registry.set_window_scale(0, 1.0)
        assert compiled.compiled_eligible(simulator)
        # So are sub-slot discard deadlines.
        tiny = WindowMACSimulator(
            ControlPolicy.optimal(1e-7, LAM), arrival_rate=LAM,
            transmission_slots=M, deadline=DEADLINE, seed=1,
        )
        assert not compiled.compiled_eligible(tiny)
        # Invariant-checking runs keep the compiled engine: it arms the
        # same guards.
        monkeypatch.setenv(invariants.INVARIANTS_ENV, "1")
        assert compiled.compiled_eligible(simulator)


@pytest.mark.compiled
class TestJittedWalk:
    """Run by the compiled-parity CI job (numba installed)."""

    def test_jitted_walk_matches_interpreted(self):
        pytest.importorskip("numba")
        assert compiled.numba_available()
        for name in PROTOCOLS:
            reference = _run(name, "reference", seed=3)
            result = _run(name, "compiled", seed=3)
            assert result == reference
