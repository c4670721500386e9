"""Bit-parity and eligibility of the compiled MAC backend.

The contract under test: running with ``backend="compiled"`` — the
default — is **field-for-field identical** to the reference loop (and
to its own faulted lane under a null feedback model) for all four
protocol disciplines, seeded RANDOM included, on stream-seeded runs and
on randomly drawn arms, with equal metrics registries (up to the
epoch-granularity names the fast-forward elides) when instrumentation
is on.  The golden seeds at ρ′ = 0.25 and 0.8, the bursty workload and
the null replica model live in ``test_fastpath.py``.  On top of parity:
ineligible runs must fall back to the reference loop, and the backend
must hold across ragged station counts (the 1e5–1e6 scaling axis is
exercised at its small end here — the perf budgets live in the perf
smoke).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.core.policy import FixedLength, FullBacklogLength, OldestFirstPosition
from repro.des.rng import RandomStreams
from repro.experiments.sweep import MACRunSpec, run_spec
from repro.faults import FeedbackFaultModel
from repro.faults.feedback import FeedbackFaultState
from repro.mac.kernels import compiled, engine
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
# transmission lengths, both loss definitions, and populations small
# enough that the no-discard arms strand same-station messages.
_spec_strategy = st.builds(
    lambda name, seed, horizon, warm_frac, dl_mult, m, loss, stations: MACRunSpec(
        policy=(
            ControlPolicy.optimal(dl_mult * m, 0.5 / m)
            if name == "optimal"
            else getattr(ControlPolicy, name)(0.5 / m)
        ),
        arrival_rate=0.5 / m,
        transmission_slots=m,
        horizon=float(horizon),
        warmup=math.floor(horizon * warm_frac),
        n_stations=stations,
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
    stations=st.sampled_from([1, 2, 25]),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=_spec_strategy)
def test_property_random_arms_are_bit_identical(spec):
    assert run_spec(spec) == run_spec(dataclasses.replace(spec, backend="reference"))


class TestOneIntervalEpoch:
    """Theorem 1's policy elements 1 and 3 keep the unresolved set one
    interval: those lanes run the scalar epoch, every other lane the
    interval-list epoch."""

    @pytest.fixture
    def no_list_epoch(self, monkeypatch):
        def refuse(lane, now_f):
            raise AssertionError("entered the interval-list epoch")

        monkeypatch.setattr(engine.FlatLane, "_gen_epoch", refuse)

    @pytest.mark.parametrize(
        "name, n_stations, unresolved",
        [
            ("optimal", 1, 0),
            ("optimal", 25, 0),
            # FCFS strands same-station messages at small populations.
            ("uncontrolled_fcfs", 1, 4),
            ("uncontrolled_fcfs", 2, 2),
            ("uncontrolled_fcfs", 25, 0),
        ],
    )
    def test_oldest_first_older_split_never_enters_the_list_epoch(
        self, no_list_epoch, name, n_stations, unresolved
    ):
        result = _run(name, "compiled", n_stations=n_stations)
        assert result == _run(name, "reference", n_stations=n_stations)
        assert result.unresolved == unresolved

    def test_newest_first_enters_the_list_epoch(self, no_list_epoch):
        with pytest.raises(AssertionError, match="interval-list epoch"):
            _run("uncontrolled_lcfs", "compiled")

    def test_lane_picks_its_epoch_from_policy_and_fault_hook(self):
        def one(policy, faults=None):
            return engine.FlatLane(
                policy, np.random.default_rng(1), M, "true", 0.0, 100.0, [], [],
                pos_code=compiled._POSITION_CODES[type(policy.position)],
                faults=faults,
            ).one_interval

        optimal = _policy("optimal")
        null_faults = FeedbackFaultState(
            FeedbackFaultModel.none(), 25, np.random.default_rng(2)
        )
        assert one(optimal)
        assert one(_policy("uncontrolled_fcfs"))
        assert one(dataclasses.replace(optimal, split_arity=3))
        assert not one(optimal, faults=null_faults)
        assert not one(dataclasses.replace(optimal, split="newer"))
        assert not one(dataclasses.replace(optimal, split="random"))
        assert not one(_policy("uncontrolled_lcfs"))
        assert not one(_policy("uncontrolled_random"))


#: Instants whose float spacing straddles the 1e-12 edges: below, near
#: and above an ulp of 1e-12, and just under binade boundaries.
_EDGE_BASES = (0.0, 3.0, 4095.5, 8191.0, 10_000.0, 65_534.0)


def _edge_offset(scale: float):
    """An offset from a boundary: ordinary, or within a few 1e-12."""
    return st.one_of(
        st.floats(-3e-12, 3e-12),
        st.sampled_from([-1e-12, 0.0, 1e-12]),
        st.floats(-scale, scale),
    )


@st.composite
def _epoch_states(draw):
    """One decision epoch's inputs: the set [oldest, fr), the clock, the
    window length and discard deadline, and a backlog crowded onto the
    set's ends and midpoint."""
    fr = draw(st.sampled_from(_EDGE_BASES)) + 200.0
    width = draw(st.one_of(st.none(), st.floats(0.0, 3e-12), st.floats(1.0, 150.0)))
    oldest = None if width is None else fr - width
    gaps = st.sampled_from([0.0, 1.0, 25.0])
    if oldest is None:  # an empty set also takes a sliver advance
        gaps = st.one_of(gaps, st.sampled_from([5e-13, 1e-12, 1.5e-12, 2.5e-12]))
    now = fr + draw(gaps)
    low = fr if oldest is None else oldest
    length = draw(
        st.one_of(st.none(), st.floats(1e-3, 200.0), _edge_offset(5.0).map(
            lambda delta: now - low + delta
        ))
    )
    deadline = draw(
        st.one_of(st.none(), _edge_offset(2.0).map(lambda delta: now - low + delta))
    )
    assume(length is None or length > 0)
    assume(deadline is None or deadline > 1e-6)
    points = [low, fr, (low + now) / 2, low + (now - low) / 4, now]
    arrivals = sorted(
        draw(
            st.lists(
                st.one_of(
                    st.sampled_from(points),
                    st.floats(low - 5.0, now),
                    _edge_offset(1e-9).map(lambda delta: (low + now) / 2 + delta),
                ),
                max_size=6,
            )
        )
    )
    stations = draw(st.lists(st.integers(0, 2), min_size=len(arrivals),
                             max_size=len(arrivals)))
    return dict(
        oldest=oldest, fr=fr, now=now, length=length, deadline=deadline,
        arrivals=arrivals, stations=stations,
        arity=draw(st.integers(2, 4)), m=draw(st.sampled_from([1, 25])),
    )


def _epoch_outcome(lane, epoch, now):
    try:
        epoch(now)
    except invariants.InvariantViolation:
        return "one-interval breach"
    except RuntimeError as error:
        return str(error)
    return None


def _lane_state(lane):
    return (
        lane.now, lane.idle, lane.coll, lane.tx, lane.wait, lane.fr,
        lane.vec, lane.frontier, lane.backlog_t, lane.backlog_i, lane.stuck_i,
        lane.scored, lane.wcount, lane.wtrue, lane.wpaper, lane.disc,
    )


@settings(max_examples=400, deadline=None)
@given(state=_epoch_states())
@example(state=dict(  # the window falls 1e-12 short of the set: whole
    oldest=9_900.0, fr=10_000.0, now=10_001.0, length=101.0 - 1e-12,
    deadline=None, arrivals=[9_950.0, 9_960.0], stations=[0, 1], arity=2, m=1,
))
@example(state=dict(  # an idle window ending one coarse ulp short of fr
    oldest=10_000.0, fr=10_100.0, now=10_100.0, length=100.0 - 1.05e-12,
    deadline=None, arrivals=[], stations=[], arity=2, m=1,
))
@example(state=dict(  # an empty set drops a 0.5e-12 advance
    oldest=None, fr=203.0, now=203.0 + 5e-13, length=None,
    deadline=None, arrivals=[], stations=[], arity=2, m=1,
))
@example(state=dict(  # ... and keeps a 1.5e-12 one
    oldest=None, fr=203.0, now=203.0 + 1.5e-12, length=None,
    deadline=None, arrivals=[], stations=[], arity=2, m=1,
))
def test_one_interval_epoch_equals_the_list_epoch(state):
    # The same epoch on the same one-interval state, once on the scalar
    # form and once on the u_lo/u_hi columns: equal clocks, counts,
    # backlog, scores and set, unless the list helpers leave a set that
    # is not [x, fr), where the scalar form raises instead.
    policy = ControlPolicy(
        position=OldestFirstPosition(),
        length=(
            FullBacklogLength() if state["length"] is None
            else FixedLength(state["length"])
        ),
        split="older",
        discard_deadline=state["deadline"],
        name="probe",
        split_arity=state["arity"],
    )
    one, columns = (
        engine.FlatLane(
            policy, np.random.default_rng(0), state["m"], "true", 0.0, 1e9,
            list(state["arrivals"]), list(state["stations"]),
        )
        for _ in range(2)
    )
    for lane in (one, columns):
        lane.vec = False
        lane.fr = state["fr"]
        lane.ingest(state["now"])
    one.oldest = state["oldest"]
    if state["oldest"] is not None:
        columns.u_lo[:] = [state["oldest"]]
        columns.u_hi[:] = [state["fr"]]
    scalar = _epoch_outcome(one, one._one_epoch, state["now"])
    listed = _epoch_outcome(columns, columns._gen_epoch, state["now"])
    if scalar == "one-interval breach":
        # The list epoch ran on, to a set the scalar form cannot hold.
        held = columns.u_lo == [] or (
            len(columns.u_lo) == 1 and columns.u_hi == [columns.fr]
        )
        assert listed is None and not held
        return
    assert scalar == listed
    if scalar is None:
        assert _lane_state(one) == _lane_state(columns)
        expected = [] if one.oldest is None else [one.oldest]
        assert (columns.u_lo, columns.u_hi) == (
            expected, [one.fr] if expected else []
        )


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
