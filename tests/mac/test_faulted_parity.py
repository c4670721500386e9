"""Compiled-engine bit-parity under feedback faults.

Enforcement arm of the compiled engine's fault contract
(`repro.mac.kernels.engine.FlatLane` with a fault hook): for every
common-mode feedback fault family — misdetection noise, capture, fade,
erasure, per-station missed feedback under each divergence-recovery
policy, jamming, and their combination — a default (compiled) run must
reproduce the shared reference loop field for field: the
``MACSimResult``, the ``FaultTelemetry`` (excluded from the dataclass
``==``, so compared explicitly), and the metrics registry snapshot,
across all four Figure-7 protocols.

Event-fault families (missed feedback, jamming) never fast-forward, so
their registries match the reference in full.  Noise-only families ride
the scan-gated idle fast-forward, which elides idle examination epochs
exactly as on clean runs — the epoch-granularity names
(``mac.epochs``, ``mac.backlog.size``, ``mac.window.size``) and the
``mac.fastforward.*`` accounts are the documented carve-out (see
``tests/mac/test_obs_parity.py``); everything else matches in full.

A null ``FeedbackFaultModel`` must collapse to the fault-free engines
bit-for-bit, and a hypothesis property sweeps randomly drawn fault
schedules through the same contract.  Dispatch tests pin which runs the
default path counts as downgrades (``kernel.fallbacks``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.des.rng import RandomStreams
from repro.faults import FaultModel, FeedbackFaultModel, RECOVERY_POLICIES
from repro.mac import WindowMACSimulator
from repro.mac.kernels.compiled import compiled_eligible
from repro.obs.metrics import MetricsRegistry

M = 25
DEADLINE = 3.0 * M
LAM = 0.5 / M
HORIZON = 2_500.0
WARMUP = 400.0

#: One representative model per fault family (plus recovery variants).
FAULT_FAMILIES = {
    "noise": FeedbackFaultModel.noise(0.02),
    "capture": FeedbackFaultModel(p_collision_as_success=0.05),
    "fade": FeedbackFaultModel(p_success_as_idle=0.05),
    "erasure": FeedbackFaultModel(p_erasure=0.03),
    "miss-reset": FeedbackFaultModel(miss_rate=0.002),
    "miss-gated": FeedbackFaultModel(miss_rate=0.002, recovery="gated-rejoin"),
    "miss-drop": FeedbackFaultModel(miss_rate=0.002, recovery="drop-out"),
    "jam": FeedbackFaultModel(jam_rate=0.001),
    "combined": FeedbackFaultModel(
        p_erasure=0.02,
        p_collision_as_success=0.02,
        p_success_as_idle=0.02,
        miss_rate=0.001,
        jam_rate=0.0005,
        recovery="gated-rejoin",
    ),
}

PROTOCOLS = ["controlled", "fcfs", "lcfs", "random"]

#: Epoch-granularity registry names that legitimately differ between the
#: compiled engine and the reference loop whenever the idle fast-forward can
#: fire (noise-only fault models): elided idle examinations are
#: accounted under ``mac.fastforward.*`` instead of per-epoch records.
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
    if name == "controlled":
        return ControlPolicy.optimal(DEADLINE, LAM)
    return getattr(ControlPolicy, f"uncontrolled_{name}")(LAM)


def _simulator(protocol, *, backend, faults=None, seed=None, streams=None,
               metrics=None):
    return WindowMACSimulator(
        _policy(protocol),
        arrival_rate=LAM,
        transmission_slots=M,
        n_stations=25,
        deadline=DEADLINE,
        backend=backend,
        metrics=metrics,
        feedback_faults=faults,
        **({"streams": streams} if streams is not None else {"seed": seed}),
    )


def _run(protocol, *, horizon=HORIZON, warmup=WARMUP, **kwargs):
    return _simulator(protocol, **kwargs).run(horizon, warmup_slots=warmup)


def _assert_parity(protocol, faults, seed, horizon=HORIZON, warmup=WARMUP):
    ref_metrics, fast_metrics = MetricsRegistry(), MetricsRegistry()
    ref = _run(protocol, backend="reference", faults=faults, seed=seed,
               metrics=ref_metrics, horizon=horizon, warmup=warmup)
    fast = _run(protocol, backend="compiled", faults=faults, seed=seed,
                metrics=fast_metrics, horizon=horizon, warmup=warmup)
    assert fast == ref
    assert fast.faults == ref.faults
    ref_snap, fast_snap = ref_metrics.to_dict(), fast_metrics.to_dict()
    if faults.has_events:
        # Event clocks pin the kernel to the slot walk: full equality.
        assert fast_snap == ref_snap
    else:
        carve = EPOCH_GRANULARITY
        assert {k: v for k, v in fast_snap.items() if k not in carve} == {
            k: v for k, v in ref_snap.items() if k not in carve
        }
    return ref, fast


class TestFaultedParity:
    @pytest.mark.parametrize("family", sorted(FAULT_FAMILIES))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_fast_equals_reference(self, protocol, family, seed):
        ref, _ = _assert_parity(protocol, FAULT_FAMILIES[family], seed)
        assert ref.faults is not None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_random_streams_seeding(self, protocol):
        """The RandomStreams construction drives the same contract
        through the dedicated ``"faults"`` substream."""
        faults = FAULT_FAMILIES["combined"]
        ref = _run(protocol, backend="reference", faults=faults,
                   streams=RandomStreams(11))
        fast = _run(protocol, backend="compiled", faults=faults,
                    streams=RandomStreams(11))
        assert fast == ref
        assert fast.faults == ref.faults

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_null_model_equals_fault_free_run(self, protocol):
        """FeedbackFaultModel.none() exercises the faulted loops, whose
        physics must collapse to the fault-free engines bit-for-bit."""
        null_ref, null_fast = _assert_parity(
            protocol, FeedbackFaultModel.none(), seed=3
        )
        clean = _run(protocol, backend="compiled", seed=3)
        assert null_fast == clean
        assert null_ref == clean

    def test_zero_fault_dispatch_unchanged(self):
        """Without a feedback fault model no fault hook runs: the default
        dispatch reproduces the reference."""
        default = _run("controlled", backend="compiled", seed=9)
        ref = _run("controlled", backend="reference", seed=9)
        assert default == ref

    @settings(max_examples=12, deadline=None)
    @given(
        p_capture=st.floats(0.0, 0.15),
        p_fade=st.floats(0.0, 0.15),
        p_erasure=st.floats(0.0, 0.1),
        miss_rate=st.floats(0.0, 0.004),
        jam_rate=st.floats(0.0, 0.002),
        recovery=st.sampled_from(RECOVERY_POLICIES),
        seed=st.integers(0, 2**16),
    )
    def test_random_fault_schedules(
        self, p_capture, p_fade, p_erasure, miss_rate, jam_rate, recovery, seed
    ):
        faults = FeedbackFaultModel(
            p_collision_as_success=p_capture,
            p_success_as_idle=p_fade,
            p_erasure=p_erasure,
            miss_rate=miss_rate,
            jam_rate=jam_rate,
            recovery=recovery,
        )
        _assert_parity("controlled", faults, seed, horizon=1_000.0,
                       warmup=200.0)


class TestDispatch:
    def test_fault_model_and_feedback_faults_are_exclusive(self):
        with pytest.raises(ValueError, match="feedback_faults"):
            WindowMACSimulator(
                _policy("controlled"),
                arrival_rate=LAM,
                transmission_slots=M,
                deadline=DEADLINE,
                seed=1,
                fault_model=FaultModel.none(),
                feedback_faults=FeedbackFaultModel.none(),
            )

    def test_compiled_eligible_under_feedback_faults(self):
        simulator = WindowMACSimulator(
            _policy("controlled"),
            arrival_rate=LAM,
            transmission_slots=M,
            deadline=DEADLINE,
            seed=1,
            feedback_faults=FAULT_FAMILIES["noise"],
        )
        assert compiled_eligible(simulator)

    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("family", sorted(FAULT_FAMILIES))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_parity_is_not_vacuous(self, monkeypatch, protocol, family, guarded):
        """Every parity pair above compares two engines: the compiled
        engine takes every family and protocol, armed invariant guards
        included, without a downgrade to the reference loop."""
        from repro.resilience.invariants import INVARIANTS_ENV

        if guarded:
            monkeypatch.setenv(INVARIANTS_ENV, "1")
        else:
            monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        metrics = MetricsRegistry()
        simulator = _simulator(protocol, backend="compiled",
                               faults=FAULT_FAMILIES[family], seed=1,
                               metrics=metrics)
        assert compiled_eligible(simulator)
        simulator.run(500.0, warmup_slots=100.0)
        assert metrics.value("kernel.fallbacks", default=0) == 0

    def test_spec_rejects_both_fault_layers(self):
        from repro.experiments.sweep import MACRunSpec

        with pytest.raises(ValueError, match="feedback_faults"):
            MACRunSpec(
                policy=_policy("controlled"),
                arrival_rate=LAM,
                transmission_slots=M,
                horizon=HORIZON,
                warmup=WARMUP,
                deadline=DEADLINE,
                seed=1,
                fault_model=FaultModel.none(),
                feedback_faults=FeedbackFaultModel.none(),
            )

    def test_compiled_request_downgrades_and_counts(self):
        """A run the compiled engine cannot reproduce (a custom position
        rule) lands on the reference loop, bit-identical, and counts one
        downgrade; the same run with backend="reference" counts none."""
        from dataclasses import replace

        from repro.core.policy import OldestFirstPosition

        class Oldest(OldestFirstPosition):
            """Same placement, but not one of the canonical rule types."""

        policy = replace(_policy("controlled"), position=Oldest())

        def run(backend, metrics):
            simulator = WindowMACSimulator(
                policy, arrival_rate=LAM, transmission_slots=M,
                n_stations=25, deadline=DEADLINE, seed=5, backend=backend,
                metrics=metrics,
            )
            assert not compiled_eligible(simulator)
            return simulator.run(HORIZON, warmup_slots=WARMUP)

        downgraded_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
        downgraded = run("compiled", downgraded_metrics)
        ref = run("reference", ref_metrics)
        assert downgraded == ref
        assert downgraded_metrics.value("kernel.fallbacks") == 1
        assert ref_metrics.value("kernel.fallbacks", default=0) == 0

    def test_faulted_request_the_lane_cannot_run_downgrades_and_counts(self):
        """Feedback faults add no eligibility rule: a faulted run with a
        custom position rule falls back to the shared reference loop and
        counts one downgrade, as the clean run does."""
        from dataclasses import replace

        from repro.core.policy import OldestFirstPosition

        class Oldest(OldestFirstPosition):
            """Same placement, but not one of the canonical rule types."""

        policy = replace(_policy("controlled"), position=Oldest())
        faults = FAULT_FAMILIES["combined"]

        def run(backend, metrics):
            simulator = WindowMACSimulator(
                policy, arrival_rate=LAM, transmission_slots=M,
                n_stations=25, deadline=DEADLINE, seed=5, backend=backend,
                metrics=metrics, feedback_faults=faults,
            )
            assert not compiled_eligible(simulator)
            return simulator.run(HORIZON, warmup_slots=WARMUP)

        downgraded_metrics = MetricsRegistry()
        downgraded = run("compiled", downgraded_metrics)
        ref = run("reference", None)
        assert downgraded == ref
        assert downgraded.faults == ref.faults
        assert downgraded_metrics.value("kernel.fallbacks") == 1

    def test_default_scaled_station_run_counts_one_fallback(self):
        metrics = MetricsRegistry()
        simulator = _simulator("controlled", backend="compiled", seed=5,
                               metrics=metrics)
        simulator.registry.set_window_scale(3, 0.5)
        simulator.run(HORIZON, warmup_slots=WARMUP)
        assert metrics.value("kernel.fallbacks") == 1

    def test_default_feedback_faulted_run_counts_no_fallback(self):
        """The compiled engine is the default path for feedback faults,
        not a downgrade."""
        metrics = MetricsRegistry()
        faulted = _run("controlled", backend="compiled",
                       faults=FAULT_FAMILIES["noise"], seed=5, metrics=metrics)
        ref = _run("controlled", backend="reference",
                   faults=FAULT_FAMILIES["noise"], seed=5)
        assert faulted == ref
        assert metrics.value("kernel.fallbacks", default=0) == 0
