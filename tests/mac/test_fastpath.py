"""Golden-seed regression: the default fast path is bit-identical to the slow path.

These tests are the enforcement arm of the default engine's contract:
for every run the compiled engine takes (``backend="compiled"``, the
default) it must reproduce the reference loop's `MACSimResult` field for
field — same RNG draw order, same float arithmetic — across all four
Figure-7 protocols, with and without a zero-rate fault model, under
bursty workloads, and at loads where the idle fast-forward fires
constantly (ρ′ = 0.25) or almost never (ρ′ = 0.8).  Runs the compiled
engine declines (§5 priority stations, replica fault models) must be
recognised as such, and ``backend="reference"`` must force the slow path.
"""

import pytest

from repro.core import ControlPolicy
from repro.des.rng import RandomStreams
from repro.faults import FaultModel, FeedbackFaultModel
from repro.mac import WindowMACSimulator
from repro.mac.kernels import compiled
from repro.workloads import MMPPWorkload

M = 25
HORIZON = 12_000.0
WARMUP = 2_000.0


def _policy(name: str, lam: float, deadline: float) -> ControlPolicy:
    if name == "controlled":
        return ControlPolicy.optimal(deadline, lam)
    return getattr(ControlPolicy, f"uncontrolled_{name}")(lam)


def _run(policy, lam, *, backend="compiled", seed=None, streams=None,
         fault_model=None, feedback_faults=None, workload=None):
    simulator = WindowMACSimulator(
        policy,
        arrival_rate=lam,
        transmission_slots=M,
        n_stations=25,
        deadline=3.0 * M,
        backend=backend,
        workload=workload,
        fault_model=fault_model,
        feedback_faults=feedback_faults,
        **({"streams": streams} if streams is not None else {"seed": seed}),
    )
    result = simulator.run(HORIZON, warmup_slots=WARMUP)
    return simulator, result


@pytest.mark.parametrize("protocol", ["controlled", "fcfs", "lcfs", "random"])
@pytest.mark.parametrize("rho_prime", [0.25, 0.8])
@pytest.mark.parametrize("seed", [1, 42])
def test_fast_equals_slow_golden_seed(protocol, rho_prime, seed):
    lam = rho_prime / M
    policy = _policy(protocol, lam, 3.0 * M)
    _, slow = _run(policy, lam, backend="reference", seed=seed)
    _, fast = _run(policy, lam, seed=seed)
    assert fast == slow


@pytest.mark.parametrize("protocol", ["controlled", "random"])
def test_fast_equals_zero_rate_fault_model(protocol):
    """The replica path under FaultModel.none() is the shared path, which
    in turn is the compiled engine: all three agree bit-for-bit."""
    lam = 0.5 / M
    policy = _policy(protocol, lam, 3.0 * M)
    _, with_faults = _run(
        policy, lam, streams=RandomStreams(5), fault_model=FaultModel.none(),
    )
    _, fast = _run(policy, lam, streams=RandomStreams(5))
    _, slow = _run(policy, lam, backend="reference", streams=RandomStreams(5))
    assert fast == with_faults
    assert fast == slow


def test_fast_equals_slow_under_bursty_workload():
    lam = 0.5 / M
    policy = _policy("controlled", lam, 3.0 * M)

    def workload():
        return MMPPWorkload(
            low_rate=0.005, high_rate=0.04, mean_low=1200.0, mean_high=400.0
        )

    _, slow = _run(policy, lam, backend="reference", seed=9, workload=workload())
    _, fast = _run(policy, lam, seed=9, workload=workload())
    assert fast == slow


def test_scored_messages_identical():
    # No compiled run keeps per-message records, faulted or not; the
    # shared reference loop keeps them on every run, and under a null
    # feedback model its fault hook collapses to the fault-free run.
    # Its records must match the fault-free run's one for one.
    lam = 0.5 / M
    policy = _policy("controlled", lam, 3.0 * M)
    sim_slow, _ = _run(policy, lam, backend="reference", seed=3)
    sim_fast, _ = _run(
        policy, lam, backend="reference", seed=3,
        feedback_faults=FeedbackFaultModel.none(),
    )
    assert len(sim_fast.scored_messages) == len(sim_slow.scored_messages)
    for a, b in zip(sim_slow.scored_messages, sim_fast.scored_messages):
        assert (a.arrival, a.station, a.fate, a.tx_start, a.process_start) == (
            b.arrival, b.station, b.fate, b.tx_start, b.process_start
        )


def test_escape_hatch_forces_reference_loop(monkeypatch):
    def refuse(*_args):
        raise AssertionError("backend='reference' reached run_compiled")

    monkeypatch.setattr(compiled, "run_compiled", refuse)
    lam = 0.25 / M
    policy = _policy("controlled", lam, 3.0 * M)
    simulator = WindowMACSimulator(
        policy, arrival_rate=lam, transmission_slots=M, n_stations=25,
        deadline=3.0 * M, seed=1, backend="reference",
    )
    assert simulator.backend == "reference"
    assert compiled.compiled_eligible(simulator)  # eligible, but opted out
    simulator.run(4_000.0, warmup_slots=500.0)


def test_fast_path_declines_priority_stations():
    lam = 0.25 / M
    policy = _policy("controlled", lam, 3.0 * M)
    simulator = WindowMACSimulator(
        policy, arrival_rate=lam, transmission_slots=M, n_stations=25,
        deadline=3.0 * M, seed=1,
    )
    simulator.registry.set_window_scale(3, 0.5)
    assert not compiled.compiled_eligible(simulator)
    simulator.registry.set_window_scale(3, 1.0)
    assert compiled.compiled_eligible(simulator)


def test_fast_path_declines_fault_models():
    lam = 0.25 / M
    policy = _policy("controlled", lam, 3.0 * M)
    simulator = WindowMACSimulator(
        policy, arrival_rate=lam, transmission_slots=M, n_stations=25,
        deadline=3.0 * M, streams=RandomStreams(1),
        fault_model=FaultModel.feedback_noise(0.01),
    )
    assert not compiled.compiled_eligible(simulator)
