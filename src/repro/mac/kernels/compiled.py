"""The compiled backend: the default fast engine.

``backend="compiled"`` (the default on
:class:`~repro.mac.simulator.WindowMACSimulator` and ``MACRunSpec``, and
what every CLI command runs) drives a single
:class:`~repro.mac.kernels.engine.FlatLane`
— the struct-of-arrays engine whose GEN epochs run on one float interval
or on flat float columns, and whose steady-state sprint walks tables
precomputed with NumPy on the arrival axis.  ``backend="compiled"``
needs no optional dependency; it requires only eligibility.

**Bit parity.**  The lane is bound by the kernel contract:
field-for-field equality with the reference loop (seeded RANDOM
included) and equal metrics registries when instrumentation is on,
except for the epoch-granularity names the idle fast-forward elides
(see ``docs/observability.md``).

**Eligibility** (:func:`compiled_eligible`): no per-station replica
fault model, no §5 window scales, a canonical position rule (the flat
window selection replicates exactly the three shipped rules), a
standard loss definition, and no sub-slot discard deadline.  Feedback
faults and ``REPRO_CHECK_INVARIANTS`` runs are eligible: the lane
carries the fault hook and arms the guards itself.  Ineligible runs
fall back to the reference loop with a one-time logged notice and a
``kernel.fallbacks`` count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from ...core.policy import (
    NewestFirstPosition,
    OldestFirstPosition,
    RandomPosition,
)
from ...faults.feedback import FeedbackFaultState
from ...resilience.invariants import invariants_enabled
from .engine import FlatLane

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator import MACSimResult, WindowMACSimulator

__all__ = ["compiled_eligible", "run_compiled"]

_POSITION_CODES = {
    OldestFirstPosition: 0,
    NewestFirstPosition: 1,
    RandomPosition: 2,
}


def compiled_eligible(sim: "WindowMACSimulator") -> bool:
    """Whether the compiled backend reproduces this run bit-for-bit.

    See the module docstring; ineligible runs fall back to the
    reference loop.
    """
    policy = sim.policy
    return (
        sim.fault_model is None
        and not sim.registry.has_scaled_stations
        and sim.loss_definition in ("true", "paper")
        and (
            policy.discard_deadline is None
            or policy.discard_deadline > 1e-6
        )
        and type(policy.position) in _POSITION_CODES
    )


def run_compiled(
    sim: "WindowMACSimulator", total_time: float, warmup_slots: float
) -> "MACSimResult":
    """Run the compiled backend; same contract as ``_run_shared``.

    Draw order is identical to the reference loop: arrivals from
    ``sim._arrival_rng`` first (the workload substream under
    ``RandomStreams``, ``sim.rng`` itself on plain seeds), then policy
    draws (random placement / random split) from ``sim.rng`` as epochs
    execute — the simulator's own generator objects, so seeded *and*
    stream-based runs stay bit-identical.

    Under a feedback fault model the lane gets the run's
    :class:`~repro.faults.feedback.FeedbackFaultState`, drawing from
    ``sim._fault_rng`` in the reference loop's order, and the result
    carries its telemetry.  The ``REPRO_CHECK_INVARIANTS`` flag is read
    once here.

    Per-message records are not materialised: a compiled run leaves
    ``sim.scored_messages`` unset (reading it raises
    ``AttributeError``); run with ``backend="reference"`` for them.
    ``sim.scored_waits`` is set, as on every engine.
    """
    policy = sim.policy
    rng = sim.rng
    faults = (
        FeedbackFaultState(sim.feedback_faults, sim.registry.n_stations, sim._fault_rng)
        if sim.feedback_faults is not None
        else None
    )

    # -- arrival generation: identical draws to _generate_arrivals ----------
    arrival_rng = sim._arrival_rng
    if sim.workload is not None:
        gen_times, gen_stations = sim.workload.generate(
            total_time, sim.registry.n_stations, arrival_rng
        )
    else:
        n = arrival_rng.poisson(sim.arrival_rate * total_time)
        gen_times = np.sort(arrival_rng.uniform(0.0, total_time, size=n))
        gen_stations = arrival_rng.integers(0, sim.registry.n_stations, size=n)
    arr_t: List[float] = np.asarray(gen_times, dtype=np.float64).tolist()
    arr_s: List[int] = np.asarray(gen_stations, dtype=np.int64).tolist()

    lane = FlatLane(
        policy,
        rng,
        sim.transmission_slots,
        sim.loss_definition,
        warmup_slots,
        total_time,
        arr_t,
        arr_s,
        registry=sim.metrics,
        pos_code=_POSITION_CODES[type(policy.position)],
        faults=faults,
        check=invariants_enabled(),
    )
    while lane.now < lane.total_time:
        if not lane.advance_round():
            break
    result = lane.finalize(sim.deadline)
    sim.scored_waits = lane.scored
    sim.channel.now = lane.now
    sim.channel.stats = result.channel
    return result
