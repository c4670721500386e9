"""The compiled backend: the default fast engine, jitted when possible.

``backend="compiled"`` (the default on
:class:`~repro.mac.simulator.WindowMACSimulator`, ``MACRunSpec`` and
``--backend``) drives a single :class:`~repro.mac.kernels.engine.FlatLane`
— the struct-of-arrays engine whose GEN epochs run on flat float columns
— and, when ``numba`` is importable, swaps the steady-state sprint walk
for an ``@njit`` twin operating on NumPy views of the same precomputed
tables.

**Fallback.**  ``numba`` is an optional extra (``pip install
repro[compiled]``).  When it is missing, or its compilation fails, the
backend logs a one-time notice and runs the identical walk in pure
Python over the same NumPy-precomputed tables — same operation
sequence, same results, just slower.  ``backend="compiled"`` therefore
never *requires* numba; it requires only eligibility.

**Bit parity.**  Both flavours are bound by the kernel contract:
field-for-field equality with the reference loop (seeded RANDOM
included) and equal metrics registries when instrumentation is on,
except for the epoch-granularity names the idle fast-forward elides
(see ``docs/observability.md``).  numba's default configuration does not
enable fastmath, so the jitted walk performs the same IEEE-754 double
operations in the same order as the interpreted one.

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

import logging
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

__all__ = [
    "compiled_eligible",
    "numba_available",
    "run_compiled",
]

logger = logging.getLogger(__name__)

_POSITION_CODES = {
    OldestFirstPosition: 0,
    NewestFirstPosition: 1,
    RandomPosition: 2,
}

# Lazy one-time probe state: the jitted sprint walk (or None when numba
# is unavailable) and whether the probe has run.
_JIT_WALK = None
_PROBED = False


def _probe():
    """Compile the jitted sprint walk once, or record its absence.

    Returns the jitted walk callable or ``None``.  The fallback notice
    is logged exactly once per process; parity is unaffected either way.
    """
    global _JIT_WALK, _PROBED
    if _PROBED:
        return _JIT_WALK
    _PROBED = True
    try:
        import numba
    except ImportError:
        logger.info(
            "numba is not installed; the compiled backend runs its "
            "pure-NumPy struct-of-arrays fallback (identical results; "
            "install repro[compiled] for the jitted sprint walk)"
        )
        return None
    try:
        @numba.njit(cache=False)
        def _walk(arr, cl, tl, iso, p, n, prev_now, last_fr,
                  warmup, sdl_f, m, kf, tot, wc, wt, wp):
            # Twin of engine.sprint_walk: same operation sequence
            # on the NumPy views of the same tables (numba's default
            # config keeps strict IEEE-754 — no fastmath).
            ot = 0
            lt = 0
            nm = 0
            idle_acc = 0.0
            tx_acc = 0.0
            while p < n:
                u = arr[p]
                if u > prev_now:
                    if not iso[p]:
                        break
                    c = cl[p]
                    idle_acc += c - prev_now
                    tv = tl[p]
                    if u >= warmup:
                        wc += 1
                        d = tv - wt
                        wt += d / wc
                        d = tv - wp
                        wp += d / wc
                        if tv > sdl_f:
                            lt += 1
                        else:
                            ot += 1
                        nm += 1
                    tx_acc += m
                    last_fr = c
                    prev_now = c + m
                    p += 1
                else:
                    if p + 1 < n and arr[p + 1] <= prev_now:
                        break
                    if prev_now >= tot:
                        break
                    pk = prev_now - kf
                    lo = last_fr if last_fr >= pk else pk
                    if u < lo:
                        break
                    tv = prev_now - u
                    if u >= warmup:
                        wc += 1
                        d = tv - wt
                        wt += d / wc
                        d = tv - wp
                        wp += d / wc
                        if tv > sdl_f:
                            lt += 1
                        else:
                            ot += 1
                        nm += 1
                    tx_acc += m
                    last_fr = prev_now
                    prev_now = prev_now + m
                    p += 1
            return (p, prev_now, last_fr, idle_acc, tx_acc,
                    wc, wt, wp, ot, lt, nm)

        _JIT_WALK = _walk
    except Exception as error:  # pragma: no cover - numba-version specific
        logger.warning(
            "numba is installed but jit compilation failed (%s); the "
            "compiled backend runs its pure-NumPy fallback", error
        )
        _JIT_WALK = None
    return _JIT_WALK


def numba_available() -> bool:
    """Whether the jitted sprint walk is compiled and usable."""
    return _probe() is not None


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
    arr_t: List[float] = [float(t) for t in gen_times]
    arr_s: List[int] = [int(s) for s in gen_stations]

    lane = FlatLane(
        policy,
        rng,
        sim.transmission_slots,
        sim.deadline,
        sim.loss_definition,
        warmup_slots,
        total_time,
        arr_t,
        arr_s,
        registry=sim.metrics,
        pos_code=_POSITION_CODES[type(policy.position)],
        jit_walk=_probe(),
        faults=faults,
        check=invariants_enabled(),
    )
    while lane.now < lane.total_time:
        if not lane.advance_round():
            break
    result = lane.finalize()
    sim.channel.now = lane.now
    sim.channel.stats = result.channel
    return result
