"""The fast MAC simulation kernel.

Two engines execute the window protocol:

* the **reference loop** (:meth:`repro.mac.simulator.WindowMACSimulator._run_shared`,
  which takes an optional feedback fault hook, and the replicated
  variant for per-station faults) — the oracle;
* the **compiled engine** (:mod:`repro.mac.kernels.compiled` over
  :mod:`repro.mac.kernels.engine`) — the one fast engine, feedback
  faults and invariant guards included.

``primitives``
    Policy traits (:class:`~repro.mac.kernels.primitives.KernelTraits`),
    wait statistics and instrumentation buffers shared with the
    reference loops.
``engine``
    :class:`~repro.mac.kernels.engine.FlatLane`: one run as a VEC/GEN
    state machine — closed-form epochs and the steady-state sprint from
    an empty unresolved set, flat struct-of-arrays epochs (bit-identical
    to :mod:`repro.core.timeline`) otherwise: on one interval under
    Theorem 1's oldest-first, older-part-first policy elements, on
    interval lists for every other policy, feedback faults as branches
    of the list epoch.
``compiled``
    The backend entry point: the eligibility gate and
    :func:`~repro.mac.kernels.compiled.run_compiled`, which builds one
    lane per run.

Every quantity these produce is bound by the same bit-parity contract:
field-for-field equality with the reference loop, seeded RANDOM
included, metrics registries equal when enabled (up to the
epoch-granularity names the idle fast-forward elides).
"""
