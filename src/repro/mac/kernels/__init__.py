"""The fast MAC simulation kernels.

Three engines execute the window protocol:

* the **reference loop** (:meth:`repro.mac.simulator.WindowMACSimulator._run_shared`,
  with its feedback-faulted and replicated variants) — the oracle;
* the **compiled engine** (:mod:`repro.mac.kernels.compiled` over
  :mod:`repro.mac.kernels.engine`) — the default fast engine;
* the **faulted kernel** (:mod:`repro.mac.kernels.faults`) — feedback
  fault runs at kernel speed.

``primitives``
    Policy traits (:class:`~repro.mac.kernels.primitives.KernelTraits`),
    the idle fast-forward shortcut, wait statistics, instrumentation
    buffers and fate codes shared by the two fast kernels.
``engine``
    :class:`~repro.mac.kernels.engine.FlatLane`: one run as a VEC/GEN
    state machine — closed-form epochs and the steady-state sprint from
    an empty unresolved set, flat struct-of-arrays epochs (bit-identical
    to :mod:`repro.core.timeline`) otherwise.
``compiled``
    Backend selection: ``numba``-compiled sprint walk when numba is
    importable, the pure-NumPy fallback otherwise, plus the eligibility
    gate and the one-time fallback notice.
``faults``
    The feedback-faulted epoch executor and its run loop.

Every quantity these produce is bound by the same bit-parity contract:
field-for-field equality with the reference loop, seeded RANDOM
included, metrics registries equal when enabled (up to the
epoch-granularity names the idle fast-forward elides).
"""
