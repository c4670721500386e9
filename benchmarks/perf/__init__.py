"""Performance benchmark suite for the simulation kernel and sweep engine.

Run ``python -m benchmarks.perf`` for the full measurement (the one whose
artifacts are checked in), or ``python -m benchmarks.perf --quick`` for
the CI smoke variant.  Artifacts land in ``benchmarks/results/``:

* ``BENCH_mac.json`` — machine-readable numbers (compiled engine vs
  reference loop, clean and under feedback noise, the ``stations_1e5``
  scaling arm, the Figure-7 LCFS baseline, end-to-end sweep wall-clock)
  appended as one schema-2 history entry per invocation, for tracking
  across PRs;
* ``perf_kernel.txt`` — the same numbers as a human table.
"""
