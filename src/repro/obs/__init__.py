"""Observability: metrics, tracing, and run reports.

The reproduction's performance and resilience layers (fast kernels,
parallel sweeps, supervised execution) made runs fast and durable but
opaque: the only signals were a final ``slots/s`` line and a journal on
disk.  This package adds the missing instrumentation, with zero
third-party dependencies and zero measurable cost when disabled:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms in a mergeable :class:`MetricsRegistry`.  Merging is
  associative and commutative (property-tested), so per-worker
  registries from a parallel sweep combine into the same aggregate for
  any worker count.
* :mod:`repro.obs.tracing` — a lightweight span API
  (``with trace.span("figure7.cell", K=75):``) writing JSON-lines
  trace events in ``chrome://tracing`` format.
* :mod:`repro.obs.report` — machine-readable ``report.json`` files
  (metrics snapshot + environment + seed + timings) and a differ that
  checks two runs of the same seed for metric drift.

Wiring: the simulator, its kernels, and the sweep executors accept
an optional :class:`MetricsRegistry`; ``None`` (the default) and a
disabled registry are both no-ops on the hot path — the perf bench
holds the disabled overhead to ≤3%.  The memo cache reports hit/miss
through the *installed* global registry (see :func:`install`) because
its call sites are too deep to thread a parameter through.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "global_registry",
        "install",
    ),
    ".report": (
        "REPORT_SCHEMA", "build_report", "diff_reports", "load_report",
        "render_report", "write_report",
    ),
    ".tracing": ("JsonlTracer", "NullTracer", "install_tracer", "span"),
})

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "install",
    "global_registry",
    "JsonlTracer",
    "NullTracer",
    "install_tracer",
    "span",
    "REPORT_SCHEMA",
    "build_report",
    "write_report",
    "load_report",
    "render_report",
    "diff_reports",
]
