"""Crash tolerance for the experiment pipeline.

PR 2 routed every experiment grid through one executor; this package
makes that executor survive the faults a long sweep actually meets —
OOM-killed workers, hung tasks, poison parameter cells, a Ctrl-C three
hours in — the same way the protocol under measurement survives
*channel* faults: degrade gracefully, never corrupt, always resumable.

Four cooperating pieces:

* :mod:`~repro.resilience.fingerprint` — a content-addressed identity
  for any picklable task spec (stable across processes and runs, unlike
  ``repr`` of objects with default identity reprs);
* :mod:`~repro.resilience.journal` — :class:`RunJournal`, an atomic
  on-disk checkpoint keyed by fingerprint: results are recorded as they
  complete (temp-file + rename, the :mod:`repro.cache` discipline), so
  an interrupted sweep leaves a valid journal and a re-invocation
  replays the completed cells and runs only the remainder;
* :mod:`~repro.resilience.supervisor` — :class:`SupervisedExecutor`,
  per-task futures under a watchdog: wall-clock timeouts, bounded retry
  with exponential backoff on fresh worker processes,
  ``BrokenProcessPool`` recovery that respawns the pool and resubmits
  only the unfinished specs, and a quarantine list for poison tasks
  (reported, not fatal — the sweep degrades to a partial grid with
  explicit holes);
* :mod:`~repro.resilience.invariants` — runtime guards for the
  simulator hot loop (message conservation, monotone clock, window
  non-negativity) behind ``REPRO_CHECK_INVARIANTS``, so corrupted
  partial state is caught at the source rather than in a merged table.

See ``docs/resilience.md`` for the journal format, resume semantics and
the quarantine policy.
"""

from .._lazy import lazy_exports

# ``fingerprint`` is also a submodule's name, so it is bound eagerly.
from .fingerprint import FingerprintError, fingerprint

__getattr__, __dir__ = lazy_exports(__name__, {
    ".invariants": ("InvariantViolation", "invariants_enabled", "require"),
    ".journal": (
        "JOURNAL_SCHEMA", "JournalMismatchError", "JournalSchemaError",
        "RunJournal", "value_digest",
    ),
    ".supervisor": (
        "QuarantineRecord", "ResilienceOptions", "SupervisedExecutor",
        "SweepOutcome", "backoff_delay",
    ),
})

__all__ = [
    "fingerprint",
    "FingerprintError",
    "RunJournal",
    "JOURNAL_SCHEMA",
    "JournalMismatchError",
    "JournalSchemaError",
    "SupervisedExecutor",
    "SweepOutcome",
    "QuarantineRecord",
    "ResilienceOptions",
    "backoff_delay",
    "value_digest",
    "invariants_enabled",
    "require",
    "InvariantViolation",
]
