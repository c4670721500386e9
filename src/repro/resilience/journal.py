"""The run journal: an atomic, content-addressed sweep checkpoint.

A journal is a directory::

    <path>/
        manifest.json        # {"schema": ..., "package": ...}
        records/<fp>.pkl     # one completed result per task fingerprint

Each record is written with the :mod:`repro.cache` discipline — temp
file in the same directory, then :func:`os.replace` — so a record either
exists completely or not at all.  A worker SIGKILL, an OOM, or a Ctrl-C
in the parent can never leave a half-written record: the journal a crash
leaves behind is always valid, and re-invoking the sweep with the same
journal replays exactly the cells that finished.

Records are keyed by :func:`~repro.resilience.fingerprint.fingerprint`
of the task spec, so replay is content-addressed: a grid can be
reordered, extended, or narrowed between invocations and still hit
every record that still describes one of its cells.  Corrupt or
unreadable records are treated as misses (the cell simply re-runs);
a manifest with a different schema is an *error* — stale layouts must
never silently satisfy new runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalSchemaError",
    "JournalMismatchError",
    "RunJournal",
    "value_digest",
]

#: Journal layout version; bump when the record format changes.
JOURNAL_SCHEMA = "repro-journal-v1"


class JournalSchemaError(RuntimeError):
    """The directory holds a journal written under a different schema."""


class JournalMismatchError(RuntimeError):
    """A replay-verification run disagreed with the journaled result.

    Raised only under ``verify_replay``: the sweep is *supposed* to be
    deterministic, so a mismatch means either non-deterministic task
    code or a journal from a different code version — both worth a loud
    failure rather than a silently mixed grid.
    """


def value_digest(value: Any, length: int = 12) -> str:
    """Short content digest of a journaled (or journalable) value.

    Error messages quote it for *both* sides of a replay mismatch so a
    reader can see at a glance whether two divergent records carry the
    same payload — without dumping the payloads themselves into a log
    line.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()[:length]


def _package_version() -> str:
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - circular-import safety net
        return "unknown"


class RunJournal:
    """Checkpoint store for one (or many) sweep invocations.

    Parameters
    ----------
    path:
        Journal directory; created (with a manifest) if absent.

    Raises
    ------
    JournalSchemaError:
        ``path`` contains a manifest written under a different schema —
        delete the directory (or pick another) rather than mixing
        layouts.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._records = self.path / "records"
        manifest = self.path / "manifest.json"
        if manifest.exists():
            try:
                with open(manifest, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise JournalSchemaError(
                    f"unreadable journal manifest at {manifest}: {error}"
                ) from error
            schema = meta.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise JournalSchemaError(
                    f"journal manifest {manifest} declares schema "
                    f"{schema!r}, this package writes {JOURNAL_SCHEMA!r}; "
                    "delete the journal or point --checkpoint elsewhere"
                )
        else:
            self._records.mkdir(parents=True, exist_ok=True)
            self._atomic_write(
                manifest,
                json.dumps(
                    {"schema": JOURNAL_SCHEMA, "package": _package_version()},
                    indent=2,
                ).encode(),
            )
        self._records.mkdir(parents=True, exist_ok=True)

    # -- introspection -----------------------------------------------------------

    @staticmethod
    def exists(path) -> bool:
        """Whether ``path`` already holds a journal (manifest present)."""
        return (Path(path) / "manifest.json").exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._records.glob("*.pkl"))

    def __contains__(self, fp: str) -> bool:
        return (self._records / f"{fp}.pkl").exists()

    def fingerprints(self) -> Iterator[str]:
        """Fingerprints of every recorded result."""
        for entry in sorted(self._records.glob("*.pkl")):
            yield entry.stem

    def record_path(self, fp: str) -> Path:
        """On-disk path of a fingerprint's record (existing or not).

        Error messages name it so "which journal file disagreed?" has
        an immediate answer.
        """
        return self._records / f"{fp}.pkl"

    # -- record I/O ---------------------------------------------------------------

    def _atomic_write(self, target: Path, payload: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def record(self, fp: str, value: Any) -> None:
        """Checkpoint one completed result (atomic, idempotent)."""
        self._atomic_write(
            self._records / f"{fp}.pkl",
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def get(self, fp: str) -> Tuple[bool, Optional[Any]]:
        """``(hit, value)`` for a fingerprint; corrupt records are misses."""
        path = self._records / f"{fp}.pkl"
        try:
            with open(path, "rb") as handle:
                return True, pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return False, None

    def clear(self) -> int:
        """Delete every record (the manifest stays); returns the count."""
        removed = 0
        for entry in self._records.glob("*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
