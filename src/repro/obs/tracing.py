"""Span tracing: where did the wall-clock go?

A *span* is a named, timed region of the run — one Figure-7 cell, one
policy iteration, one journal replay.  Spans nest naturally (the
context manager protocol handles that), carry small key/value args,
and are written as they close, one JSON object per line, in the Trace
Event Format that ``chrome://tracing`` / Perfetto understand:

    {"name": "figure7.sweep", "ph": "X", "ts": 12034.5, "dur": 8800.1,
     "pid": 4242, "tid": 1, "args": {"cells": 27}}

The file is JSON-lines for crash tolerance (a killed run keeps every
closed span); to load it in a chrome-family viewer, wrap the lines in
``[...]`` with comma separators — ``repro.obs.tracing.load_trace``
and ``docs/observability.md`` show the one-liner.

The default tracer is a shared no-op; ``install_tracer`` swaps in a
:class:`JsonlTracer` (the CLI's ``--trace FILE`` does this).  The
module-level :func:`span` helper always consults the *installed*
tracer, so library code can annotate phases unconditionally at the
cost of one dict lookup when tracing is off — spans are placed at
phase granularity (a cell, a sweep, an iteration), never per slot.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, List, Optional, Union

__all__ = [
    "NullTracer",
    "JsonlTracer",
    "install_tracer",
    "current_tracer",
    "span",
    "load_trace",
]


class _NullSpan:
    """Context manager that does nothing (shared instance)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span is the shared no-op."""

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


class _Span:
    """One open span; written to the tracer when it exits."""

    __slots__ = ("tracer", "name", "args", "start")

    def __init__(self, tracer: "JsonlTracer", name: str, args: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.args = args
        self.start = time.perf_counter()

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._write_complete(self.name, self.start, self.args)
        return False


class JsonlTracer:
    """Writes chrome-trace complete events ("ph": "X") as JSON lines.

    Parameters
    ----------
    sink:
        A path (opened for writing, truncating) or an open text file.
    """

    def __init__(self, sink: Union[str, "os.PathLike", IO[str]]):
        if hasattr(sink, "write"):
            self._file: IO[str] = sink  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        self._lock = threading.Lock()
        self._pid = os.getpid()
        #: perf_counter origin, so ts starts near 0 like chrome expects.
        self._epoch = time.perf_counter()
        self.events = 0

    def span(self, name: str, **args: Any) -> _Span:
        """Open a span; it is recorded when the ``with`` block exits."""
        return _Span(self, name, args)

    def _write_complete(self, name: str, start: float, args: Dict[str, Any]) -> None:
        end = time.perf_counter()
        self._emit(
            {
                "name": name,
                "ph": "X",
                "ts": (start - self._epoch) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self._pid,
                "tid": threading.get_ident() % 2**31,
                "args": args,
            }
        )

    def _emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, default=str)
        with self._lock:
            self._file.write(line + "\n")
            self.events += 1

    def close(self) -> None:
        """Flush and (when owned) close the underlying file."""
        with self._lock:
            self._file.flush()
            if self._owns_file:
                self._file.close()


_TRACER: Union[NullTracer, JsonlTracer] = NullTracer()


def install_tracer(
    tracer: Optional[Union[NullTracer, JsonlTracer]],
) -> Union[NullTracer, JsonlTracer]:
    """Install the process tracer; returns the previous one.

    ``None`` restores the shared no-op tracer.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NullTracer()
    return previous


def current_tracer() -> Union[NullTracer, JsonlTracer]:
    """The installed tracer (a no-op unless one was installed)."""
    return _TRACER


def span(name: str, **args: Any):
    """Open a span on the installed tracer.

    The library's standard annotation point::

        with trace.span("figure7.cell", K=deadline, protocol=name):
            ...
    """
    return _TRACER.span(name, **args)


def load_trace(path) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace file back into a list of event dicts.

    (To view in ``chrome://tracing``, dump this list as one JSON array:
    ``json.dump(load_trace(p), open("trace.json", "w"))``.)
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
