"""Tests for the JSON-lines chrome://tracing span writer."""

from __future__ import annotations

import json

from repro.obs.tracing import (
    JsonlTracer,
    NullTracer,
    current_tracer,
    install_tracer,
    load_trace,
    span,
)


def test_jsonl_tracer_writes_complete_events(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(path)
    with tracer.span("outer", rho=0.5):
        with tracer.span("inner"):
            pass
    tracer.close()

    events = load_trace(path)
    assert [e["name"] for e in events] == ["inner", "outer"]
    outer = events[1]
    assert outer["ph"] == "X"
    assert outer["args"] == {"rho": 0.5}
    assert outer["dur"] >= events[0]["dur"] >= 0
    # every line is standalone JSON (chrome trace event format)
    for line in path.read_text().splitlines():
        parsed = json.loads(line)
        assert {"name", "ph", "ts", "pid", "tid"} <= set(parsed)


def test_nesting_timestamps_are_ordered(tmp_path):
    tracer = JsonlTracer(tmp_path / "t.jsonl")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.close()
    inner, outer = load_trace(tmp_path / "t.jsonl")
    assert outer["ts"] <= inner["ts"]
    assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]


def test_install_tracer_swaps_and_restores(tmp_path):
    assert isinstance(current_tracer(), NullTracer)
    tracer = JsonlTracer(tmp_path / "t.jsonl")
    previous = install_tracer(tracer)
    try:
        assert current_tracer() is tracer
        with span("via-module-helper"):
            pass
    finally:
        install_tracer(previous)
        tracer.close()
    assert isinstance(current_tracer(), NullTracer)
    events = load_trace(tmp_path / "t.jsonl")
    assert [e["name"] for e in events] == ["via-module-helper"]


def test_module_span_is_noop_without_tracer():
    # must not raise and must not write anywhere
    with span("nobody-listening", detail=1):
        pass


def test_events_counter(tmp_path):
    tracer = JsonlTracer(tmp_path / "t.jsonl")
    assert tracer.events == 0
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert tracer.events == 2
    tracer.close()


def test_tracer_accepts_open_file(tmp_path):
    path = tmp_path / "t.jsonl"
    with open(path, "w") as sink:
        tracer = JsonlTracer(sink)
        with tracer.span("x"):
            pass
    assert [e["name"] for e in load_trace(path)] == ["x"]
