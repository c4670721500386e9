"""Three-way parity: reference loop, compiled engine, and metrics counters.

The observability layer's hard rule is that instrumentation never
changes physics, and its counters never disagree with the result they
describe.  For every protocol this test runs the same seeded cell four
ways — {reference loop, compiled engine} x {with, without metrics} — and
asserts that

* all four runs return bit-identical ``MACSimResult``;
* the ``mac.slots.*`` counters equal the ``ChannelStats`` fields
  exactly (no float drift: they are copied, not re-derived), and hence
  reproduce ``ChannelStats.breakdown()`` exactly;
* the message-outcome counters equal the result's message ledger.

Epoch-granularity histograms (``mac.epochs``, ``mac.backlog.size``)
legitimately differ between the two paths — the compiled engine's idle
fast-forward elides empty epochs and accounts them under
``mac.fastforward.*`` instead — so they are exactly the names this
test does *not* compare across paths.
"""

import pytest

from repro.core import ControlPolicy
from repro.mac import WindowMACSimulator
from repro.obs.metrics import MetricsRegistry

M = 25
HORIZON = 9_000.0
WARMUP = 1_500.0
LAM = 0.5 / M
DEADLINE = 3.0 * M

SLOT_COUNTERS = {
    "mac.slots.idle": "idle_slots",
    "mac.slots.collision": "collision_slots",
    "mac.slots.transmission": "transmission_slots",
    "mac.slots.wait": "wait_slots",
}
MESSAGE_COUNTERS = {
    "mac.messages.arrivals": "arrivals",
    "mac.messages.on_time": "delivered_on_time",
    "mac.messages.late": "delivered_late",
    "mac.messages.discarded": "discarded",
    "mac.messages.unresolved": "unresolved",
    "mac.messages.lost_to_faults": "lost_to_faults",
}


def _policy(name: str) -> ControlPolicy:
    if name == "controlled":
        return ControlPolicy.optimal(DEADLINE, LAM)
    return getattr(ControlPolicy, f"uncontrolled_{name}")(LAM)


def _run(protocol: str, *, compiled: bool, metrics=None):
    simulator = WindowMACSimulator(
        _policy(protocol),
        arrival_rate=LAM,
        transmission_slots=M,
        n_stations=25,
        deadline=DEADLINE,
        seed=7,
        backend="compiled" if compiled else "reference",
        metrics=metrics,
    )
    return simulator.run(HORIZON, warmup_slots=WARMUP)


@pytest.mark.parametrize("protocol", ["controlled", "fcfs", "lcfs", "random"])
def test_result_identical_with_and_without_metrics(protocol):
    runs = {
        (compiled, instrumented): _run(
            protocol,
            compiled=compiled,
            metrics=MetricsRegistry() if instrumented else None,
        )
        for compiled in (False, True)
        for instrumented in (False, True)
    }
    baseline = runs[(False, False)]
    for key, result in runs.items():
        assert result == baseline, f"run {key} diverged from the reference"


@pytest.mark.parametrize("protocol", ["controlled", "fcfs", "lcfs", "random"])
@pytest.mark.parametrize("compiled", [False, True])
def test_metrics_counters_match_channel_stats_exactly(protocol, compiled):
    metrics = MetricsRegistry()
    result = _run(protocol, compiled=compiled, metrics=metrics)
    stats = result.channel

    for name, field in SLOT_COUNTERS.items():
        assert metrics.value(name) == getattr(stats, field), name
    for name, field in MESSAGE_COUNTERS.items():
        assert metrics.value(name) == getattr(result, field), name
    assert metrics.value("mac.runs") == 1

    # Re-deriving breakdown() from the counters reproduces it exactly.
    total = sum(metrics.value(name) for name in SLOT_COUNTERS)
    rebuilt = {
        key: metrics.value(f"mac.slots.{key}") / total
        for key in ("idle", "collision", "transmission", "wait")
    }
    assert rebuilt == stats.breakdown()


@pytest.mark.parametrize("protocol", ["controlled", "fcfs"])
def test_fast_path_accounts_elided_epochs(protocol):
    """Fast-forward spans explain the epoch-count gap between the paths."""
    slow_metrics, fast_metrics = MetricsRegistry(), MetricsRegistry()
    _run(protocol, compiled=False, metrics=slow_metrics)
    _run(protocol, compiled=True, metrics=fast_metrics)

    # Slot counters agree across paths even though epoch histograms don't.
    for name in SLOT_COUNTERS:
        assert fast_metrics.value(name) == slow_metrics.value(name), name

    # At this idle-heavy cell the compiled engine must have skipped something,
    # and every skipped slot is accounted under mac.fastforward.*.
    assert fast_metrics.value("mac.fastforward.spans") > 0
    assert fast_metrics.value("mac.fastforward.slots") > 0
    assert fast_metrics.value("mac.epochs") < slow_metrics.value("mac.epochs")
    assert slow_metrics.value("mac.fastforward.spans", default=0) == 0
