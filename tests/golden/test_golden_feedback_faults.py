"""Golden regression: feedback-faulted runs, every field, bit for bit.

``feedback_faults.json`` pins one record per (fault family, protocol,
seed) over the nine common-mode families of
``tests/mac/test_faulted_parity.py`` and the four Figure-7 protocols at
seeds 1 and 42 (horizon 10,000 slots after a 1,000-slot warm-up, 25
stations), plus one ``RandomStreams(11)`` run of the ``combined`` family
on the random protocol, whose placement and split draws come from the
``"mac-simulator"`` substream while the faults draw from ``"faults"``.

A record holds every :class:`~repro.mac.MACSimResult` field (the
channel's slot accounts flattened) and every
:class:`~repro.faults.FaultTelemetry` field.  Floats are stored as
``float.hex`` and compared exactly.  The parity suite only holds the
default path equal to the reference loop, so a change that moved both
in lockstep would pass it; this file pins the values themselves, on
both backends, against the same record.
"""

import dataclasses
import math

import pytest

from repro.des.rng import RandomStreams
from repro.faults import FeedbackFaultModel

from ..mac.test_faulted_parity import DEADLINE, FAULT_FAMILIES, PROTOCOLS
from ..mac.test_faulted_parity import _run as _parity_run
from .checks import assert_matches_golden_exactly, load_golden

GOLDEN = load_golden("feedback_faults.json")
CONFIG = GOLDEN["config"]
SEEDS = (1, 42)
STREAMS_KEY = "streams11/combined/random"
KEYS = tuple(GOLDEN["runs"])


def record(result) -> dict:
    """Flatten a faulted run into the golden's field -> value form."""
    flat = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name == "channel":
            for slot_field in dataclasses.fields(value):
                flat[f"channel.{slot_field.name}"] = getattr(value, slot_field.name)
        elif field.name == "faults":
            for fault_field in dataclasses.fields(value):
                flat[f"faults.{fault_field.name}"] = getattr(value, fault_field.name)
        else:
            flat[field.name] = value
    return {
        key: float.hex(value) if isinstance(value, float) else value
        for key, value in flat.items()
    }


def run_key(key: str, backend: str):
    """Run the simulation a golden key names on ``backend``."""
    if key == STREAMS_KEY:
        return _parity_run(
            "random",
            backend=backend,
            faults=FAULT_FAMILIES["combined"],
            streams=RandomStreams(11),
            horizon=CONFIG["horizon"],
            warmup=CONFIG["warmup"],
        )
    family, protocol, seed = key.split("/")
    return _parity_run(
        protocol,
        backend=backend,
        faults=FAULT_FAMILIES[family],
        seed=int(seed),
        horizon=CONFIG["horizon"],
        warmup=CONFIG["warmup"],
    )


def test_golden_covers_the_parity_grid():
    expected = {
        f"{family}/{protocol}/{seed}"
        for family in FAULT_FAMILIES
        for protocol in PROTOCOLS
        for seed in SEEDS
    }
    assert set(KEYS) == expected | {STREAMS_KEY}
    assert CONFIG["deadline"] == float.hex(DEADLINE)
    # The families are pinned by value too: editing one in the parity
    # suite must show up here, not silently re-key the golden.
    assert GOLDEN["families"] == {
        name: dataclasses.asdict(model) for name, model in FAULT_FAMILIES.items()
    }


@pytest.mark.parametrize("backend", ["reference", "compiled"])
@pytest.mark.parametrize("key", KEYS)
def test_faulted_run_matches_golden_exactly(key, backend):
    result = run_key(key, backend)
    assert_matches_golden_exactly(
        record(result), GOLDEN["runs"][key], label=f"{key}[{backend}]"
    )


def test_null_model_record_has_zero_telemetry():
    """Sanity of the flattening: a null model reports no fault activity."""
    flat = record(
        _parity_run(
            "controlled",
            backend="reference",
            faults=FeedbackFaultModel.none(),
            seed=1,
            horizon=1_000.0,
            warmup=100.0,
        )
    )
    assert flat["lost_to_faults"] == 0
    assert flat["faults.corrupted_observations"] == 0
    assert flat["faults.diverged_slots"] == float.hex(0.0)


def test_comparison_rejects_perturbed_records():
    """The golden check must fail on a one-ulp float or a one-count drift."""
    key = "combined/controlled/1"
    pinned = GOLDEN["runs"][key]
    drifted = dict(pinned)
    wait = float.fromhex(pinned["mean_true_wait"])
    drifted["mean_true_wait"] = float.hex(math.nextafter(wait, math.inf))
    with pytest.raises(AssertionError, match="mean_true_wait"):
        assert_matches_golden_exactly(drifted, pinned, label=key)
    drifted = dict(pinned)
    drifted["faults.resyncs"] = pinned["faults.resyncs"] + 1
    with pytest.raises(AssertionError, match="faults.resyncs"):
        assert_matches_golden_exactly(drifted, pinned, label=key)
