"""Golden regression: per-station replica-fault runs, every field, bit for bit.

``replica_faults.json`` pins eight runs of the replicated reference loop
(``_run_replicated`` over :mod:`repro.faults.replicas`), each built the
way ``repro robustness`` builds its cells —
``run_spec(point_spec(RobustnessConfig(horizon=4000), ...))``:

* the controlled protocol under symmetric per-station feedback noise at
  error rates 0.005 and 0.05, seeds 1 and 2;
* FCFS at 0.02, seed 1 — no element 4, so the resync horizon falls back
  to 16·M;
* RANDOM at 0.02, seed 1 — policy-RNG copies at every cohort split and
  the RNG state in the merge fingerprint;
* the station-failure soak (crash 5e-4 / downtime 300, deaf 3e-4 / 80
  slots), seed 1;
* ``FaultModel.none()``, seed 1 — one cohort throughout.

A record holds every :class:`~repro.mac.MACSimResult` field (the
channel's slot accounts flattened) and every
:class:`~repro.faults.FaultTelemetry` field, in the form ``record()``
of the feedback-fault golden gives them.  Floats are stored as
``float.hex`` and compared exactly.  The zero-fault parity tests only
hold the null model equal to the shared loop; this file pins the
diverging runs themselves.
"""

import pytest

from repro.experiments.robustness import RobustnessConfig, point_spec, protocol_arms
from repro.experiments.sweep import run_spec
from repro.faults import FaultModel

from .checks import assert_matches_golden_exactly, load_golden
from .test_golden_feedback_faults import record

GOLDEN = load_golden("replica_faults.json")
CONFIG = RobustnessConfig(horizon=4_000.0)
POLICIES = dict(protocol_arms(CONFIG))

#: The failure fields a model is pinned by (the golden's ``models``).
MODEL_FIELDS = (
    "p_idle_as_collision",
    "p_collision_as_idle",
    "p_success_as_collision",
    "p_collision_as_success",
    "crash_rate",
    "mean_downtime",
    "deaf_rate",
    "mean_deaf_slots",
)

MODELS = {
    "noise-0.005": FaultModel.feedback_noise(0.005),
    "noise-0.02": FaultModel.feedback_noise(0.02),
    "noise-0.05": FaultModel.feedback_noise(0.05),
    "soak": FaultModel(
        crash_rate=5e-4, mean_downtime=300.0, deaf_rate=3e-4, mean_deaf_slots=80.0
    ),
    "none": FaultModel.none(),
}

#: ``protocol/model/seed`` keys of the eight pinned runs.
RUNS = (
    "controlled/noise-0.005/1",
    "controlled/noise-0.005/2",
    "controlled/noise-0.05/1",
    "controlled/noise-0.05/2",
    "fcfs/noise-0.02/1",
    "random/noise-0.02/1",
    "controlled/soak/1",
    "controlled/none/1",
)


def run_key(key: str):
    """Run the replica simulation a golden key names."""
    protocol, model, seed = key.split("/")
    spec = point_spec(
        CONFIG, MODELS[model], int(seed), policy=POLICIES[protocol]
    )
    return run_spec(spec)


def test_golden_covers_the_pinned_runs():
    assert tuple(GOLDEN["runs"]) == RUNS
    assert GOLDEN["config"] == {
        "horizon": CONFIG.horizon,
        "warmup": CONFIG.horizon * CONFIG.warmup_fraction,
        "message_length": CONFIG.message_length,
        "n_stations": CONFIG.n_stations,
        "deadline": float.hex(CONFIG.deadline),
    }
    # The models are pinned by value too: editing one here must show up
    # as a golden mismatch, not silently re-key the runs.
    assert GOLDEN["models"] == {
        name: {field: getattr(model, field) for field in MODEL_FIELDS}
        for name, model in MODELS.items()
    }


def test_golden_exercises_the_replica_machinery():
    """Each noise cell splits, merges and resyncs; the soak crashes and
    goes deaf; the null model never leaves one cohort."""
    runs = GOLDEN["runs"]
    for key, pinned in runs.items():
        if "/noise-" in key:
            assert pinned["faults.cohort_splits"] > 0, key
            assert pinned["faults.cohort_merges"] > 0, key
            assert pinned["faults.resyncs"] > 0, key
    assert runs["controlled/noise-0.05/2"]["faults.phantom_deliveries"] > 0
    soak = runs["controlled/soak/1"]
    assert soak["faults.crashes"] > 0 and soak["faults.deaf_events"] > 0
    null = runs["controlled/none/1"]
    assert null["faults.peak_cohorts"] == 1
    assert null["faults.corrupted_observations"] == 0
    assert null["lost_to_faults"] == 0


@pytest.mark.parametrize("key", RUNS)
def test_replica_run_matches_golden_exactly(key):
    assert_matches_golden_exactly(
        record(run_key(key)), GOLDEN["runs"][key], label=key
    )
