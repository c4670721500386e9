"""Golden regression: group-sequential stopping decisions, bit for bit.

``sequential_decisions.json`` pins ``decide_wave(...).to_dict()`` for
both spending shapes (``obf``, ``pocock``) and all three interval
methods (``wilson``, ``jeffreys``, ``t``) over fixed looks at five arms:
homogeneous, moderately and heavily clustered (design effect above 1),
zero-loss, and one whose quarantine holes leave fewer units than
``min_replications``.  Across them every method reaches
``below-min-replications``, ``continue``, ``ci-target`` and
``max-replications``.

A resumed sweep recomputes each journaled decision and, under
``--verify-replay``, fails on any difference, so the normal, t and beta
quantiles behind a look's level and half-width must not move by one
ulp.  Floats are therefore stored as ``float.hex`` and compared exactly.
"""

import math

import pytest

from repro.stats import SequentialConfig, decide_wave

from .checks import assert_matches_golden_exactly, load_golden

GOLDEN = load_golden("sequential_decisions.json")
RULES = tuple(GOLDEN["decisions"])
ARMS = tuple(GOLDEN["looks"])


def _decide(rule: str, look: dict):
    spending, method = rule.split("/")
    config = SequentialConfig(spending=spending, method=method, **GOLDEN["config"])
    return decide_wave(
        config,
        look["wave"],
        [float.fromhex(f) for f in look["fractions"]],
        tuple(look["counts"]),
        previous_n=look["previous_n"],
    )


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("rule", RULES)
def test_decisions_match_golden_exactly(rule, arm):
    looks = GOLDEN["looks"][arm]
    pinned = GOLDEN["decisions"][rule][arm]
    assert len(looks) == len(pinned)
    for index, (look, golden) in enumerate(zip(looks, pinned)):
        assert_matches_golden_exactly(
            _decide(rule, look).to_dict(), golden, label=f"{rule}.{arm}[{index}]"
        )


@pytest.mark.parametrize("rule", RULES)
def test_golden_covers_every_stopping_reason(rule):
    decisions = GOLDEN["decisions"][rule]
    reasons = {d["reason"] for arm in decisions.values() for d in arm}
    assert reasons == {
        "below-min-replications", "continue", "ci-target", "max-replications",
    }
    if not rule.endswith("/t"):
        deff = max(float.fromhex(d["design_effect"]) for d in decisions["clustered"])
        assert deff > 1.0


def test_comparison_rejects_a_one_ulp_perturbation():
    """The golden check must fail on the smallest possible drift."""
    rule, arm = "obf/wilson", "moderate"
    actual = _decide(rule, GOLDEN["looks"][arm][0]).to_dict()
    actual["look_level"] = math.nextafter(actual["look_level"], 1.0)
    with pytest.raises(AssertionError, match="look_level"):
        assert_matches_golden_exactly(
            actual, GOLDEN["decisions"][rule][arm][0], label=f"{rule}.{arm}[0]"
        )
