"""Golden-value comparison helper with explicit tolerances.

The goldens are the repo's own deterministic outputs, pinned so a
numerical regression (a changed recursion, a reordered reduction, a
"harmless" refactor of eq. 4.7) fails loudly with the offending index
and magnitude.  Tolerances are *explicit at every call site* — a golden
test with an implicit tolerance is just a slower ``==``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

GOLDEN_DIR = Path(__file__).resolve().parent


def load_golden(name: str) -> dict:
    """Read one pinned-value file from ``tests/golden/``."""
    with open(GOLDEN_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def assert_matches_golden(
    actual: Sequence[float],
    golden: Sequence[float],
    *,
    rel_tol: float,
    abs_tol: float,
    label: str,
) -> None:
    """Element-wise comparison against pinned values.

    Fails with the first offending index, both values, and the observed
    error so a regression report reads without rerunning locally.
    """
    assert len(actual) == len(golden), (
        f"{label}: length {len(actual)} != golden length {len(golden)}"
    )
    for index, (a, g) in enumerate(zip(actual, golden)):
        if not math.isclose(a, g, rel_tol=rel_tol, abs_tol=abs_tol):
            raise AssertionError(
                f"{label}[{index}]: {a!r} != golden {g!r} "
                f"(abs err {abs(a - g):.3e}, "
                f"rel_tol={rel_tol:g}, abs_tol={abs_tol:g})"
            )


def assert_matches_golden_exactly(
    actual: Mapping[str, object], golden: Mapping[str, object], *, label: str
) -> None:
    """Field-by-field exact comparison of one pinned record.

    The golden stores every float as ``float.hex``, so a one-ulp drift
    fails, and ``nan``/``inf`` compare by their spelling.  Other fields
    (ints, bools, strings) must be equal.
    """
    assert set(actual) == set(golden), (
        f"{label}: fields {sorted(actual)} != golden fields {sorted(golden)}"
    )
    for key, pinned in golden.items():
        value = actual[key]
        if isinstance(value, float):
            value = float.hex(value)
        if value != pinned:
            raise AssertionError(f"{label}.{key}: {value!r} != golden {pinned!r}")
