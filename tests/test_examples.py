"""Every shipped example runs clean.

Each ``examples/*.py`` script runs in a fresh interpreter, the way a
reader runs it, and must exit 0.  ``protocol_comparison.py`` also runs
with ``--simulate``, which drives the grouped Figure-7 sweep;
``priority_stations.py`` reads the reference loop's per-message fates.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
RUNS = [(name, ()) for name in EXAMPLES] + [
    ("protocol_comparison.py", ("--simulate",))
]


def test_examples_are_found():
    assert "protocol_comparison.py" in EXAMPLES
    assert "priority_stations.py" in EXAMPLES


@pytest.mark.parametrize(
    "script, args", RUNS, ids=[" ".join((name, *args)) for name, args in RUNS]
)
def test_example_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
