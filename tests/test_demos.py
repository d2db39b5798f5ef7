"""Smoke test: demos 01-04 run to completion against the package in ``src``.

Demo 05 is left out: it takes several seconds, writes ``demos/ratio_table.csv``,
and the acceptance gate already runs ``run_ratio_experiment``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_polytopes_and_fans.py",
    "02_partial_sums_and_breakpoints.py",
    "03_variation_and_norms.py",
    "04_freezing_identity.py",
])
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
