"""Smoke test: the five demos run to completion against the package in ``src``.

They run as copies in a temporary directory, one after another in a single
interpreter, so that demo 05 writes its ``ratio_table.csv`` there and not into
``demos/``. A demo that raises leaves its traceback in ``<demo>.err`` and the
next demo still runs, so each demo passes or fails as a test of its own.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    "01_polytopes_and_fans.py",
    "02_partial_sums_and_breakpoints.py",
    "03_variation_and_norms.py",
    "04_freezing_identity.py",
    "05_ratio_experiment.py",
]
OUTPUTS = {"05_ratio_experiment.py": ["ratio_table.csv"]}

RUNNER = """import runpy, sys, traceback
for demo in sys.argv[1:]:
    try:
        runpy.run_path(demo, run_name="__main__")
    except SystemExit as exit:
        if exit.code not in (None, 0):
            open(demo + ".err", "w").write(traceback.format_exc())
    except BaseException:
        open(demo + ".err", "w").write(traceback.format_exc())
"""


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    assert sorted(p.name for p in (ROOT / "demos").glob("[0-9]*.py")) == DEMOS
    tmp = tmp_path_factory.mktemp("demos")
    for demo in DEMOS:
        shutil.copy(ROOT / "demos" / demo, tmp)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", RUNNER, *DEMOS], cwd=tmp,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return tmp


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo_dir, demo):
    err = demo_dir / (demo + ".err")
    assert not err.exists(), err.read_text()
    for name in OUTPUTS.get(demo, []):
        assert (demo_dir / name).is_file(), name
