"""The package surface: every name a polysum module exports in ``__all__``
exists, so star imports work, every function the benchmark's tracer wraps
still exists, and polysum runs without loading SciPy."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import polysum


def test_all_entries_resolve():
    names = ["polysum"] + [f"polysum.{m.name}" for m in pkgutil.iter_modules(polysum.__path__)]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        if absent:
            missing[name] = absent
    assert len(names) > 5 and missing == {}


def test_every_traced_name_resolves():
    # a traced run looks each LAYERS name up with getattr, so a removed one breaks it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for layer in tracer.LAYERS.values()
               for module, names in layer.items() for name in names
               if not callable(getattr(importlib.import_module(f"polysum.{module}"), name, None))]
    assert len(tracer.LAYERS) > 10 and missing == []


def test_polysum_does_not_import_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import polysum, polysum.cli\n"
        "from polysum.geometry import VPolytope, h_from_vertices\n"
        "polysum.run_verify(1)\n"
        "h_from_vertices(VPolytope(3, np.vstack([np.eye(3), -np.eye(3)])))\n"
        "print('scipy' in {m.split('.')[0] for m in sys.modules})\n"
    )
    src = str(Path(polysum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "False"
