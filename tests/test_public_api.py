"""Every name a polysum module exports in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

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
