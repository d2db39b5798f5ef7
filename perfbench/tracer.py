"""Outside-in layer tracer for polysum.

The tracer wraps the public functions of each polysum module and rebinds the
wrappers in every ``polysum`` module namespace that holds the original, since
``cli`` and ``experiments`` import names with ``from .spectral import ...``
and ``v_r_field`` imports ``family_values_on_grid`` at call time.  Each call
records a span ``(name, start, end, parent)`` in memory; self time is the
span minus its child spans.  Leaving the ``with`` block restores every
original binding.  No file under ``src/`` is touched.

The counts in ``COMPUTED`` are derived from argument and result sizes, not
timed, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# metric -> {defining module: function names}; a function's self time is
# added to its metric.  ``cli.main`` is the root span of a traced job.
LAYERS = {
    "cli.self_s": {"cli": ["main"]},
    "variation.dp_s": {"variation": ["v_r_field", "v_r_exact"]},
    "variation.norms_s": {"variation": ["lp_norm", "weak_lp_norm", "lorentz_p1_norm"]},
    "variation.bruteforce_s": {"variation": ["v_r_bruteforce"]},
    "spectral.family_s": {"spectral": ["family_values_on_grid"]},
    "spectral.sample_grid_s": {"spectral": ["sample_grid"]},
    "spectral.partial_sum_s": {
        "spectral": ["partial_sum", "partial_sum_by_pieces", "family_at_point"]
    },
    "spectral.breakpoints_s": {"spectral": ["breakpoints"]},
    "geometry.enum_s": {
        "geometry": ["vertices_from_h", "h_from_vertices", "facets", "triangulate"]
    },
    "geometry.piece_s": {
        "geometry": ["piece_contains", "piece_assign", "cone_halfspaces", "rotation_to_e1"]
    },
    "geometry.gauge_s": {"geometry": ["gauge", "assign_rows", "contains"]},
    "generators.s": {
        "generators": ["random_polytope", "random_trig_polynomial", "random_piece_points"]
    },
    "experiments.self_s": {
        "experiments": ["run_verify", "run_ratio_experiment", "run_convergence"]
    },
    "fileio.read_s": {"fileio": ["load_polytope", "load_coefficients"]},
    "fileio.write_s": {
        "fileio": ["write_csv", "write_grid_csv", "write_field_csv", "write_norm_summary_csv"]
    },
}

COMPUTED = (
    "variation.dp_pairs",  # sum of L(L-1)/2 over the DP's value sequences
    "spectral.phase_evals",  # sum of N * M^d over family_values_on_grid calls
    "spectral.values_mb",  # M^d * L * 16 bytes of the largest values matrix
    "spectral.support_n",  # N, M^d and L of that call
    "spectral.grid_md",
    "spectral.shells_l",
)

COUNTS = (
    "variation.v_r_exact_calls",
    "variation.dp_pairs",
    "spectral.phase_evals",
    "spectral.partial_sum_calls",
    "spectral.values_mb",
    "spectral.support_n",
    "spectral.shells_l",
    "spectral.grid_md",
    "geometry.gauge_calls",
    "geometry.assign_rows_calls",
    "experiments.checks",
    "experiments.checks_failed",
    "fileio.bytes_written",
)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_call(counts: dict, name: str, args, kwargs, result) -> None:
    """Update the work counters for one finished call of ``name``."""
    if name == "v_r_exact":
        L = len(_arg(args, kwargs, 0, "values"))
        counts["variation.v_r_exact_calls"] += 1
        counts["variation.dp_pairs"] += L * (L - 1) // 2
    elif name == "family_values_on_grid":
        f, resolution = args[0], _arg(args, kwargs, 2, "resolution")
        grid_md = resolution ** f.dim
        shells = len(result[0])
        counts["spectral.phase_evals"] += len(f) * grid_md
        mb = grid_md * shells * 16 / 2**20
        if mb >= counts["spectral.values_mb"]:
            counts["spectral.values_mb"] = mb
            counts["spectral.support_n"] = len(f)
            counts["spectral.shells_l"] = shells
            counts["spectral.grid_md"] = grid_md
    elif name in ("partial_sum", "partial_sum_by_pieces", "family_at_point"):
        counts["spectral.partial_sum_calls"] += 1
    elif name == "gauge":
        counts["geometry.gauge_calls"] += 1
    elif name == "assign_rows":
        counts["geometry.assign_rows_calls"] += 1
    elif name == "run_verify":
        checks = result[1]
        counts["experiments.checks"] += len(checks)
        counts["experiments.checks_failed"] += sum(not c.passed for c in checks)
    elif name == "write_csv":
        counts["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


class LayerTracer:
    """Context manager that traces one or more polysum calls.

    ``spans`` holds ``(name, start, end, parent)`` tuples in start order, with
    ``parent`` the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            _count_call(counts, name, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def __enter__(self):
        originals = {}
        for groups in LAYERS.values():
            for module, names in groups.items():
                mod = sys.modules[f"polysum.{module}"]
                for name in names:
                    fn = getattr(mod, name)
                    originals[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "polysum" and not modname.startswith("polysum."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False


def leftover_wrappers() -> list[str]:
    """Names in polysum modules still bound to a tracer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "polysum" or modname.startswith("polysum."):
            found += [
                f"{modname}.{attr}"
                for attr, value in vars(mod).items()
                if hasattr(value, "__perfbench_original__")
            ]
    return found


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: LayerTracer, wall_s: float) -> dict[str, float]:
    """Per-layer self times, work counts and span coverage of one traced job.

    ``cli.self_s`` is the root span's self time: the part of ``wall_s`` that
    no other layer's span covers.
    """
    metric_of = {
        name: metric
        for metric, groups in LAYERS.items()
        for names in groups.values()
        for name in names
    }
    out = {metric: 0.0 for metric in LAYERS}
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        out[metric_of[name]] += own
    out.update({key: float(tracer.counts[key]) for key in COUNTS})
    out["trace.coverage"] = 1.0 - out["cli.self_s"] / wall_s
    return out


def write_spans(spans, path) -> None:
    """One JSON array per line: name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
