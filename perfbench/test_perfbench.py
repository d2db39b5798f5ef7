"""Tests of the benchmark itself: tracing, the output gate and the entry point.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import polysum  # noqa: E402
from polysum import cli, spectral, variation  # noqa: E402
from polysum.geometry import hypercube  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import FieldWorkload, RatioWorkload, VerifyWorkload  # noqa: E402

SMALL_FIELD = FieldWorkload("small-field", 2, 3, lambda seed: hypercube(2))


def _outputs(workload, workdir) -> dict:
    return {name: (workdir / name).read_bytes().decode() for name in workload.outputs}


def test_tracing_keeps_output_bytes_and_restores_every_binding(tmp_path):
    SMALL_FIELD.write_inputs(5, tmp_path)
    argv = SMALL_FIELD.argv(5, tmp_path)
    before = {
        (mod, name): getattr(mod, name)
        for mod in (polysum, cli, spectral, variation)
        for name in ("sample_grid", "family_values_on_grid", "v_r_exact", "lp_norm", "main")
        if hasattr(mod, name)
    }
    assert cli.main(argv) == 0
    plain = _outputs(SMALL_FIELD, tmp_path)

    with tracer.LayerTracer() as tr:
        assert cli.main(argv) == 0
    assert _outputs(SMALL_FIELD, tmp_path) == plain
    assert tracer.leftover_wrappers() == []
    assert all(getattr(mod, name) is fn for (mod, name), fn in before.items())

    names = {span[0] for span in tr.spans}
    # sample_grid is reached through cli's own import, family_values_on_grid
    # through v_r_field's call-time import
    assert {"main", "sample_grid", "family_values_on_grid", "v_r_field", "v_r_exact"} <= names
    assert tr.spans[0][0] == "main" and tr.spans[0][3] == -1
    assert tr.counts["variation.v_r_exact_calls"] == 7**2
    assert tr.counts["spectral.phase_evals"] == 7**2 * 7**2


def test_self_time_subtracts_direct_children_only():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 6.0, 0)]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_match_the_reported_per_layer_set(tmp_path):
    SMALL_FIELD.write_inputs(1, tmp_path)
    with tracer.LayerTracer() as tr:
        cli.main(SMALL_FIELD.argv(1, tmp_path))
    wall = tr.spans[0][2] - tr.spans[0][1]
    metrics = tracer.layer_metrics(tr, wall)
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in run.SPEC["per_layer"]}
    layer_total = sum(v for k, v in metrics.items() if k in tracer.LAYERS)
    assert layer_total == pytest.approx(wall, rel=1e-9)
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def _corrupt_value(text: str, column: str, match: str | None = None) -> str:
    """Scale one CSV value by 1 + 1e-9."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].strip().split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if match is None or cells[0] == match:
            cells[col] = repr(float(cells[col]) * (1 + 1e-9))
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError("no row to corrupt")


def test_field_gate_accepts_the_cli_and_flags_perturbed_values(tmp_path):
    SMALL_FIELD.write_inputs(3, tmp_path)
    assert cli.main(SMALL_FIELD.argv(3, tmp_path)) == 0
    texts = _outputs(SMALL_FIELD, tmp_path)
    assert SMALL_FIELD.gate(3, tmp_path, texts) == (1, 0, [])
    for name, column, match in (
        ("field.csv", "value", None),
        ("norms.csv", "value", "f_lp"),
    ):
        bad = dict(texts, **{name: _corrupt_value(texts[name], column, match)})
        ops, failed, notes = SMALL_FIELD.gate(3, tmp_path, bad)
        assert (ops, failed) == (1, 1) and notes


def test_ratio_gate_counts_each_bad_row(tmp_path):
    small = RatioWorkload("small-ratio", (2, 3), 3)
    assert cli.main(small.argv(4, tmp_path)) == 0
    texts = _outputs(small, tmp_path)
    assert small.gate(4, tmp_path, texts) == (6, 0, [])
    for column in ("f_lp", "vr_lp"):
        bad = {"ratio.csv": _corrupt_value(texts["ratio.csv"], column)}
        ops, failed, notes = small.gate(4, tmp_path, bad)
        assert ops == 6 and failed >= 1 and notes


def test_tail_percentile_leaves_ten_samples_above():
    assert worker._tail([0.1] * 10) is None
    tail = worker._tail([float(i) for i in range(1, 41)])
    assert tail["percentile"] == 75
    assert sum(x > tail["value"] for x in range(1, 41)) == 10


def test_verify_gate_counts_failed_checks():
    text = "# config\nsuite,check,passed,detail\ns,a,True,\ns,b,False,max=1\ns,c,True,\n"
    ops, failed, notes = VerifyWorkload().gate(1, None, {"verify.csv": text})
    assert (ops, failed) == (3, 1) and "s/b" in notes[0]


def test_run_fails_cleanly_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

