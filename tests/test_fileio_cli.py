import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polysum import cli, spectral
from polysum.fileio import (
    format_number,
    load_coefficients,
    load_polytope,
    pieces_as_dict,
    save_coefficients,
    save_polytope,
    write_csv,
    write_field_csv,
    write_grid_csv,
)
from polysum.geometry import gauge, hypercube, interval, triangulate
from polysum.generators import random_trig_polynomial
from polysum.variation import GridSamples


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_polytope(hypercube(2), path)
    return path


@pytest.fixture
def coeff_file(tmp_path):
    path = tmp_path / "coeffs.json"
    save_coefficients(random_trig_polynomial(2, 3, 0.7, seed=3), path)
    return path


# ---------------------------------------------------------------------------
# file formats


def test_polytope_roundtrip(tmp_path, square_file):
    P = load_polytope(square_file)
    assert P.dim == 2 and P.m == 4
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(100, 2))
    assert np.allclose(gauge(P, X), np.max(np.abs(X), axis=1), rtol=0, atol=0)


def test_polytope_accepts_unnormalized_h_rows(tmp_path):
    path = tmp_path / "p.json"
    data = {"dim": 2, "H": {"A": [[2, 0], [-2, 0], [0, 2], [0, -2]], "b": [4, 4, 4, 4]}}
    path.write_text(json.dumps(data))
    P = load_polytope(path)
    assert np.all(P.b == 1.0)
    assert gauge(P, [2.0, 0.0]) == pytest.approx(1.0)


def test_polytope_v_form(tmp_path):
    path = tmp_path / "v.json"
    data = {"dim": 2, "V": {"vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]]}}
    path.write_text(json.dumps(data))
    P = load_polytope(path)
    assert gauge(P, [1.0, 2.0]) == pytest.approx(3.0)


def test_polytope_malformed_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_polytope(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dim": 2}))
    with pytest.raises(ValueError):
        load_polytope(empty)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dim": 2, "H": {"A": [[1, 0]]}}))
    with pytest.raises(ValueError):
        load_polytope(missing)


def test_coefficient_roundtrip(tmp_path, coeff_file):
    f = random_trig_polynomial(2, 3, 0.7, seed=3)
    g = load_coefficients(coeff_file)
    assert dict(g) == dict(f)


def test_pieces_as_dict_structure():
    P = hypercube(2)
    payload = pieces_as_dict(P, triangulate(P))
    assert payload["dim"] == 2
    assert len(payload["pieces"]) == 4
    first = payload["pieces"][0]
    assert set(first) == {"facet_index", "a", "b", "generators", "cone_rows"}
    assert len(first["generators"]) == 2


def test_write_csv_and_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["hello"], ["a", "b"], [[1, 0.5], [2, 0.25]])
    text = path.read_text()
    assert text == "# hello\na,b\n1,0.5\n2,0.25\n"
    assert format_number(np.float64(0.1)) == "0.1"
    assert format_number(np.int64(3)) == "3"
    assert format_number(True) == "True"


def test_write_grid_and_field_csv(tmp_path):
    # integer samples are written as floats, and a -0.0 part keeps its sign
    path = tmp_path / "t.csv"
    write_grid_csv(GridSamples(2, 2, np.array([[1 + 2j, -0.5j], [3, 0.1]])), path, ["c"])
    assert path.read_text() == ("# c\nj1,j2,re,im\n0,0,1.0,2.0\n0,1,-0.0,-0.5\n"
                                "1,0,3.0,0.0\n1,1,0.1,0.0\n")
    write_field_csv(GridSamples(1, 3, np.array([0, 2, 7])), path)
    assert path.read_text() == "j1,value\n0,0.0\n1,2.0\n2,7.0\n"
    write_grid_csv(GridSamples(1, 2, np.array([4, 5])), path)
    assert path.read_text() == "j1,re,im\n0,4.0,0.0\n1,5.0,0.0\n"


# ---------------------------------------------------------------------------
# CLI


def test_cli_triangulate(square_file, tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert cli.main(["triangulate", str(square_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["pieces"]) == 4
    assert cli.main(["triangulate", str(square_file)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def test_cli_partial_sum_deterministic(square_file, coeff_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["partial-sum", "--polytope", str(square_file), "--coeffs", str(coeff_file),
            "--lam", "2.0", "--out"]
    assert cli.main(args + [str(out1)]) == 0
    assert cli.main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "j1,j2,re,im"
    assert len(lines) == 2 + 7 * 7  # resolution defaults to 2B+1 = 7


def test_cli_variation_field(square_file, coeff_file, tmp_path):
    out = tmp_path / "field.csv"
    assert cli.main([
        "variation-field", "--polytope", str(square_file), "--coeffs", str(coeff_file),
        "--r", "3.0", "--out", str(out),
    ]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "j1,j2,value"
    vals = np.array([float(r.split(",")[-1]) for r in rows[1:]])
    assert np.all(vals >= 0.0)


def test_cli_variation_field_norm_summary(square_file, coeff_file, tmp_path):
    out = tmp_path / "field.csv"
    norms = tmp_path / "norms.csv"
    assert cli.main([
        "variation-field", "--polytope", str(square_file), "--coeffs", str(coeff_file),
        "--r", "3.0", "--p", "2.0", "--out", str(out), "--norms-out", str(norms),
    ]) == 0
    rows = [ln.split(",") for ln in norms.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == ["quantity", "p", "r", "value"]
    table = {r[0]: float(r[3]) for r in rows[1:]}
    assert table["field_weak_lp"] <= table["field_lp"] + 1e-12
    assert table["ratio"] == pytest.approx(table["field_lp"] / table["f_lp"])


@pytest.mark.parametrize("command", ["partial-sum", "variation-field"])
def test_cli_missing_out_fails_before_computing(square_file, coeff_file, monkeypatch,
                                                capsys, command):
    def computed(*args):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "partial_sum", computed)
    monkeypatch.setattr(cli, "_field_and_samples", computed)
    assert cli.main([command, "--polytope", str(square_file), "--coeffs", str(coeff_file)]) == 2
    assert "pass --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv, handler", [
    (["partial-sum", "--polytope", "{square}", "--coeffs", "{coeffs}", "--out", "{out}"],
     (cli, "partial_sum")),
    (["converge", "--bandwidth", "100000", "--out", "{out}"],
     (cli.experiments, "run_convergence")),
], ids=["partial-sum", "converge"])
def test_cli_out_of_memory_exits_2(square_file, coeff_file, tmp_path, monkeypatch, capsys, argv,
                                   handler):
    # an impossible grid asks NumPy for hundreds of GiB; stand in for that
    # allocation rather than make it
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(*handler, out_of_memory)
    paths = {"square": square_file, "coeffs": coeff_file, "out": tmp_path / "out.csv"}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 149. GiB for an array\n"
    assert not paths["out"].exists()


_BAD_POLYTOPES = {
    "unbounded": [[1, 0], [0, 1], [1, 1]],
    "duplicate_row": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]],
    "redundant_row": [[1, 0], [-1, 0], [0, 1], [0, -1], [0.5, 0]],
    "unbounded_4d": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]],
}


def _one_term(n: str, re: str = "1.0") -> str:
    """A coefficient file holding the single frequency n (JSON text)."""
    return '{"dim": %d, "coeffs": [{"n": %s, "re": %s, "im": 0.0}]}' % (
        len(json.loads(n)), n, re)


def _row(name, argv, err=None, absent=("out",), **inputs):
    """argv entries name the square/coeffs fixtures, the outputs out/norms and
    the ``inputs`` (file name -> text) as {placeholders}."""
    return pytest.param(argv, inputs, err, absent, id=name)


_PS = ["partial-sum", "--polytope", "{square}", "--coeffs", "{coeffs}"]
_VF = ["variation-field", "--polytope", "{square}", "--coeffs", "{coeffs}"]
_OUT, _NORMS = ["--out", "{out}"], ["--norms-out", "{norms}"]
_BAD_POLYTOPE_ARGV = {
    "triangulate": ["triangulate", "{bad}"],
    "partial-sum": ["partial-sum", "--polytope", "{bad}", "--coeffs", "{bad_coeffs}"],
    "variation-field": ["variation-field", "--polytope", "{bad}", "--coeffs", "{bad_coeffs}"],
    "verify": ["verify", "--polytope", "{bad}"],
}
_EXIT_2 = [
    _row("missing_required_option", ["partial-sum", "--lam", "1.0"], "missing required option"),
    *(_row(f"non_finite_{v}", [*_VF[:4], "{bad}", *_OUT, *_NORMS], "non-finite coefficient",
           ("out", "norms"), bad=_one_term("[1, 0]", v))
      for v in ("NaN", "Infinity", "-Infinity")),
    *(_row(f"non_integer_{k}", [*_PS[:4], "{bad}", *_OUT], "is not a 64-bit integer",
           bad=_one_term(n))
      for k, n in (("float", "[1.7, 0]"), ("bool", "[true, 0]"),
                   ("beyond_int64", "[1180591620717411303424, 0]"))),
    _row("empty_grid", [*_PS, *_OUT, "--resolution", "0"], "resolution must be at least 1"),
    _row("r_nan", [*_VF, *_OUT, "--r", "nan"], "variation exponent"),
    _row("r_inf", [*_VF, *_OUT, "--r", "inf"], "variation exponent"),
    _row("p_nan", [*_VF, *_OUT, "--p", "nan", *_NORMS], "norm exponent", ("out", "norms")),
    _row("p_below_one", [*_VF, *_OUT, "--p", "0.5", *_NORMS], "norm exponent", ("out", "norms")),
    _row("p_below_one_without_norms", [*_VF, *_OUT, "--p", "0.5"], "norm exponent"),
    _row("lam_nan", [*_PS, *_OUT, "--lam", "nan"], "cutoff parameter must be nonnegative"),
    _row("verify_corrupt_polytope", ["verify", "--polytope", "{bad}", *_OUT], bad="{broken"),
    _row("ratio_r_two", ["ratio", "--r", "2.0", "--bandwidths", "2", "--ensemble", "1", *_OUT],
         "variation exponent must exceed 2"),
    *(_row(f"ratio_ladder_{k}", ["ratio", "--bandwidths", ladder, "--ensemble", "1", *_OUT],
           "bandwidth ladder must be nonempty") for k, ladder in (("empty", ""), ("comma", ","))),
    # config values of the wrong JSON type
    *(_row(f"config_{key}", [*argv, "--config", "{cfg}", *_OUT], f"bad value for {key}:",
           cfg=json.dumps({key: value}))
      for argv, key, value in ((["verify"], "seed", [1]), (["ratio"], "bandwidths", 5),
                               (_PS, "lam", None), (_VF, "r", [3]), (["converge"], "dim", None))),
    # config numbers once truncated, coerced or read from strings (first bad key named)
    *(_row(f"config_{name}", [*argv, "--config", "{cfg}", *_OUT], f"bad value for {key}:",
           cfg=json.dumps(config))
      for name, argv, key, config in (
          ("seed_float", ["verify"], "seed", {"seed": 42.9}),
          ("ladder_float", ["ratio"], "bandwidths", {"ensemble": 1.5, "bandwidths": [4.7]}),
          ("resolution_float", _PS, "resolution", {"resolution": 7.9}),
          ("bandwidth_bool", ["converge"], "bandwidth", {"bandwidth": True, "dim": 1.9}),
          ("r_bool", _VF, "r", {"r": True}),
          ("lam_bool", _PS, "lam", {"lam": False}),
          *((f"{key}_string", ["ratio", "--ensemble", "1"], key, {key: text})
            for key, text in (("seed", "7"), ("r", "3.5"), ("bandwidths", "2"))))),
    # config keys that name no config option of the subcommand: a typo or a flag-only path
    *(_row(f"config_key_{key}", ["ratio", "--ensemble", "1", "--config", "{cfg}", *_OUT],
           f"config cannot set {key}", cfg=json.dumps({key: value}))
      for key, value in (("sed", 7), ("out", "x.csv"))),
    _row("flag_seed_float", ["verify", "--seed", "1.5", *_OUT], "bad value for seed:"),
    _row("verify_negative_seed", ["verify", "--seed", "-1", *_OUT], "seed must be nonnegative"),
    _row("ratio_negative_bandwidth", ["ratio", "--bandwidths=-2", "--ensemble", "1", *_OUT],
         "bandwidth must be at least 1"),
    # file numbers once truncated or coerced: dim must be a JSON integer, entries JSON numbers
    *(_row(f"polytope_{k}", ["partial-sum", "--polytope", "{bad}", *_PS[3:], *_OUT], err,
           bad=json.dumps({"dim": dim, "H": {"A": [[a, 0], [-1, 0], [0, 1], [0, -1]],
                                             "b": [1] * 4}}))
      for k, dim, a, err in (("dim_float", 2.9, 1, "'dim' must be a JSON integer"),
                             ("dim_bool", True, 1, "'dim' must be a JSON integer"),
                             ("A_bool", 2, True, "'H.A' must be JSON numbers"))),
    *(_row(f"coeffs_{k}", [*_PS[:4], "{bad}", *_OUT], err, bad=text)
      for k, text, err in (
          ("dim_float", '{"dim": 2.0, "coeffs": []}', "'dim' must be a JSON integer"),
          ("re_bool", _one_term("[1, 0]", "true"), "'re' must be JSON numbers"),
          ("re_string", _one_term("[1, 0]", '"1.5"'), "'re' must be JSON numbers"),
          ("re_beyond_float", _one_term("[1, 0]", "1" + "0" * 400), "too large"))),
    # non-finite polytope data, a config that is no JSON object, an entry without "n"
    _row("polytope_A_nan", ["partial-sum", "--polytope", "{bad}", *_PS[3:], *_OUT],
         "non-finite constraint data",
         bad='{"dim": 2, "H": {"A": [[NaN, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}}'),
    _row("polytope_vertex_inf", ["partial-sum", "--polytope", "{bad}", *_PS[3:], *_OUT],
         "non-finite vertex data",
         bad='{"dim": 2, "V": {"vertices": [[Infinity, 0], [-1, 0], [0, 1], [0, -1]]}}'),
    _row("config_array", ["verify", "--config", "{cfg}", *_OUT],
         "config file must hold a JSON object", cfg="[1, 2]"),
    _row("coeffs_without_n", [*_PS[:4], "{bad}", *_OUT], "malformed coefficient file",
         bad='{"dim": 2, "coeffs": [{"re": 1.0, "im": 0.0}]}'),
]
# coefficients of the polytope's dimension, so only the polytope is at fault
_BAD_POLYTOPE_ROWS = [
    _row(f"{command}-{kind}", [*argv, *_OUT],
         bad=json.dumps({"dim": len(A[0]), "H": {"A": A, "b": [1] * len(A)}}),
         bad_coeffs=_one_term(json.dumps([1] + [0] * (len(A[0]) - 1))))
    for command, argv in _BAD_POLYTOPE_ARGV.items()
    for kind, A in sorted(_BAD_POLYTOPES.items())
]
assert len(_EXIT_2) + len(_BAD_POLYTOPE_ROWS) == 34 + 5 + 9 + 7 + 5 + 4


def _assert_exit_2(square_file, coeff_file, tmp_path, capsys, argv, inputs, err, absent):
    paths = {"square": square_file, "coeffs": coeff_file,
             "out": tmp_path / "out.csv", "norms": tmp_path / "norms.csv"}
    for name, text in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and (err or "") in stderr
    assert not any(paths[name].exists() for name in absent)


@pytest.mark.parametrize("argv,inputs,err,absent", _EXIT_2)
def test_cli_bad_input_exits_2(square_file, coeff_file, tmp_path, capsys, argv, inputs, err,
                               absent):
    _assert_exit_2(square_file, coeff_file, tmp_path, capsys, argv, inputs, err, absent)


@pytest.mark.parametrize("argv,inputs,err,absent", _BAD_POLYTOPE_ROWS)
def test_cli_rejects_bad_polytope_file_writing_nothing(square_file, coeff_file, tmp_path, capsys,
                                                       argv, inputs, err, absent):
    _assert_exit_2(square_file, coeff_file, tmp_path, capsys, argv, inputs, err, absent)


def test_cli_bad_p_fails_before_any_grid_work(square_file, coeff_file, tmp_path, monkeypatch,
                                             capsys):
    def built(*args):
        raise AssertionError("family built before checking --p")

    monkeypatch.setattr(spectral, "family_values_on_grid", built)
    _assert_exit_2(square_file, coeff_file, tmp_path, capsys, [*_VF, *_OUT, "--p", "0.5", *_NORMS],
                   {}, "norm exponent", ("out", "norms"))


@pytest.mark.parametrize("argv, calls", [
    ([*_VF, *_OUT, *_NORMS], 1),
    (["ratio", "--bandwidths", "2,3", "--ensemble", "2"], 4),
    (["converge", "--bandwidth", "3", *_OUT], 1),
], ids=["variation-field", "ratio", "converge"])
def test_each_grid_job_transforms_its_grid_once_per_family(square_file, coeff_file, tmp_path,
                                                          monkeypatch, capsys, argv, calls):
    # variation-field reads f from its family's last column, as ratio does per member
    kernel, seen = spectral._grid_sums, []

    def counted(*args):
        seen.append(1)
        return kernel(*args)

    monkeypatch.setattr(spectral, "_grid_sums", counted)
    paths = {"square": square_file, "coeffs": coeff_file,
             "out": tmp_path / "out.csv", "norms": tmp_path / "norms.csv"}
    assert cli.main([arg.format(**paths) for arg in argv]) == 0
    assert len(seen) == calls


# every numeric option and a literal it must reject: 1.5 for an integer, true for a float
_NUMERIC = {
    "partial-sum": (_PS, {"lam": True, "resolution": 1.5}),
    "variation-field": (_VF, {"r": True, "p": True, "resolution": 1.5}),
    "verify": (["verify"], {"seed": 1.5}),
    "ratio": (["ratio"], {"bandwidths": 1.5, "r": True, "p": True, "dim": 1.5,
                          "ensemble": 1.5, "density": True, "seed": 1.5}),
    "converge": (["converge"], {"bandwidth": 1.5, "dim": 1.5}),
}


@pytest.mark.parametrize("argv,key,bad", [
    pytest.param(argv, key, bad, id=f"{command}-{key}")
    for command, (argv, bad_values) in _NUMERIC.items() for key, bad in bad_values.items()])
def test_cli_flag_and_config_reject_the_same_bad_number(square_file, coeff_file, tmp_path,
                                                        capsys, argv, key, bad):
    cfg = {"cfg": json.dumps({key: bad})}
    for given in ([f"--{key}", json.dumps(bad)], ["--config", "{cfg}"]):
        _assert_exit_2(square_file, coeff_file, tmp_path, capsys, [*argv, *given, *_OUT], cfg,
                       f"bad value for {key}:", ("out",))


# each subcommand's positionals and option strings, as the README documents them
_SURFACE = {
    "triangulate": (["polytope"], {"--out"}),
    "partial-sum": ([], {"--polytope", "--coeffs", "--lam", "--resolution", "--config", "--out"}),
    "variation-field": ([], {"--polytope", "--coeffs", "--r", "--p", "--resolution", "--config",
                             "--out", "--norms-out"}),
    "verify": ([], {"--seed", "--polytope", "--config", "--out"}),
    "ratio": ([], {"--bandwidths", "--r", "--p", "--dim", "--ensemble", "--density", "--seed",
                   "--config", "--out"}),
    "converge": ([], {"--bandwidth", "--dim", "--config", "--out"}),
}


def _surface(parser):
    return ([a.dest for a in parser._actions if not a.option_strings],
            {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"})


def _built_parsers(monkeypatch):
    """Every ArgumentParser built from now on, in construction order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_cli_surface(capsys):
    # the parser that main parses each subcommand with, and build_parser's subparser
    for command in _SURFACE:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: polysum {command} [-h]")
    assert {command: _surface(cli._parser(command)) for command in _SURFACE} == _SURFACE
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {command: _surface(p) for command, p in sub.choices.items()} == _SURFACE
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio", "--bogus"])
    assert exc.value.code == 2
    assert "polysum ratio: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_cli_builds_each_subcommand_parser_once(monkeypatch, tmp_path):
    cli._parser.cache_clear()
    built = _built_parsers(monkeypatch)
    for _ in range(2):  # two jobs in one process
        assert cli.main(["ratio", "--bandwidths", "2", "--ensemble", "1",
                         "--out", str(tmp_path / "ratio.csv")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv,code", [(["-h"], 0), ([], 2), (["bogus"], 2)],
                         ids=["help", "no_command", "unknown_command"])
def test_cli_top_level(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    if code == 0:
        listing = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert listing.split(",") == list(cli.COMMANDS) and len(cli.COMMANDS) == 6


def test_cli_module_help_from_sys_argv():
    # ``main()`` with no argv reads sys.argv, which the in-process tests never do
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for argv, usage in ((["--help"], "usage: polysum [-h]"),
                        (["ratio", "--help"], "usage: polysum ratio [-h]")):
        done = subprocess.run([sys.executable, "-m", "polysum.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0 and done.stdout.startswith(usage), done.stderr


def test_cli_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--seed", "42", "--out", str(out)]) == 0
    text = out.read_text()
    assert "suite,check,passed,detail" in text
    assert "False" not in text.split("\n", 3)[3]
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout


@pytest.mark.parametrize("P", [interval(-1.0, 2.0), hypercube(1)], ids=["interval", "cube1"])
def test_cli_verify_one_dimensional_polytope_file(P, tmp_path):
    # a 1-d normal -1 has no determinant +1 rotation to e_1, so no rotation row
    path, out = tmp_path / "p1.json", tmp_path / "verify.csv"
    save_polytope(P, path)
    assert cli.main(["verify", "--polytope", str(path), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    names = [row[1] for row in rows]
    assert all(row[2] == "True" for row in rows)
    assert "step_constancy[file]" in names and "rotation[file]" not in names


def test_cli_verify_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert cli.main(["verify", "--seed", "7", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_ratio_with_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bandwidths": [2, 3], "ensemble": 2, "seed": 11, "r": 3.0}))
    out = tmp_path / "ratio.csv"
    assert cli.main(["ratio", "--config", str(cfg), "--ensemble", "3",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.startswith("member,bandwidth,r,p,")
    data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 6  # flag override: 3 members per bandwidth
    keys = [(int(row[1]), int(row[0])) for row in data]
    assert keys == sorted(keys)
    ratios = [float(row[6]) for row in data]
    assert all(np.isfinite(ratios))
    assert "median ratio" in capsys.readouterr().out


def test_cli_converge(tmp_path):
    out = tmp_path / "conv.csv"
    assert cli.main(["converge", "--bandwidth", "4", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    errs = [float(r[2]) for r in rows]
    mins = [float(r[3]) for r in rows]
    tails = [float(r[4]) for r in rows]
    assert errs[-1] == 0.0
    assert all(b <= a for a, b in zip(mins, mins[1:]))
    assert all(e <= t + 1e-10 for e, t in zip(errs, tails))


def test_cli_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main([])


def test_verify_csv_identical_across_blas_thread_counts(square_file, coeff_file, tmp_path):
    jobs = {
        "verify": (["verify", "--seed", "3"], ["out"]),
        "ratio": (["ratio", "--seed", "3", "--bandwidths", "4,8", "--ensemble", "2"], ["out"]),
        "field": (["variation-field", "--polytope", str(square_file), "--coeffs",
                   str(coeff_file), "--r", "3.0", "--p", "2.0"], ["out", "norms-out"]),
        "partial-sum": (["partial-sum", "--polytope", str(square_file), "--coeffs",
                         str(coeff_file), "--lam", "2.0", "--resolution", "40"], ["out"]),
    }
    # BLAS reads its thread count when NumPy loads: one cold process per count
    code = ("import json, sys\nfrom polysum import cli\n"
            "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
    outs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        paths = {name: [tmp_path / f"{name}-{flag}-{threads}.csv" for flag in files]
                 for name, (_, files) in jobs.items()}
        runs = [argv + [arg for flag, path in zip(files, paths[name])
                        for arg in (f"--{flag}", str(path))]
                for name, (argv, files) in jobs.items()]
        run = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        for name in jobs:
            outs[name, threads] = [path.read_bytes() for path in paths[name]]
    for name in jobs:
        assert outs[name, "1"] == outs[name, "4"], name
