"""Command line entry point.

Subcommands: triangulate, partial-sum, variation-field, verify, ratio,
converge.  ``COMMANDS`` declares each one once: its help text, its handler
and its options.  An option is a row ``(name, converter, default)``, with
``REQUIRED`` as the default of an option that must be given; a name without
``--`` is a positional.  ``main`` builds the parser of the invoked
subcommand only, once per process; ``build_parser`` builds every subcommand's
parser, which only -h, a missing or an unknown subcommand needs.  Either adds
each row with no argparse ``type``, so a flag arrives as a string, and
``_options`` takes each option from its flag, else from the JSON config file
(--config), else its default.  A flag and a config entry go through the
same converter, and a value the converter cannot take exits 2 as ``bad value
for <key>``; a config value keeps its JSON type, so only a path takes a
string there.  A row whose converter is ``None`` is a path that a config file
cannot set (--out, --norms-out, triangulate's polytope) and reaches the
handler as given; a subcommand with any other row also takes --config, and a
config key that names none of those rows exits 2 before any work.
Every CSV output embeds the resolved configuration as '#' comment lines, and
a fixed seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import experiments, fileio
from .geometry import triangulate
from .spectral import partial_sum, sample_grid, grid_points
from .variation import (
    GridSamples,
    lorentz_p1_norm,
    lp_norm,
    v_r_field,
    weak_lp_norm,
)

import numpy as np

REQUIRED = object()


def _int(val) -> int:
    """A flag string or a JSON integer; a bool or a float such as 7.9 is
    rejected, as for frequency entries."""
    if type(val) not in (int, str):
        raise TypeError("expected an integer")
    return int(val)


def _float(val) -> float:
    """A flag string or a JSON number, but not a bool."""
    if type(val) not in (int, float, str):
        raise TypeError("expected a number")
    return float(val)


def _path(val) -> str:
    if not isinstance(val, str):
        raise TypeError("expected a path string")
    return val


def _ints(val) -> tuple[int, ...]:
    """A bandwidth ladder: a comma-separated string or a list of JSON integers."""
    if isinstance(val, str):
        return tuple(int(tok) for tok in val.split(",") if tok)
    if type(val) is not list or any(type(b) is not int for b in val):
        raise TypeError("expected a list of integers")
    return tuple(val)


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_triangulate(polytope, out) -> int:
    P = fileio.load_polytope(polytope)
    pieces = triangulate(P)
    payload = fileio.pieces_as_dict(P, pieces)
    _emit(json.dumps(payload, indent=1) + "\n", out)
    return 0


def _grid_job(job: str, polytope, coeffs, resolution, out):
    """Polytope, coefficients and grid resolution of a grid job, which fails
    before any work when --out is missing."""
    P = fileio.load_polytope(polytope)
    f = fileio.load_coefficients(coeffs)
    if out is None:
        raise ValueError(f"{job} writes CSV; pass --out")
    M = experiments.default_resolution(f.bandwidth) if resolution is None else resolution
    return P, f, M


def _cmd_partial_sum(polytope, coeffs, lam, resolution, out) -> int:
    P, f, M = _grid_job("partial-sum", polytope, coeffs, resolution, out)
    if M < 1:
        raise ValueError("resolution must be at least 1")
    pts = grid_points(f.dim, M)
    vals = partial_sum(f, P, lam, pts)
    samples = GridSamples(f.dim, M, np.asarray(vals).reshape((M,) * f.dim))
    resolved = {"lam": lam, "resolution": M, "dim": f.dim}
    fileio.write_grid_csv(samples, out, ["config " + json.dumps(resolved, sort_keys=True)])
    return 0


def _cmd_variation_field(polytope, coeffs, r, p, resolution, out, norms_out) -> int:
    P, f, M = _grid_job("variation-field", polytope, coeffs, resolution, out)
    field = v_r_field(f, P, M, r)
    resolved = {"r": r, "p": p, "resolution": M, "dim": f.dim}
    comments = ["config " + json.dumps(resolved, sort_keys=True)]
    if norms_out is not None:  # norms first: a bad --p must write no file
        samples = sample_grid(f, M)
        f_lp = lp_norm(samples, p)
        field_lp = lp_norm(field, p)
        entries = [
            ("field_lp", p, r, field_lp),
            ("field_weak_lp", p, r, weak_lp_norm(field, p)),
            ("field_lorentz_p1", p, r, lorentz_p1_norm(field, p)),
            ("f_lp", p, r, f_lp),
            ("f_lorentz_p1", p, r, lorentz_p1_norm(samples.abs(), p)),
            ("ratio", p, r, field_lp / f_lp if f_lp > 0 else 0.0),
        ]
    fileio.write_field_csv(field, out, comments)
    if norms_out is not None:
        fileio.write_norm_summary_csv(norms_out, entries, comments)
    return 0


def _cmd_verify(seed, polytope, out) -> int:
    status, results = experiments.run_verify(seed=seed, out=out, polytope_file=polytope)
    for res in results:
        flag = "pass" if res.passed else "FAIL"
        sys.stdout.write(f"{flag} {res.suite}/{res.name} {res.detail}\n")
    sys.stdout.write(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    return status


def _cmd_ratio(**options) -> int:
    report = experiments.run_ratio_experiment(**options)
    for B in report.medians:
        sys.stdout.write(
            f"B={B}: median ratio {report.medians[B]:.6f}, max {report.maxima[B]:.6f}\n"
        )
    return 0


def _cmd_converge(**options) -> int:
    rows = experiments.run_convergence(**options)
    sys.stdout.write(f"{len(rows)} breakpoints, final sup error {rows[-1][2]!r}\n")
    return 0


_OUT = ("--out", None, None)
_GRID = [("--polytope", _path, REQUIRED), ("--coeffs", _path, REQUIRED)]

# subcommand -> (help, handler, option rows); a row may end in its help text,
# and the handler takes each option as a keyword ("--norms-out" as norms_out)
COMMANDS = {
    "triangulate": ("fan-triangulate a polytope file", _cmd_triangulate,
                    [("polytope", None, None), _OUT]),
    "partial-sum": ("grid samples of one partial sum", _cmd_partial_sum,
                    [*_GRID, ("--lam", _float, 0.0), ("--resolution", _int, None), _OUT]),
    "variation-field": ("pointwise r-variation on a grid", _cmd_variation_field,
                        [*_GRID, ("--r", _float, 3.0), ("--p", _float, 2.0),
                         ("--resolution", _int, None), _OUT,
                         ("--norms-out", None, None,
                          "also write a (quantity, p, r, value) summary")]),
    "verify": ("run all invariant suites", _cmd_verify,
               [("--seed", _int, 42), ("--polytope", _path, None), _OUT]),
    "ratio": ("variation/function norm ratio ensembles", _cmd_ratio,
              [("--bandwidths", _ints, (4, 8, 16)), ("--r", _float, 3.0), ("--p", _float, 2.0),
               ("--dim", _int, 2), ("--ensemble", _int, 32), ("--density", _float, 1.0),
               ("--seed", _int, 42), _OUT]),
    "converge": ("sup-norm error along the breakpoint ladder", _cmd_converge,
                 [("--bandwidth", _int, 8), ("--dim", _int, 2), _OUT]),
}


def _options(rows, args) -> dict:
    """Each row's flag, else its config entry, else its default, keyed by
    the handler's keyword; a flag or config value goes through the row's
    converter, and a value it cannot take is a ValueError naming the key.
    A config string other than a path, and a config key that no row with a
    converter names, are ValueErrors too."""
    config = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(config) - {row[0].lstrip("-") for row in rows if row[1] is not None})
    if unknown:
        raise ValueError(f"config cannot set {', '.join(unknown)}: no such config option here")
    values = {}
    for name, convert, default, *_ in rows:
        key = name.lstrip("-")
        attr = key.replace("-", "_")
        val = getattr(args, attr)
        if convert is None:
            values[attr] = val
        elif val is None and key not in config:
            if default is REQUIRED:
                raise ValueError(f"missing required option --{key}")
            values[attr] = default
        else:
            try:
                if val is None:
                    val = config[key]
                    if isinstance(val, str) and convert is not _path:
                        raise TypeError("a config value keeps its JSON type, not a string")
                values[attr] = convert(val)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {key}: {val!r} ({exc})") from None
    return values


def _add_options(parser: argparse.ArgumentParser, rows) -> argparse.ArgumentParser:
    """Add one subcommand's option rows, and --config when a row takes one."""
    for name, _, _, *doc in rows:
        parser.add_argument(name, help=doc[0] if doc else None)
    if any(row[1] is not None for row in rows):
        parser.add_argument("--config")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysum",
        description="Polytopal partial Fourier sums, fan triangulations, and r-variation fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, rows) in COMMANDS.items():
        _add_options(sub.add_parser(command, help=text), rows)
    return parser


@functools.cache
def _parser(command: str) -> argparse.ArgumentParser:
    return _add_options(argparse.ArgumentParser(prog=f"polysum {command}"), COMMANDS[command][2])


def _parse(argv) -> tuple[str, argparse.Namespace]:
    """The invoked subcommand and its arguments.  An argv that starts with a
    subcommand is parsed by that subcommand's parser alone; anything else
    (-h, no or an unknown subcommand) goes to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        return argv[0], _parser(argv[0]).parse_args(argv[1:])
    args = build_parser().parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    command, args = _parse(argv)
    _, handler, rows = COMMANDS[command]
    try:
        return handler(**_options(rows, args))
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
