"""Command line entry point.

Subcommands: triangulate, partial-sum, variation-field, verify, ratio,
converge.  Options can come from a JSON config file (--config) with explicit
flags taking precedence; every CSV output embeds the resolved configuration
as '#' comment lines, and a fixed seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
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


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _path(val) -> str:
    if not isinstance(val, str):
        raise TypeError("expected a path string")
    return val


def _ints(val) -> list[int]:
    """A bandwidth ladder: a comma-separated string or a list of integers."""
    if isinstance(val, str):
        return [int(tok) for tok in val.split(",") if tok]
    return [int(b) for b in val]


def _resolve(args, config: dict, key: str, default, kind):
    """The flag, else the config entry, else ``default``; a flag or config
    value goes through ``kind``, and a value it cannot take is a ValueError
    naming the key."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        if key not in config:
            return default
        val = config[key]
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {key}: {val!r} ({exc})") from None


def _require(args, config: dict, key: str, kind):
    val = _resolve(args, config, key, None, kind)
    if val is None:
        raise ValueError(f"missing required option --{key}")
    return val


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_triangulate(args) -> int:
    P = fileio.load_polytope(args.polytope)
    pieces = triangulate(P)
    payload = fileio.pieces_as_dict(P, pieces)
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    return 0


def _grid_job(args, job: str):
    """Config, polytope, coefficients and grid resolution of a grid job, which
    fails before any work when --out is missing."""
    config = _load_config(args.config)
    P = fileio.load_polytope(_require(args, config, "polytope", _path))
    f = fileio.load_coefficients(_require(args, config, "coeffs", _path))
    if args.out is None:
        raise ValueError(f"{job} writes CSV; pass --out")
    M = _resolve(args, config, "resolution", experiments.default_resolution(f.bandwidth), int)
    return config, P, f, M


def _cmd_partial_sum(args) -> int:
    config, P, f, M = _grid_job(args, "partial-sum")
    lam = _resolve(args, config, "lam", 0.0, float)
    if M < 1:
        raise ValueError("resolution must be at least 1")
    pts = grid_points(f.dim, M)
    vals = partial_sum(f, P, lam, pts)
    samples = GridSamples(f.dim, M, np.asarray(vals).reshape((M,) * f.dim))
    resolved = {"lam": lam, "resolution": M, "dim": f.dim}
    fileio.write_grid_csv(samples, args.out, ["config " + json.dumps(resolved, sort_keys=True)])
    return 0


def _cmd_variation_field(args) -> int:
    config, P, f, M = _grid_job(args, "variation-field")
    r = _resolve(args, config, "r", 3.0, float)
    p = _resolve(args, config, "p", 2.0, float)
    field = v_r_field(f, P, M, r)
    resolved = {"r": r, "p": p, "resolution": M, "dim": f.dim}
    comments = ["config " + json.dumps(resolved, sort_keys=True)]
    if args.norms_out is not None:  # norms first: a bad --p must write no file
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
    fileio.write_field_csv(field, args.out, comments)
    if args.norms_out is not None:
        fileio.write_norm_summary_csv(args.norms_out, entries, comments)
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    seed = _resolve(args, config, "seed", 42, int)
    polytope = _resolve(args, config, "polytope", None, _path)
    status, results = experiments.run_verify(seed=seed, out=args.out, polytope_file=polytope)
    for res in results:
        flag = "pass" if res.passed else "FAIL"
        sys.stdout.write(f"{flag} {res.suite}/{res.name} {res.detail}\n")
    sys.stdout.write(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    return status


def _cmd_ratio(args) -> int:
    config = _load_config(args.config)
    report = experiments.run_ratio_experiment(
        bandwidths=tuple(_resolve(args, config, "bandwidths", [4, 8, 16], _ints)),
        r=_resolve(args, config, "r", 3.0, float),
        p=_resolve(args, config, "p", 2.0, float),
        dim=_resolve(args, config, "dim", 2, int),
        ensemble=_resolve(args, config, "ensemble", 32, int),
        density=_resolve(args, config, "density", 1.0, float),
        seed=_resolve(args, config, "seed", 42, int),
        out=args.out,
    )
    for B in report.medians:
        sys.stdout.write(
            f"B={B}: median ratio {report.medians[B]:.6f}, max {report.maxima[B]:.6f}\n"
        )
    return 0


def _cmd_converge(args) -> int:
    config = _load_config(args.config)
    rows = experiments.run_convergence(
        bandwidth=_resolve(args, config, "bandwidth", 8, int),
        dim=_resolve(args, config, "dim", 2, int),
        out=args.out,
    )
    sys.stdout.write(f"{len(rows)} breakpoints, final sup error {rows[-1][2]!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysum",
        description="Polytopal partial Fourier sums, fan triangulations, and r-variation fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangulate", help="fan-triangulate a polytope file")
    p.add_argument("polytope")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("partial-sum", help="grid samples of one partial sum")
    p.add_argument("--polytope")
    p.add_argument("--coeffs")
    p.add_argument("--lam", type=float)
    p.add_argument("--resolution", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partial_sum)

    p = sub.add_parser("variation-field", help="pointwise r-variation on a grid")
    p.add_argument("--polytope")
    p.add_argument("--coeffs")
    p.add_argument("--r", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--resolution", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--norms-out", help="also write a (quantity, p, r, value) summary")
    p.set_defaults(func=_cmd_variation_field)

    p = sub.add_parser("verify", help="run all invariant suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--polytope")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ratio", help="variation/function norm ratio ensembles")
    p.add_argument("--bandwidths")
    p.add_argument("--r", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--ensemble", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("converge", help="sup-norm error along the breakpoint ladder")
    p.add_argument("--bandwidth", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
