"""On-disk formats: JSON polytopes and coefficient tables, deterministic CSV.

Polytope files carry either half-space data {"dim": d, "H": {"A": ..., "b": ...}}
or vertex data {"dim": d, "V": {"vertices": ...}}; rows need not be normalized
on input.  Coefficient files are {"dim": d, "coeffs": [{"n": [...], "re": r,
"im": i}, ...]}.  ``dim`` must be a JSON integer and every other number a
JSON number: a bool or a string raises ValueError, never a coercion.  CSV
output uses '#'-prefixed comment lines for the resolved configuration and
shortest round-trip float formatting, so a fixed seed yields byte-identical
files.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .geometry import Facet, HPolytope, VPolytope, h_from_vertices, cone_halfspaces
from .spectral import TrigPolynomial, _lattice
from .variation import GridSamples

__all__ = [
    "load_polytope",
    "save_polytope",
    "load_coefficients",
    "save_coefficients",
    "pieces_as_dict",
    "write_csv",
    "write_grid_csv",
    "write_field_csv",
    "write_norm_summary_csv",
    "format_number",
]


def _json_int(value, path, key: str) -> int:
    """A JSON integer; a bool, float or string raises ValueError naming the file and key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: '{key}' must be a JSON integer, not {value!r}")
    return value


def _json_floats(value, path, key: str) -> np.ndarray:
    """A JSON number or nested lists of them as floats; any other entry (a
    bool, a string, a ragged row) or one beyond float range raises ValueError."""
    entries = np.asarray(value, dtype=object)
    for v in entries.flat:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}: '{key}' must be JSON numbers in equal rows, found {v!r}")
    try:
        return entries.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{path}: '{key}' entry {exc}") from None


def load_polytope(path) -> HPolytope:
    """Read a polytope file; vertex data is converted to half-space form.

    Half-space data is validated (bounded, every row a facet, no duplicated
    row) in every dimension, at the cost of C(m, d) row-tuple solves.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim = _json_int(data["dim"], path, "dim")
        if "H" in data:
            return HPolytope(dim, _json_floats(data["H"]["A"], path, "H.A"),
                             _json_floats(data["H"]["b"], path, "H.b")).validate()
        if "V" in data:
            vertices = _json_floats(data["V"]["vertices"], path, "V.vertices")
            return h_from_vertices(VPolytope(dim, vertices))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polytope file {path}: {exc}") from exc
    raise ValueError(f"polytope file {path} has neither 'H' nor 'V' data")


def save_polytope(P: HPolytope, path) -> None:
    data = {"dim": P.dim, "H": {"A": P.A.tolist(), "b": P.b.tolist()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_coefficients(path) -> TrigPolynomial:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim = _json_int(data["dim"], path, "dim")
        entries = data["coeffs"]
        freqs = [e["n"] for e in entries]
        re, im = (_json_floats([e.get(k, 0.0) for e in entries], path, k) for k in ("re", "im"))
        coeffs = re.astype(complex)
        coeffs.imag = im  # re + 1j * im would turn an imaginary -0.0 into 0.0
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient file {path}: {exc}") from exc
    return TrigPolynomial(dim, freqs, coeffs)


def save_coefficients(f: TrigPolynomial, path) -> None:
    entries = [
        {"n": [int(v) for v in n], "re": float(c.real), "im": float(c.imag)}
        for n, c in f
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": f.dim, "coeffs": entries}, fh, indent=1)
        fh.write("\n")


def pieces_as_dict(P: HPolytope, pieces: list[Facet]) -> dict:
    """JSON-ready description of a fan: facet rows, their vertices (as the
    cone "generators") and cone rows."""
    out = []
    for piece in pieces:
        out.append(
            {
                "facet_index": piece.index,
                "a": piece.a.tolist(),
                "b": piece.b,
                "generators": piece.vertices.tolist(),
                "cone_rows": cone_halfspaces(piece, P).tolist(),
            }
        )
    return {"dim": P.dim, "pieces": out}


def format_number(v) -> str:
    """Shortest round-trip decimal for floats, plain digits for ints."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, comments: Iterable[str], header: list[str], rows: Iterable) -> None:
    """CSV with '#'-prefixed comment lines; values rendered deterministically."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_norm_summary_csv(path, entries: Iterable, comments: Iterable[str] = ()) -> None:
    """Norm summary rows (quantity, p, r, value)."""
    write_csv(path, comments, ["quantity", "p", "r", "value"], entries)


def _floats(part: np.ndarray) -> list:
    """Entries as Python floats, also for an integer grid."""
    return part.astype(float, copy=False).tolist()


def write_grid_csv(samples: GridSamples, path, comments: Iterable[str] = ()) -> None:
    """Complex grid samples as rows (j_1, ..., j_d, re, im)."""
    idx = _lattice(samples.dim, samples.resolution)
    header = [f"j{k + 1}" for k in range(samples.dim)] + ["re", "im"]
    re, im = (_floats(part) for part in (samples.flat.real, samples.flat.imag))
    rows = (j + [x, y] for j, x, y in zip(idx.tolist(), re, im))
    write_csv(path, comments, header, rows)


def write_field_csv(samples: GridSamples, path, comments: Iterable[str] = ()) -> None:
    """Real nonnegative grid field as rows (j_1, ..., j_d, value)."""
    idx = _lattice(samples.dim, samples.resolution)
    header = [f"j{k + 1}" for k in range(samples.dim)] + ["value"]
    rows = (j + [v] for j, v in zip(idx.tolist(), _floats(samples.flat.real)))
    write_csv(path, comments, header, rows)
