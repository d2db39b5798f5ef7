"""Seeded verification suites and the empirical variation-ratio experiments.

``run_verify`` executes every module's invariant suite on seeded random
instances and reports one row per check with its margin.  Each check kind is
one row of ``CHECKS``, passed when its margin, a plain function here read on
one instance's inputs, is at most its bound; the acceptance gate, the unit
tests and the test corpus call the same functions.
``run_ratio_experiment`` sweeps random coefficient ensembles over a
bandwidth ladder and tabulates the ratio of the r-variation field's L^p norm
to the function's; the design of that experiment (ensemble law, ladder) is
illustrative, there is no external table to reproduce.  ``run_convergence``
tracks the sup-norm error of partial sums of a smooth-coefficient polynomial
along its breakpoints.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import fileio
from .geometry import (
    GEO_TOL,
    HPolytope,
    _row_max,
    cone_halfspaces,
    contains,
    gauge,
    hypercube,
    cross_polytope,
    rotation_to_e1,
    triangulate,
    vertices_from_h,
    h_from_vertices,
)
from .generators import _box, random_piece_points, random_polytope, random_trig_polynomial
from .spectral import (
    TrigPolynomial,
    _direct_sum,
    _Shells,
    _cutoff_sums,
    _frozen_rows,
    _halfspace_keep,
    grid_points,
    halfspace_multiplier,
    partial_sum,
    sample_grid,
)
from .variation import (
    GridSamples,
    distribution_function,
    fubini_slice_check,
    lorentz_p1_norm,
    lp_norm,
    sup_family,
    _bruteforce_batch,
    _field_and_samples,
    _v_r_batch,
    v_r_field,
    weak_lp_norm,
)

__all__ = [
    "CheckResult",
    "RatioRow",
    "RatioReport",
    "run_verify",
    "run_ratio_experiment",
    "run_convergence",
    "smooth_polynomial",
    "default_resolution",
]


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


@dataclass
class RatioRow:
    member: int
    bandwidth: int
    r: float
    p: float
    f_lp: float
    vr_lp: float
    ratio: float
    vr_weak: float
    f_lorentz: float


@dataclass
class RatioReport:
    rows: list[RatioRow]
    medians: dict[int, float]
    maxima: dict[int, float]
    config: dict = field(default_factory=dict)


def default_resolution(bandwidth: int) -> int:
    """Alias-free grid size 2B+1."""
    return 2 * bandwidth + 1


def _config_comments(config: dict) -> list[str]:
    return [
        "config " + json.dumps(config, sort_keys=True),
        "illustrative desk-scale run; quantities defined by the library, "
        "not reproduced from an external table",
    ]


# ---------------------------------------------------------------------------
# invariants shared with the acceptance gate and the unit tests
#
# Each returns its worst margin over the given instances; counts of violating
# points are margins too.  Unit tests keep their own literal tolerances.


def gauge_homogeneity(P: HPolytope, X, g, t) -> float:
    """Largest |gauge(t x) - t gauge(x)| / (1 + t gauge(x)) over the points X
    with their gauges g and nonnegative scalars t."""
    return float(np.max(np.abs(gauge(P, t[:, None] * X) - t * g) / (1.0 + t * g)))


def sublevel_identity(P: HPolytope, X, g, factors) -> float:
    """Points where membership in the dilate c g(x) disagrees with g(x) <= c g(x),
    summed over the factors c; a factor 1 puts every point on the boundary."""
    return float(sum(np.sum(contains(P, X, c * g) != (g <= c * g)) for c in factors))


def roundtrip(P: HPolytope, X, g) -> float:
    """Largest |gauge change| / (1 + gauge) at X after the H -> V -> H round trip of P."""
    P2 = h_from_vertices(vertices_from_h(P))
    return float(np.max(np.abs(g - gauge(P2, X)) / (1.0 + g)))


def _worst(margins) -> float:
    """Largest of the margins, NaN if any is NaN; the built-in ``max`` keeps a
    NaN only when it comes first, so a NaN margin could pass its bound."""
    return float(np.max(np.fromiter(margins, dtype=float)))


def _row_table(P: HPolytope, X):
    """Row values ``X @ P.A.T``, each point's sorted values and its top row (the
    lowest index attaining the maximum, as :func:`piece_assign`)."""
    vals = X @ P.A.T
    return vals, np.sort(vals, axis=1), np.argmax(vals, axis=1)


def _members(pieces, vals) -> np.ndarray:
    """Closed membership (points, pieces) of points with row values ``vals``:
    the test of :func:`piece_contains` on its columns and row maximum (the gauge)."""
    g = np.maximum(_row_max(vals), 0.0)
    rows = vals[:, [pc.index for pc in pieces]]
    b = np.array([pc.b for pc in pieces])
    return (rows >= g[:, None] - GEO_TOL) & (rows <= b + GEO_TOL)


def cover(counts) -> float:
    """Number of sampled points (inside P) that lie in no closed piece."""
    return float(np.sum(counts < 1))


def disjoint(srt, counts) -> float:
    """Points off piece boundaries (top row ahead by > 1e-7) that lie in two pieces,
    read from their sorted row values ``srt`` (of :func:`_row_table`) and piece counts."""
    return float(np.sum(counts[srt[:, -1] - srt[:, -2] > 1e-7] > 1))


def piece_bounded(P: HPolytope, pieces, count: int, seed: int) -> float:
    """Largest gauge - 1 over ``count`` random points of each piece k (seed
    ``seed + k``), all pieces' points in one ``gauge`` call."""
    samples = [random_piece_points(pc, count, seed=seed + k) for k, pc in enumerate(pieces)]
    return float(np.max(gauge(P, np.concatenate(samples)))) - 1.0


def assign_in_piece(members, top) -> float:
    """Points outside the closed piece that ``piece_assign`` gives them, read from
    their membership (of :func:`_members`) and top rows (of :func:`_row_table`)."""
    return float(np.sum(~members[np.arange(top.shape[0]), top]))


def rotation(P: HPolytope, pieces, X) -> float:
    """Largest defect of each piece's rotation R = ``rotation_to_e1``: |R^T R - I|,
    |R normal - e_1|, |det R - 1| and |gauge of P - gauge of R P| at the points X."""
    g, eye, errs = gauge(P, X), np.eye(P.dim), []
    for pc in pieces:
        R = rotation_to_e1(pc)
        errs += [float(np.linalg.norm(R.T @ R - eye)),
                 float(np.linalg.norm(R @ pc.normal - eye[0])),
                 abs(float(np.linalg.det(R)) - 1.0),
                 float(np.max(np.abs(g - gauge(HPolytope(P.dim, P.A @ R.T), X @ R.T))))]
    return _worst(errs)


def cone_rows_agree(P: HPolytope, pieces, X, srt, top, gap: float, count: int, seed: int,
                    stride: int) -> float:
    """Violations of the cone half-spaces of each piece k: its own ``count``
    random points (seed ``seed + stride * k``) outside them by > 1e-9, and points
    of X whose top row is another piece's, ahead by > ``gap``, inside them; the
    sorted row values ``srt`` and top rows ``top`` of X are :func:`_row_table`'s.
    Every piece's rows are stacked, each padded to the longest by repeating
    its last row, so each point set takes one product for all pieces."""
    clear = srt[:, -1] - srt[:, -2] > gap
    walls = [cone_halfspaces(pc, P) for pc in pieces]
    width = max(w.shape[0] for w in walls)
    stack = np.concatenate([w[np.minimum(np.arange(width), w.shape[0] - 1)] for w in walls])

    def wall_max(points):  # (points, pieces): each piece's largest wall value
        return _row_max((points @ stack.T).reshape(points.shape[0], len(pieces), width))

    own = wall_max(np.concatenate([random_piece_points(pc, count, seed=seed + stride * k)
                                   for k, pc in enumerate(pieces)]))
    piece = np.repeat(np.arange(len(pieces)), count)
    violations = np.sum(own[np.arange(piece.shape[0]), piece] > 1e-9)
    index = np.array([pc.index for pc in pieces])
    violations += np.sum((wall_max(X[clear]) <= 0.0) & (top[clear][:, None] != index))
    return float(violations)


def step_constancy(f: TrigPolynomial, shells: _Shells, X) -> float:
    """Largest |partial sum at the midpoint - at the left end| at X over the
    intervals between consecutive breakpoints of f (0 when there are none),
    from f's shell plan ``shells``."""
    bps = shells.breakpoints
    mids = 0.5 * (bps[:-1] + bps[1:])
    diff = _cutoff_sums(f, shells, mids, X, False) - _cutoff_sums(f, shells, bps[:-1], X, False)
    return float(np.max(np.abs(diff), initial=0.0))


def saturation(f: TrigPolynomial, shells: _Shells, X, fX) -> float:
    """Largest |partial sum at the last breakpoint - f| at X, with fX = f(X), from
    f's shell plan ``shells``."""
    return float(np.max(np.abs(_cutoff_sums(f, shells, shells.breakpoints[-1], X, False) - fX)))


def piecewise_equals_direct(f: TrigPolynomial, shells: _Shells, X) -> float:
    """Largest |fan-wise - direct| partial sum at X over every breakpoint of f,
    from f's shell plan ``shells``."""
    bps = shells.breakpoints
    diff = _cutoff_sums(f, shells, bps, X, True) - _cutoff_sums(f, shells, bps, X, False)
    return float(np.max(np.abs(diff)))


def multiplier_partition(f: TrigPolynomial, shells: _Shells, pieces) -> float:
    """Largest |coefficient| of the sum of the cone multipliers of f minus f,
    from f's shell plan ``shells``."""
    keeps = [shells.owner == pc.index for pc in pieces]
    diff = TrigPolynomial(f.dim, np.concatenate([f.freqs[k] for k in keeps] + [f.freqs]),
                          np.concatenate([f.coeffs[k] for k in keeps] + [-1.0 * f.coeffs]))
    return float(np.max(np.abs(diff.coeffs), initial=0.0))


def linearity(f: TrigPolynomial, shells: _Shells, g: TrigPolynomial, combo: TrigPolynomial,
              lam, X, alpha, beta) -> float:
    """Largest |S(alpha f + beta g) - alpha S f - beta S g| at X and the cutoff(s) lam,
    from f's shell plan ``shells`` and the combination ``combo`` = alpha f + beta g."""
    P = shells.P
    return float(np.max(np.abs(
        partial_sum(combo, P, lam, X)
        - alpha * _cutoff_sums(f, shells, lam, X, False) - beta * partial_sum(g, P, lam, X))))


def freezing_identity(f: TrigPolynomial, P: HPolytope, pieces, resolution: int) -> float:
    """Largest |cone-restricted - frozen 1-d partial sum| at every breakpoint and
    grid point, on the pieces with facet normal +-e_1 (where freezing is defined).
    Every x' row freezes at once, as ``freeze`` does; the frozen sum at lam keeps
    the n_1 with a_1 n_1 <= lam b, for all x' and lam at once.  One shell plan
    of f serves the breakpoints and every piece's frequencies and shells."""
    M = resolution
    shells = _Shells(f, P)
    bps = shells.breakpoints
    xs = (np.arange(M) / M)[:, None]
    xprimes = grid_points(f.dim - 1, M)
    margins = [0.0]  # the margin when no piece is axis-aligned
    for pc in pieces:
        try:
            n1, frozen = _frozen_rows(f, shells, pc, xprimes)
        except ValueError:  # not axis-aligned: freezing is undefined on this piece
            continue
        # the piece's family at f's shells, as (M, x' rows, L): x_1 lines
        lines = shells.family(M, shells.owner == pc.index).reshape(M, -1, bps.shape[0])
        keep = _halfspace_keep(n1, pc.a[:1], bps * pc.b)  # (L, N_1)
        rows = (frozen[:, None, :] * keep).reshape(frozen.shape[0] * bps.shape[0], -1)
        sums = _direct_sum([(n1, rows)], xs).reshape(lines.shape)
        margins.append(float(np.max(np.abs(lines - sums))))
    return _worst(margins)


def halfspace_cone_boundary(f: TrigPolynomial, P: HPolytope, pieces) -> float:
    """Frequencies where the composed closed half-space cutoffs of a piece's cone
    differ from its assigned cone cutoff other than on a boundary shared with a
    lower-indexed piece.  Both cutoffs are read as masks over f's support."""
    owner = _Shells(f, P).owner
    key = np.dtype((np.void, f.freqs.itemsize * f.dim))  # one byte string per frequency
    violations = 0
    for pc in pieces:
        composed = f
        for a in cone_halfspaces(pc, P):
            composed = halfspace_multiplier(composed, a, 0.0)
        kept = np.isin(f.freqs.view(key).ravel(), composed.freqs.view(key).ravel())
        comp = np.zeros(len(f), dtype=complex)
        comp[kept] = composed.coeffs  # a subset of f's sorted support keeps its order
        own = owner == pc.index
        violations += int(np.sum(np.abs(comp[own] - f.coeffs[own]) > 0.0))
        for n in f.freqs[kept & ~own]:
            vals = np.asarray(n, dtype=float) @ P.A.T
            ties = np.sum(np.abs(vals - vals.max()) <= 1e-12)
            violations += int(ties < 2 or np.argmax(vals) >= pc.index)
    return float(violations)


def dp_equals_bruteforce(seqs, rs) -> float:
    """Largest |DP - exhaustive| r-variation over the sequences and exponents."""
    return _worst(abs(a - b) for r, brute in zip(rs, _bruteforce_batch(seqs, rs))
                  for a, b in zip(_v_r_batch(seqs, r), brute))


def r_monotonicity(seqs, v3) -> float:
    """Largest increase of V_r(v) along r = 1, 2, 2.5, 3, 4; the V_3 values ``v3``
    of the sequences (``_v_r_batch(seqs, 3.0)``) are the r = 3 rung."""
    ladder = [v3 if r == 3.0 else _v_r_batch(seqs, r) for r in (1.0, 2.0, 2.5, 3.0, 4.0)]
    return _worst(b - a for lo, hi in zip(ladder, ladder[1:]) for a, b in zip(lo, hi))


def scaling(seqs, cs, v3) -> float:
    """Largest |V_3(c v) - |c| V_3(v)| / (1 + |c|) over paired sequences and scalars,
    with the V_3 values ``v3`` of the sequences."""
    scaled = _v_r_batch([c * v for v, c in zip(seqs, cs)], 3.0)
    return _worst(abs(a - abs(c) * b) / (1.0 + abs(c)) for a, b, c in zip(scaled, v3, cs))


def maximal_control(seqs, v3) -> float:
    """Largest sup_k |v_k| - |v_0| - V_3(v) over the sequences with their V_3
    values ``v3``; the triangle inequality makes it <= 0."""
    return _worst(sup_family(v) - abs(v[0]) - w for v, w in zip(seqs, v3))


def concatenation(seqs, cuts, v3) -> float:
    """Largest V_3 of v[:cut + 1] or v[cut:] minus V_3(v) over paired sequences
    and cut indices, with the V_3 values ``v3``; a subsequence never has more
    variation, so it is <= 0."""
    heads = _v_r_batch([v[: cut + 1] for v, cut in zip(seqs, cuts)], 3.0)
    tails = _v_r_batch([v[cut:] for v, cut in zip(seqs, cuts)], 3.0)
    return _worst(np.maximum(heads, tails) - v3)


def field_vs_pointwise(f: TrigPolynomial, P: HPolytope, field: GridSamples, r: float,
                       stride: int) -> float:
    """Largest |field value - V_r of the direct partial sums at every breakpoint|
    over every ``stride``-th grid point of the r-variation field of f."""
    pts = grid_points(f.dim, field.resolution)[::stride]
    shells = _Shells(f, P)
    fams = _cutoff_sums(f, shells, shells.breakpoints, pts, by_pieces=False)
    return _worst(abs(v - w) for v, w in zip(field.flat[::stride], _v_r_batch(fams, r)))


def distribution_range(field: GridSamples, alphas) -> float:
    """Largest distance of the distribution function of ``field`` from [0, 1] at
    the levels ``alphas``; a NaN lies outside [0, 1] too, so it reads NaN."""
    ds = [distribution_function(field, al) for al in alphas]
    return _worst([0.0] + [max(-d, d - 1.0) for d in ds if not 0.0 <= d <= 1.0])


def weak_le_strong(samples, ps) -> float:
    """Largest weak-L^p minus L^p norm over nonnegative grid samples and exponents."""
    return _worst(weak_lp_norm(h, p) - lp_norm(h, p) for h in samples for p in ps)


def fubini_slices(h: GridSamples, alphas) -> float:
    """Largest |global - slice-averaged| distribution function of h."""
    return _worst(abs(a - b) for a, b in (fubini_slice_check(h, al) for al in alphas))


def parseval(f: TrigPolynomial, samples: GridSamples) -> float:
    """|mean of |f|^2 over its alias-free grid samples - sum of |c(n)|^2|."""
    return abs(
        float(np.mean(np.abs(samples.flat) ** 2)) - float(np.sum(np.abs(f.coeffs) ** 2))
    )


# ---------------------------------------------------------------------------
# verify
#
# Rows (suite, kind, bound, detail key, margin) in verify.csv order.  A margin reads
# one context, a namespace of one instance's inputs that verify or the corpus builds.

CHECKS = [
    ("geometry", "gauge_homogeneity", 1e-12, "max",
     lambda c: gauge_homogeneity(c.P, c.X, c.g, c.t)),
    ("geometry", "sublevel_identity", 0, "mismatches",
     lambda c: sublevel_identity(c.P, c.X_level, c.g_level, c.factors)),
    ("geometry", "roundtrip", 1e-9, "max", lambda c: roundtrip(c.P, c.X, c.g)),
    ("geometry", "cover", 0, "uncovered", lambda c: cover(c.counts)),
    ("geometry", "disjoint", 0, "overlaps", lambda c: disjoint(c.srt, c.counts)),
    ("geometry", "piece_bounded", 1e-9, "max_excess",
     lambda c: piece_bounded(c.P, c.pieces, c.piece_count, c.seed)),
    ("geometry", "assign_in_piece", 0, "misses", lambda c: assign_in_piece(c.members, c.top)),
    ("geometry", "rotation", 1e-9, "max", lambda c: rotation(c.P, c.pieces, c.X_rot)),
    ("geometry", "cone_rows_agree", 0, "violations", lambda c: cone_rows_agree(
        c.P, c.pieces, c.X_cone, c.srt_cone, c.top_cone, c.gap, c.cone_count, c.seed, c.stride)),
    ("spectral", "step_constancy", 1e-14, "max", lambda c: step_constancy(c.f, c.shells, c.X)),
    ("spectral", "saturation", 1e-12, "max", lambda c: saturation(c.f, c.shells, c.X, c.fX)),
    ("spectral", "piecewise_equals_direct", 1e-12, "max",
     lambda c: piecewise_equals_direct(c.f, c.shells, c.X)),
    ("spectral", "multiplier_partition", 1e-15, "max",
     lambda c: multiplier_partition(c.f, c.shells, c.pieces)),
    ("spectral", "linearity", 1e-12, "max",
     lambda c: linearity(c.f, c.shells, c.g, c.combo, c.lam, c.X, c.alpha, c.beta)),
    ("spectral", "parseval", 1e-10, "err", lambda c: parseval(c.f, c.samples)),
    ("spectral", "freezing_identity", 1e-12, "max",
     lambda c: freezing_identity(c.f, c.P, c.pieces, c.M)),
    ("spectral", "halfspace_cone_boundary", 0, "violations",
     lambda c: halfspace_cone_boundary(c.f, c.P, c.pieces)),
    ("variation", "dp_equals_bruteforce", 1e-12, "max",
     lambda c: dp_equals_bruteforce(c.dp_seqs, c.rs)),
    ("variation", "r_monotonicity", 1e-12, "max", lambda c: r_monotonicity(c.seqs, c.v3)),
    ("variation", "scaling", 1e-12, "max", lambda c: scaling(c.seqs, c.cs, c.v3)),
    ("variation", "maximal_control", 1e-12, "max", lambda c: maximal_control(c.seqs, c.v3)),
    ("variation", "concatenation", 1e-12, "max", lambda c: concatenation(c.seqs, c.cuts, c.v3)),
    ("variation", "weak_le_strong", 1e-12, "max", lambda c: weak_le_strong([c.grid], c.ps)),
    ("variation", "fubini_slices", 1e-14, "max", lambda c: fubini_slices(c.grid, c.alphas)),
    ("variation", "field_vs_pointwise", 1e-12, "max",
     lambda c: field_vs_pointwise(c.h, c.P, c.field, c.r, c.stride)),
    ("variation", "distribution_range", 0, "excess",
     lambda c: distribution_range(c.field, c.levels)),
]
BOUNDS = {kind: bound for _, kind, bound, _, _ in CHECKS}


def _kinds(suite: str, dim: int = 2) -> list[str]:
    """The kinds of ``suite`` in dimension ``dim``: no 1-d normal -1 rotates to e_1."""
    return [kind for s, kind, *_ in CHECKS if s == suite and (kind != "rotation" or dim > 1)]


def _label_seed(label: str) -> int:
    # stable across processes, unlike hash()
    return zlib.crc32(label.encode()) & 0xFFFF


def _geometry_context(P: HPolytope, pieces, label: str, seed: int) -> SimpleNamespace:
    """2000 points X of [-1.5, 1.5]^d from the instance's own stream, their gauges g
    and scalars t, and one row table of X drawn radially into P for four fan checks."""
    rng = np.random.default_rng((seed + 1000, _label_seed(label)))
    X = rng.uniform(-1.5, 1.5, size=(2000, P.dim))
    g = gauge(P, X)
    t = rng.uniform(0.0, 50.0, size=X.shape[0])
    inside = X / np.maximum(g, 1e-12)[:, None] * rng.random(X.shape[0])[:, None]
    vals, srt, top = _row_table(P, inside)
    members = _members(pieces, vals)
    return SimpleNamespace(
        P=P, pieces=pieces, seed=_label_seed(label), X=X, g=g, t=t,
        X_level=X[:50], g_level=gauge(P, X[:50]), factors=(0.5, 1.0, 1.5),
        srt=srt, counts=np.sum(members, axis=1), piece_count=400,
        members=members[:300], top=top[:300], X_rot=X[:200],
        X_cone=inside, srt_cone=srt, top_cone=top, gap=1e-6, cone_count=200, stride=31)


def _spectral_draw(dim: int, seed: int) -> SimpleNamespace:
    """What the spectral instances of one dimension share, drawn from ``seed``: f, g,
    the points X, f(X), linearity's combination and f on its alias-free grid."""
    f, g = (random_trig_polynomial(dim, 6 if dim <= 2 else 3, 0.6, s) for s in (seed, seed + 1))
    X = np.random.default_rng(seed).random(size=(20, dim))
    alpha, beta = 1.5 - 0.5j, -0.75 + 0.25j
    return SimpleNamespace(f=f, g=g, X=X, fX=f.evaluate(X), combo=alpha * f + beta * g,
                           alpha=alpha, beta=beta,
                           samples=sample_grid(f, default_resolution(f.bandwidth)))


def _spectral_context(P: HPolytope, pieces, draw: SimpleNamespace) -> SimpleNamespace:
    """One spectral instance: its dimension's draw, its own shell plan of f and
    linearity's cutoff, the middle breakpoint."""
    shells = _Shells(draw.f, P)
    lam = float(shells.breakpoints[len(shells.breakpoints) // 2])
    return SimpleNamespace(**vars(draw), P=P, pieces=pieces, shells=shells, lam=lam)


def _variation_context(seed: int) -> SimpleNamespace:
    """60 short sequences for the exhaustive DP, 40 more with scalars, cut indices and
    their V_3 batch, a 9 x 9 grid sample, and the r = 3 field of a 2-d polynomial."""
    rng = np.random.default_rng(seed)
    dp_seqs = []
    for _ in range(60):
        L = rng.integers(2, 11)
        dp_seqs.append(rng.normal(size=L) + 1j * rng.normal(size=L))
    seqs, cs, cuts = [], [], []
    for _ in range(40):
        L = int(rng.integers(2, 14))
        seqs.append(rng.normal(size=L) + 1j * rng.normal(size=L))
        cs.append(complex(rng.normal(), rng.normal()))
        cuts.append(int(rng.integers(1, L)))
    P, h = hypercube(2), random_trig_polynomial(2, 3, 0.8, seed + 7)
    return SimpleNamespace(
        dp_seqs=dp_seqs, rs=(1.0, 2.0, 3.0), seqs=seqs, cs=cs, cuts=cuts, v3=_v_r_batch(seqs, 3.0),
        grid=GridSamples(2, 9, rng.exponential(size=(9, 9))), ps=(1.0, 1.5, 2.0, 3.0),
        alphas=(0.0, 0.3, 1.0, 2.5), h=h, P=P, field=v_r_field(h, P, default_resolution(3), 3.0),
        r=3.0, stride=7, levels=(0.0, 0.5, 1.0))


def run_verify(seed: int = 42, out=None, polytope_file=None) -> tuple[int, list[CheckResult]]:
    """Run every invariant suite on seeded instances; 0 exit iff all pass.

    When a polytope file is given it is loaded first (so a corrupt file fails
    before any output is written) and joins the instance list.  Each instance
    draws its geometry samples from its own seeded stream, so the file leaves
    the checks of the built-in instances unchanged.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    instances: list[tuple[str, HPolytope]] = []
    if polytope_file is not None:
        instances.append(("file", fileio.load_polytope(polytope_file)))
    instances += [
        ("square", hypercube(2)),
        ("cross2", cross_polytope(2)),
        ("cube3", hypercube(3)),
        ("rand2a", random_polytope(2, 6, seed)),
        ("rand2b", random_polytope(2, 8, seed + 1)),
        ("rand3", random_polytope(3, 5, seed + 2)),
    ]

    pieces = {label: triangulate(P) for label, P in instances}
    runs = [(label, _geometry_context(P, pieces[label], label, seed), _kinds("geometry", P.dim))
            for label, P in instances]
    # freezing_identity[square] and the unlabelled halfspace_cone_boundary each draw their own f
    own_f = {"freezing_identity": ("square", random_trig_polynomial(2, 6, 0.7, seed + 23)),
             "halfspace_cone_boundary": (None, random_trig_polynomial(2, 4, 1.0, seed + 29))}
    shared = [kind for kind in _kinds("spectral") if kind not in own_f]
    spectral = [(label, P) for label, P in instances if label not in ("cube3", "rand2a")]
    # one spectral draw per dimension: every instance of it reads the same
    draws = {dim: _spectral_draw(dim, seed + 17) for dim in {P.dim for _, P in spectral}}
    runs += [(label, _spectral_context(P, pieces[label], draws[P.dim]), shared)
             for label, P in spectral]
    square = dict(instances)["square"]
    runs += [(label, SimpleNamespace(f=f, P=square, pieces=pieces["square"], M=13), [kind])
             for kind, (label, f) in own_f.items()]
    runs.append((None, _variation_context(seed + 31), _kinds("variation")))

    results: list[CheckResult] = []
    for label, context, kinds in runs:
        for suite, kind, bound, key, margin in CHECKS:
            if kind in kinds:
                value = margin(context)
                name = kind if label is None else f"{kind}[{label}]"
                results.append(CheckResult(suite, name, value <= bound, f"{key}={value:.3e}"))

    status = 0 if all(r.passed for r in results) else 1
    if out is not None:
        config = {"seed": seed, "polytope_file": str(polytope_file) if polytope_file else None}
        fileio.write_csv(
            out,
            _config_comments(config),
            ["suite", "check", "passed", "detail"],
            ([r.suite, r.name, r.passed, r.detail] for r in results),
        )
    return status, results


# ---------------------------------------------------------------------------
# ratio experiment


def run_ratio_experiment(
    bandwidths=(4, 8, 16),
    r: float = 3.0,
    p: float = 2.0,
    dim: int = 2,
    ensemble: int = 32,
    density: float = 1.0,
    seed: int = 42,
    out=None,
) -> RatioReport:
    """Tabulate ||V_r(S_lam f)||_p / ||f||_p over a random ensemble per bandwidth.

    Requires 2 < r < inf, p >= r' = r/(r-1), bandwidths >= 1 and a
    nonnegative seed.  Each member's grid is transformed once, for both the
    variation field and f (``_field_and_samples``).  Headline statistics are
    the per-bandwidth medians, reported alongside maxima so a single outlier
    draw cannot dominate the table.
    """
    if not 2.0 < r < np.inf:
        raise ValueError("variation exponent must exceed 2 and be finite")
    if not np.isfinite(p) or p < r / (r - 1.0):
        raise ValueError("norm exponent must satisfy r' <= p < inf")
    if ensemble < 1:
        raise ValueError("ensemble must be nonempty")
    if not len(bandwidths):
        raise ValueError("bandwidth ladder must be nonempty")
    if min(bandwidths) < 1:
        raise ValueError("bandwidth must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rows: list[RatioRow] = []
    config = {
        "bandwidths": list(bandwidths),
        "r": r,
        "p": p,
        "dim": dim,
        "ensemble": ensemble,
        "density": density,
        "seed": seed,
        "polytope": "hypercube",
    }
    P = hypercube(dim)
    for B in bandwidths:
        M = default_resolution(B)
        for member in range(ensemble):
            child = np.random.SeedSequence((seed, B, member))
            f = random_trig_polynomial(dim, B, density, child)
            field, fs = _field_and_samples(f, P, M, r)
            fs = fs.abs()
            f_lp, vr_lp = lp_norm(fs, p), lp_norm(field, p)
            rows.append(RatioRow(member, B, r, p, f_lp, vr_lp, vr_lp / f_lp if f_lp > 0.0 else 0.0,
                                 weak_lp_norm(field, p), lorentz_p1_norm(fs, p)))
    ratios = {B: [row.ratio for row in rows if row.bandwidth == B] for B in bandwidths}
    medians = {B: float(np.median(v)) for B, v in ratios.items()}
    maxima = {B: float(np.max(v)) for B, v in ratios.items()}
    report = RatioReport(rows=rows, medians=medians, maxima=maxima, config=config)
    if out is not None:
        comments = _config_comments(config)
        comments += [f"{name}_ratio B={B}: {fileio.format_number(stat[B])}"
                     for name, stat in (("median", medians), ("max", maxima)) for B in bandwidths]
        columns = [c.name for c in fields(RatioRow)]
        cells = ([getattr(row, c) for c in columns] for row in rows)
        fileio.write_csv(out, comments, columns, cells)
    return report


# ---------------------------------------------------------------------------
# convergence


def smooth_polynomial(dim: int, bandwidth: int) -> TrigPolynomial:
    """Coefficients (1 + |n|^2)^{-2} on the box |n_j| <= B; real and rapidly decaying."""
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    freqs = _box(dim, bandwidth)
    coeffs = (1.0 + np.sum(freqs.astype(float) ** 2, axis=1)) ** -2.0
    return TrigPolynomial(dim, freqs, coeffs.astype(complex))


def run_convergence(bandwidth: int = 8, dim: int = 2, out=None) -> list[tuple]:
    """Sup-norm error of partial sums along the breakpoint ladder.

    Returns rows (k, lam, sup_err, running_min, tail_bound); the final row's
    error is exactly zero (bandlimited saturation) and every error is bounded
    by the tail coefficient sum.
    """
    P = hypercube(dim)
    f = smooth_polynomial(dim, bandwidth)
    M = default_resolution(bandwidth)
    shells = _Shells(f, P)  # one plan: the tail splits shells as the family does
    bps = shells.breakpoints
    values = shells.family(M)
    final = values[:, -1]
    abs_c = np.abs(f.coeffs)
    rows = []
    running = np.inf
    for k, lam in enumerate(bps):
        err = float(np.max(np.abs(values[:, k] - final)))
        running = min(running, err)
        tail = float(np.sum(abs_c[shells.index > k]))
        rows.append((k, float(lam), err, running, tail))
    if out is not None:
        config = {"bandwidth": bandwidth, "dim": dim, "resolution": M}
        fileio.write_csv(
            out,
            _config_comments(config),
            ["k", "lam", "sup_err", "running_min", "tail_bound"],
            rows,
        )
    return rows
