"""Convex polytopes with the origin interior: half-space and vertex forms,
Minkowski gauges, facet enumeration, and the fan triangulation over facets.

Half-space data is ``A x <= b`` with every offset positive; constructors
rescale each row so ``b = 1``, which makes the gauge of a point simply
``max(A @ x, 0)`` and makes rows comparable entrywise.  Everything here works
in any dimension: vertex enumeration solves all C(m, d) row tuples, and it
also serves the other direction, since the b = 1 facet rows of a vertex set
are the vertices of its polar ``{y : v.y <= 1}``.  Piece i of the fan is
where row i attains the gauge, so its cone walls are ``(a_j - a_i).x <= 0``
over the neighbouring rows j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GEO_TOL",
    "DEDUP_TOL",
    "HPolytope",
    "VPolytope",
    "Facet",
    "hypercube",
    "cross_polytope",
    "interval",
    "gauge",
    "contains",
    "vertices_from_h",
    "h_from_vertices",
    "facets",
    "triangulate",
    "assign_rows",
    "piece_assign",
    "piece_contains",
    "rotation_to_e1",
    "cone_halfspaces",
]

GEO_TOL = 1e-9    # tightness tolerance for enumeration and membership
DEDUP_TOL = 1e-7  # relative distance below which enumerated vertices merge

# float entries of one block of candidate-times-rows products in the
# enumeration, so memory stays bounded however many rows there are
_ENUM_BUDGET = 1_000_000


@dataclass(eq=False)
class HPolytope:
    """Bounded polytope ``{x : A x <= b}`` with the origin in its interior.

    Rows are rescaled on construction so every offset equals one.  ``b`` is
    kept as an explicit (all-ones) vector so the ``(a_i, b_i)`` pairing stays
    visible to callers; row order is preserved and is semantically meaningful
    (it fixes the tie-break in :func:`piece_assign`).
    """

    dim: int
    A: np.ndarray
    b: np.ndarray | None = None
    # vertex form, stored by the first vertices_from_h(self)
    _vertices: VPolytope | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise ValueError(f"constraint matrix must have {self.dim} columns")
        if A.shape[0] < self.dim + 1:
            raise ValueError("a bounded polytope with interior needs at least d+1 rows")
        if self.b is None:
            b = np.ones(A.shape[0])
        else:
            b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape[0] != A.shape[0]:
            raise ValueError("row count mismatch between A and b")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise ValueError("non-finite constraint data")
        if np.any(b <= 0.0):
            raise ValueError("every offset must be positive (origin must be interior)")
        A = A / b[:, None]
        if np.any(np.linalg.norm(A, axis=1) < 1e-14):
            raise ValueError("zero constraint row")
        self.A = A
        self.b = np.ones(A.shape[0])
        self.A.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def m(self) -> int:
        """Number of half-space rows."""
        return self.A.shape[0]

    def validate(self) -> "HPolytope":
        """Certify irredundancy and boundedness by facet enumeration.

        Unbounded input, rows that are not facets and duplicated rows (see
        :func:`facets`) raise ``ValueError``.
        """
        facets(self, vertices_from_h(self))
        return self


@dataclass(eq=False)
class VPolytope:
    """Polytope as the convex hull of its vertex set."""

    dim: int
    vertices: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.ndim != 2 or V.shape[1] != self.dim:
            raise ValueError(f"vertices must be {self.dim}-vectors")
        if V.shape[0] < self.dim + 1:
            raise ValueError("need at least d+1 vertices")
        if not np.all(np.isfinite(V)):
            raise ValueError("non-finite vertex data")
        self.vertices = V
        self.vertices.setflags(write=False)

    def validate(self) -> "VPolytope":
        """Check minimality (every point is extreme) and the interior origin.

        These are the irredundancy and boundedness of the polar, whose rows
        are the points: see :meth:`HPolytope.validate`.
        """
        HPolytope(self.dim, self.vertices).validate()
        return self


@dataclass(eq=False)
class Facet:
    """One bounding row together with the vertices tight on it.

    A facet is also its fan piece: the cone over the facet cut by its row,
    ``{t x : x in facet, 0 <= t <= 1}``, whose index is the row index.
    """

    index: int
    a: np.ndarray
    b: float
    vertices: np.ndarray

    @property
    def normal(self) -> np.ndarray:
        """Unit outward normal of the supporting hyperplane."""
        return self.a / np.linalg.norm(self.a)


def hypercube(dim: int, radius: float = 1.0) -> HPolytope:
    """Sup-norm ball ``{|x_j| <= radius}`` with rows ordered +e_1, -e_1, +e_2, ..."""
    rows = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        rows.append(e)
        rows.append(-e)
    return HPolytope(dim, np.array(rows) / radius)

def cross_polytope(dim: int, radius: float = 1.0) -> HPolytope:
    """l1 ball ``{sum |x_j| <= radius}``; one row per sign pattern."""
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    return HPolytope(dim, rows / radius)

def interval(lo: float, hi: float) -> HPolytope:
    """The 1-d polytope [lo, hi]; requires lo < 0 < hi."""
    if not lo < 0.0 < hi:
        raise ValueError("interval must contain the origin in its interior")
    return HPolytope(1, [[1.0 / hi], [1.0 / lo]])


def gauge(P: HPolytope, x) -> float | np.ndarray:
    """Minkowski gauge inf{t >= 0 : x in tP} = max(max_i a_i.x / b_i, 0).

    Accepts a single d-vector or any array of shape (..., d); positively
    homogeneous of degree one.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != P.dim:
        raise ValueError(f"expected points with trailing dimension {P.dim}")
    g = np.maximum(_row_max(x @ P.A.T), 0.0)
    return float(g) if g.ndim == 0 else g


def _row_max(vals: np.ndarray) -> np.ndarray:
    """Maximum over the short trailing axis of vals, shape (..., m) -> (...)."""
    # np.max(vals, axis=-1) gives the same maxima but is several times slower at small m
    rows = vals.reshape(-1, vals.shape[-1]).T.copy()
    return np.maximum.reduce(rows).reshape(vals.shape[:-1])


def contains(P: HPolytope, x, lam):
    """Closed-dilate membership: x in lam*P, i.e. gauge(P, x) <= lam; ``lam`` is
    a scalar or an array broadcasting against the points."""
    if not np.all(np.asarray(lam) >= 0.0):
        raise ValueError("dilate parameter must be nonnegative")
    return gauge(P, x) <= lam


def _tuple_blocks(m: int, k: int):
    """The k-subsets of range(m) in lex order, as (s, k) index blocks of at
    most ``_ENUM_BUDGET // m`` rows, so no caller builds the full list."""
    tuples = itertools.combinations(range(m), k)
    step = max(1, _ENUM_BUDGET // m)
    while len(rows := np.array(list(itertools.islice(tuples, step)), dtype=np.intp)):
        yield rows


def _bounded_rows(A: np.ndarray) -> bool:
    """True iff the recession cone {u : A u <= 0} is trivial.

    For full-rank A that cone is pointed, so if nontrivial it has an extreme
    ray +-c on d-1 row boundaries, c their cofactor vector: entry k is (-1)^k
    times the determinant with column k removed (d = 1: the empty tuple, c = 1).
    So it is trivial iff each such +-c has a row a with a.(+-c) > 0.
    """
    d = A.shape[1]
    if np.linalg.matrix_rank(A, tol=1e-9) < d:
        return False
    minors = np.array([[j for j in range(d) if j != k] for k in range(d)], dtype=np.intp)
    for rows in _tuple_blocks(A.shape[0], d - 1):
        c = np.linalg.det(A[rows][..., minors].swapaxes(1, 2)) * (-1.0) ** np.arange(d)
        nu = np.linalg.norm(c, axis=1)
        vals = (c[nu >= 1e-12] / nu[nu >= 1e-12, None]) @ A.T
        if not (np.all(vals.max(axis=1) > 1e-9) and np.all(vals.min(axis=1) < -1e-9)):
            return False
    return True


def _dedup_points(pts: np.ndarray, tol: float) -> np.ndarray:
    """Greedy merge in lex order: keep p unless within tol * (1 + |p|) of a kept point."""
    pts = pts[np.lexsort(pts.T[::-1])]
    bound = tol * (1.0 + np.linalg.norm(pts, axis=1))
    kept: list[int] = []
    rest = np.arange(pts.shape[0])
    while rest.size:  # the first undecided point is kept; it absorbs its near copies
        kept.append(rest[0])
        rest = rest[np.linalg.norm(pts[rest] - pts[rest[0]], axis=1) > bound[rest]]
    return pts[kept]


def vertices_from_h(P: HPolytope) -> VPolytope:
    """Vertices as the feasible intersections of d tight rows, over all C(m, d)
    row tuples.  Raises ``ValueError`` on unbounded or lower-dimensional input.

    Each polytope object is enumerated once: the result is stored on P and
    later calls return it, so ``validate``, :func:`triangulate` and the round
    trip share one enumeration.  P's rows and the vertices are read-only, so
    sharing is safe; a failed enumeration is not stored and raises again.
    """
    if P._vertices is not None:
        return P._vertices
    if not _bounded_rows(P.A):
        raise ValueError("unbounded: row normals do not positively span R^d")
    found = []
    for rows in _tuple_blocks(P.m, P.dim):
        M = P.A[rows]
        scale = np.prod(np.linalg.norm(M, axis=2), axis=1)
        ok = np.abs(np.linalg.det(M)) > 1e-12 * np.maximum(scale, 1e-30)
        cands = np.linalg.solve(M[ok], P.b[rows[ok]][..., None])[..., 0]
        found.append(cands[np.all(cands @ P.A.T <= P.b + GEO_TOL, axis=1)])
    found = np.concatenate(found)
    if not found.size:
        raise ValueError("degenerate input: no vertices found")
    verts = _dedup_points(found, DEDUP_TOL)
    if verts.shape[0] < P.dim + 1:
        raise ValueError("degenerate input: fewer than d+1 vertices")
    P._vertices = VPolytope(P.dim, verts)
    return P._vertices


def h_from_vertices(Q: VPolytope) -> HPolytope:
    """Irredundant half-space form of a vertex set, rows normalized to b = 1.

    The rows are the vertices of the polar ``{y : v.y <= 1 for each vertex v}``,
    found by :func:`vertices_from_h`, so one enumerator serves both
    directions.  Requires the origin interior to the hull (else the polar is
    unbounded); round-trips with :func:`vertices_from_h` up to row and vertex
    order.
    """
    if Q.dim == 1:  # keep interval's row order: it fixes the owner of n = 0
        return interval(float(Q.vertices.min()), float(Q.vertices.max()))
    return HPolytope(Q.dim, vertices_from_h(HPolytope(Q.dim, Q.vertices)).vertices)


def facets(P: HPolytope, Q: VPolytope) -> list[Facet]:
    """One facet per H-row: the row plus the vertices of Q tight on it.

    ``P`` and ``Q`` must describe the same polytope.  A vertex violating a
    row, a row whose tight vertices do not span a (d-1)-dimensional set (a
    redundant row) and a row with the same tight vertices as an earlier row
    (a duplicated row) raise ``ValueError``.
    """
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    V = Q.vertices
    vals = V @ P.A.T
    if np.any(vals > P.b + GEO_TOL):
        raise ValueError("inconsistent representations: a vertex violates a row")
    tight = np.abs(vals - P.b) <= GEO_TOL  # (vertex, row)
    first: dict[bytes, int] = {}
    out = []
    for i in range(P.m):
        on = V[tight[:, i]]
        if on.shape[0] < P.dim or np.linalg.matrix_rank(on - on[0], tol=1e-8) != P.dim - 1:
            raise ValueError(f"row {i} is not a facet; redundant or inconsistent")
        j = first.setdefault(tight[:, i].tobytes(), i)
        if j != i:
            raise ValueError(f"rows {j} and {i} are duplicates")
        a = P.A[i].copy()
        a.setflags(write=False)
        out.append(Facet(index=i, a=a, b=float(P.b[i]), vertices=on))
    return out


def triangulate(P: HPolytope) -> list[Facet]:
    """Fan triangulation: one cone-over-facet piece per H-row, as its :class:`Facet`.

    The pieces cover P, have pairwise disjoint interiors, and each equals the
    facet's cone intersected with its supporting half-space.
    """
    return facets(P, vertices_from_h(P))


def assign_rows(P: HPolytope, x) -> int | np.ndarray:
    """Index of the first row attaining max_i a_i.x (vectorized piece label)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != P.dim:
        raise ValueError(f"expected points with trailing dimension {P.dim}")
    idx = np.argmax(x @ P.A.T, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def piece_assign(P: HPolytope, x) -> int | np.ndarray:
    """Deterministic piece label for x: lowest row index attaining the gauge.

    Total on all inputs; the zero vector goes to piece 0.  Together with the
    closed pieces this turns the fan into an exact partition rule for any
    finite point set (shared boundaries go to the lowest index).  A single
    point gets an int, a batch of shape (..., d) an int array of shape (...).
    """
    return assign_rows(P, x)


def piece_contains(piece: Facet, P: HPolytope, x):
    """Closed membership in the piece: its row attains the gauge and a.x <= b."""
    x = np.asarray(x, dtype=float)
    g = gauge(P, x)
    row = x @ piece.a
    return (row >= g - GEO_TOL) & (row <= piece.b + GEO_TOL)


def rotation_to_e1(facet) -> np.ndarray:
    """Orthogonal matrix with determinant +1 sending the facet normal to e_1.

    Built from a Householder reflection composed with a coordinate-flip
    reflection that restores orientation.  Accepts a :class:`Facet` or a raw
    normal vector; raises on zero normals and on the 1-d mirror case, which no
    orientation-preserving map covers.
    """
    a = np.asarray(facet.a if isinstance(facet, Facet) else facet, dtype=float).reshape(-1)
    nrm = np.linalg.norm(a)
    if nrm < 1e-14:
        raise ValueError("zero normal")
    n = a / nrm
    d = n.shape[0]
    if d == 1:
        if n[0] > 0:
            return np.eye(1)
        raise ValueError("no determinant +1 rotation reverses a 1-d normal")
    e1 = np.zeros(d)
    e1[0] = 1.0
    if n[0] >= 0.0:
        # reflect n onto -e1 (no cancellation in w), then flip the first axis
        w = n + e1
        flip = 0
    else:
        w = n - e1
        flip = d - 1
    H = np.eye(d) - 2.0 * np.outer(w, w) / (w @ w)
    R = H.copy()
    R[flip, :] *= -1.0
    assert np.linalg.norm(R @ n - e1) < 1e-12
    return R


def cone_halfspaces(piece: Facet, P: HPolytope) -> np.ndarray:
    """Unit rows r with r.x <= 0 cutting out the piece's cone, in any dimension.

    The piece is where its row attains the gauge, so its walls are
    ``(a_j - a_i).x <= 0`` over the neighbouring rows j: those tight on at
    least d-1 of the piece's vertices.  Rows come in row order.
    """
    near = np.sum(np.abs(piece.vertices @ P.A.T - P.b) <= GEO_TOL, axis=0) >= P.dim - 1
    near[piece.index] = False
    rows = P.A[near] - piece.a
    return rows / np.linalg.norm(rows, axis=1)[:, None]
