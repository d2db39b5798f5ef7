import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysum.geometry import (
    Facet,
    HPolytope,
    VPolytope,
    assign_rows,
    cone_halfspaces,
    contains,
    cross_polytope,
    facets,
    gauge,
    h_from_vertices,
    hypercube,
    interval,
    piece_assign,
    piece_contains,
    rotation_to_e1,
    triangulate,
    vertices_from_h,
)
from polysum import experiments
from polysum.generators import random_piece_points, random_polytope
from test_corpus import CORPUS


def _sorted_rows(A):
    return A[np.lexsort(A.T[::-1])]


# ---------------------------------------------------------------------------
# gauge and membership


def test_gauge_of_square_is_sup_norm():
    P = hypercube(2)
    assert gauge(P, [0.5, -0.25]) == 0.5
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(200, 2))
    assert np.allclose(gauge(P, X), np.max(np.abs(X), axis=1), atol=1e-14)


def test_gauge_zero_vector():
    for P in (hypercube(2), cross_polytope(3), interval(-2.0, 3.0)):
        assert gauge(P, np.zeros(P.dim)) == 0.0


def test_gauge_of_cross_polytope_is_l1_norm():
    P = cross_polytope(2)
    assert gauge(P, [1.0, 2.0]) == pytest.approx(3.0, abs=1e-14)
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(100, 2))
    assert np.allclose(gauge(P, X), np.sum(np.abs(X), axis=1), atol=1e-13)


def test_gauge_dimension_mismatch():
    P = hypercube(2)
    with pytest.raises(ValueError):
        gauge(P, [1.0, 2.0, 3.0])
    piece = triangulate(P)[0]
    for op in (gauge, assign_rows, piece_assign, lambda P, x: piece_contains(piece, P, x)):
        with pytest.raises(ValueError, match="trailing dimension 2"):
            op(P, 3.0)  # a bare scalar is no 2-d point


def test_gauge_equals_the_trailing_axis_maximum():
    P = random_polytope(3, 9, seed=5)
    rng = np.random.default_rng(6)

    def reference(x):
        return np.maximum(np.max(x @ P.A.T, axis=-1), 0.0)

    x = rng.normal(size=3)
    assert gauge(P, x) == float(reference(x))
    for X in (rng.normal(size=(200, 3)), rng.normal(size=(4, 5, 3)), np.zeros((0, 3))):
        got = gauge(P, X)
        assert got.shape == X.shape[:-1] and np.array_equal(got, reference(X))
    X = rng.normal(size=(6, 3))
    X[0, 0], X[1, 1], X[2, 2], X[3] = np.nan, np.inf, -np.inf, [np.inf, -np.inf, 0.0]
    X[4] = -0.0  # signed-zero products
    with np.errstate(invalid="ignore"):  # inf * 0 in the row products
        got, want = gauge(P, X), reference(X)
    assert np.isnan(got[0]) and np.isnan(got[3])  # only a NaN's sign bit may differ
    assert np.array_equal(got, want, equal_nan=True)


@given(
    x=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    t=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_gauge_positive_homogeneity(x, t):
    P = cross_polytope(2)
    X = np.asarray([x])
    assert experiments.gauge_homogeneity(P, X, gauge(P, X), np.array([t])) <= 1e-12


def test_contains_boundary_and_errors():
    P = hypercube(2)
    assert contains(P, [1.0, 1.0], 1.0)
    assert not contains(P, [1.0, 1.0], 0.999)
    assert contains(P, [0.0, 0.0], 0.0)
    assert not contains(P, [1e-9, 0.0], 0.0)
    for lam in (-0.1, np.nan):
        with pytest.raises(ValueError):
            contains(P, [0.0, 0.0], lam)


def test_contains_array_of_dilates():
    P = hypercube(2)
    X = np.array([[1.0, 1.0], [0.5, -0.25], [0.0, 0.0]])
    lams = np.array([1.0, 0.4, 0.0])
    assert contains(P, X, lams).tolist() == [True, False, True]
    grid = contains(P, X[:, None, :], np.array([0.0, 0.5, 1.0]))  # (points, dilates)
    assert grid.tolist() == [[contains(P, x, lam) for lam in (0.0, 0.5, 1.0)] for x in X]
    for bad in ([1.0, -0.1, 2.0], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError, match="dilate parameter must be nonnegative"):
            contains(P, X, np.array(bad))


# ---------------------------------------------------------------------------
# representation conversion


def test_vertices_of_square():
    V = vertices_from_h(hypercube(2)).vertices
    expect = np.array(sorted([(-1, -1), (-1, 1), (1, -1), (1, 1)]))
    assert np.allclose(_sorted_rows(V), expect, atol=1e-12)


def test_vertices_of_interval():
    V = vertices_from_h(interval(-2.0, 3.0)).vertices
    assert sorted(V.ravel().tolist()) == pytest.approx([-2.0, 3.0])


def test_vertices_random_polygon_against_bruteforce_oracle():
    P = random_polytope(2, 6, seed=11)
    # oracle: intersect every pair of boundary lines, keep feasible points
    expected = []
    for i, j in itertools.combinations(range(P.m), 2):
        M = P.A[[i, j]]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, P.b[[i, j]])
        if np.all(P.A @ v <= P.b + 1e-9):
            expected.append(v)
    expected = np.array(expected)
    got = vertices_from_h(P).vertices
    assert got.shape[0] == 6
    for v in got:
        assert np.min(np.linalg.norm(expected - v, axis=1)) <= 1e-9
        n_tight = np.sum(np.abs(P.A @ v - P.b) <= 1e-9)
        assert n_tight == 2


def test_h_from_vertices_cross_polytope():
    Q = VPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
    P = h_from_vertices(Q)
    assert P.m == 4
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(200, 2))
    assert np.allclose(gauge(P, X), np.sum(np.abs(X), axis=1), atol=1e-12)


def test_h_from_vertices_circle_roundtrip():
    ang = 2.0 * np.pi * np.arange(8) / 8.0 + 0.3
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    P = h_from_vertices(VPolytope(2, pts))
    back = vertices_from_h(P).vertices
    assert back.shape[0] == 8
    for p in pts:
        assert np.min(np.linalg.norm(back - p, axis=1)) <= 1e-9


def test_h_from_vertices_rejects_origin_outside():
    with pytest.raises(ValueError):
        h_from_vertices(VPolytope(2, [[1, 1], [2, 1], [1, 2]]))
    with pytest.raises(ValueError):
        h_from_vertices(VPolytope(1, [[1.0], [2.0]]))


def test_h_from_vertices_keeps_interval_row_order():
    # row order fixes the lowest-index owner of n = 0, so 1-d rows stay [1/hi], [1/lo]
    assert np.array_equal(h_from_vertices(VPolytope(1, [[-2.0], [3.0]])).A,
                          interval(-2.0, 3.0).A)


@pytest.mark.parametrize("pts", [
    [[0, 0], [1, 0], [0, 1]],                # origin at a vertex
    [[-1, 0], [1, 0], [0, 1]],               # origin on an edge
    [[1, 1], [2, 1], [1, 2]],                # origin outside
    [[-1, -1], [0.5, 0.5], [1, 1]],          # collinear
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],  # flat in 3-d
])
def test_degenerate_vertex_sets_raise(pts):
    Q = VPolytope(np.shape(pts)[1], pts)
    with pytest.raises(ValueError):
        h_from_vertices(Q)
    with pytest.raises(ValueError):
        Q.validate()


def test_vertices_rejects_unbounded():
    # only "upper" constraints: the negative quadrant escapes
    with pytest.raises(ValueError):
        vertices_from_h(HPolytope(2, [[1, 0], [0, 1], [1, 1]]))
    # a.u < 0 on every row leaves the whole ray t * u inside, in any dimension
    rng = np.random.default_rng(90)
    for dim in (1, 2, 3, 4):
        for _ in range(50):
            u = rng.normal(size=dim)
            A = rng.normal(size=(dim + 4, dim))
            A[A @ u > 0] *= -1.0
            with pytest.raises(ValueError, match="unbounded"):
                vertices_from_h(HPolytope(dim, A))


@pytest.fixture
def enumerations(monkeypatch):
    """One entry per vertex enumeration, counted at its boundedness test."""
    from polysum import geometry

    calls = []
    bounded = geometry._bounded_rows

    def counted(A):
        calls.append(1)
        return bounded(A)

    monkeypatch.setattr(geometry, "_bounded_rows", counted)
    return calls


def test_each_polytope_is_enumerated_once(enumerations):
    P = random_polytope(2, 7, seed=3)
    enumerations.clear()  # random_polytope enumerates the polars it tries
    assert vertices_from_h(P) is vertices_from_h(P)
    P.validate()
    assert len(triangulate(P)) == P.m and len(enumerations) == 1
    assert not vertices_from_h(P).vertices.flags.writeable
    # a failed enumeration is not stored: it raises again
    unbounded = HPolytope(2, [[1, 0], [0, 1], [1, 1]])
    for _ in range(2):
        with pytest.raises(ValueError, match="unbounded"):
            vertices_from_h(unbounded)
    assert len(enumerations) == 3


def test_run_verify_enumerates_each_polytope_once(enumerations):
    experiments.run_verify(seed=42)
    assert len(enumerations) == 21  # one enumeration per use makes 27


def test_enumeration_in_four_dimensions():
    P = hypercube(4)
    assert gauge(P, [0.5, -0.25, 0.1, 0.9]) == 0.9
    assert contains(P, [1.0, 1.0, 1.0, 1.0], 1.0)
    assert vertices_from_h(P).vertices.shape == (16, 4)
    assert [pc.vertices.shape for pc in triangulate(P)] == [(8, 4)] * 8
    C = cross_polytope(4)
    assert vertices_from_h(C).vertices.shape == (8, 4)
    assert [pc.vertices.shape for pc in triangulate(C)] == [(4, 4)] * 16
    for Q in (P, C):
        Q.validate()
    # e_1..e_4 and (1,1,1,1) leave the negative orthant unbounded
    unbounded = HPolytope(4, np.vstack([np.eye(4), np.ones(4)]))
    for op in (vertices_from_h, triangulate, HPolytope.validate):
        with pytest.raises(ValueError):
            op(unbounded)


def test_hpolytope_needs_enough_rows():
    with pytest.raises(ValueError):
        HPolytope(2, [[1, 0], [-1, 0]])  # a slab is not a polytope


# ---------------------------------------------------------------------------
# facets


def test_facets_of_square_and_cube():
    P2 = hypercube(2)
    fs2 = facets(P2, vertices_from_h(P2))
    assert len(fs2) == 4 and all(f.vertices.shape == (2, 2) for f in fs2)
    P3 = hypercube(3)
    fs3 = facets(P3, vertices_from_h(P3))
    assert len(fs3) == 6 and all(f.vertices.shape == (4, 3) for f in fs3)
    for f in fs3:
        assert np.allclose(f.vertices @ f.a, f.b, atol=1e-12)


def test_facets_cover_boundary_samples():
    P = random_polytope(2, 7, seed=13)
    fs = facets(P, vertices_from_h(P))
    rng = np.random.default_rng(14)
    X = rng.normal(size=(1000, 2))
    Y = X / gauge(P, X)[:, None]  # radial projection onto the boundary
    for y in Y:
        on_some = False
        for f in fs:
            if abs(f.a @ y - f.b) > 1e-9:
                continue
            v0, v1 = f.vertices[0], f.vertices[1]
            t = (y - v0) @ (v1 - v0) / ((v1 - v0) @ (v1 - v0))
            if -1e-9 <= t <= 1.0 + 1e-9 and np.linalg.norm(v0 + t * (v1 - v0) - y) <= 1e-9:
                on_some = True
                break
        assert on_some


def test_facets_reject_redundant_row():
    # x1 <= 2 never touches the unit square
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [0.5, 0]])
    P = HPolytope(2, A)
    with pytest.raises(ValueError):
        facets(P, vertices_from_h(P))
    with pytest.raises(ValueError):
        P.validate()


def test_validate_detects_duplicates_and_passes_good_inputs():
    hypercube(3).validate()
    cross_polytope(3).validate()
    random_polytope(2, 8, seed=21).validate()
    dup = HPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0]], [1, 1, 1, 1, 2])
    with pytest.raises(ValueError):
        dup.validate()
    with pytest.raises(ValueError):
        facets(dup, vertices_from_h(dup))
    with pytest.raises(ValueError):  # no second copy of piece 0
        triangulate(dup)


def test_hpolytope_constructor_contracts():
    with pytest.raises(ValueError):
        HPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, -1])
    with pytest.raises(ValueError):
        HPolytope(2, [[1, 0], [-1, 0], [0, 0], [0, -1]])
    P = HPolytope(2, [[2, 0], [-2, 0], [0, 2], [0, -2]], [4, 4, 4, 4])
    assert np.all(P.b == 1.0)
    assert gauge(P, [2.0, 0.0]) == pytest.approx(1.0)


def test_vpolytope_validate():
    VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1]]).validate()
    with pytest.raises(ValueError):  # midpoint of an edge is not extreme
        VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 0]]).validate()
    with pytest.raises(ValueError):  # origin on the boundary
        VPolytope(2, [[0, 0], [1, 0], [0, 1]]).validate()
    with pytest.raises(ValueError):  # interior point
        VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1], [0.5, 0]]).validate()
    with pytest.raises(ValueError):  # duplicate point
        VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 1]]).validate()
    with pytest.raises(ValueError):  # duplicate point in 1-d
        VPolytope(1, [[-1], [-1], [2]]).validate()
    VPolytope(1, [[-1], [2]]).validate()


# ---------------------------------------------------------------------------
# triangulation and piece assignment


def test_triangulate_square_is_the_classic_fan():
    P = hypercube(2)
    pieces = triangulate(P)
    assert len(pieces) == 4
    for pc in pieces:
        assert pc.vertices.shape == (2, 2)
        assert np.allclose(pc.vertices @ pc.a, 1.0, atol=1e-12)
        # apex at the origin: scaled-down generators stay in the piece
        assert bool(piece_contains(pc, P, 0.5 * pc.vertices.mean(axis=0)))
        assert bool(piece_contains(pc, P, np.zeros(2)))


def test_triangulate_interval():
    P = interval(-2.0, 3.0)
    pieces = triangulate(P)
    assert len(pieces) == 2
    gens = sorted(float(pc.vertices[0, 0]) for pc in pieces)
    assert gens == pytest.approx([-2.0, 3.0])
    up = pieces[0] if pieces[0].vertices[0, 0] > 0 else pieces[1]
    down = pieces[1] if up is pieces[0] else pieces[0]
    assert bool(piece_contains(up, P, [1.5])) and not bool(piece_contains(up, P, [-0.5]))
    assert bool(piece_contains(down, P, [-1.5])) and not bool(piece_contains(down, P, [0.5]))
    assert bool(piece_contains(up, P, [0.0])) and bool(piece_contains(down, P, [0.0]))


# per-piece forms of the batched fan checks: one membership, gather and
# product per piece, as the checks were first written
def _piece_counts_per_piece(P, pieces, X):
    return np.stack([piece_contains(pc, P, X) for pc in pieces]).sum(axis=0)


def _disjoint_per_piece(P, pieces, X):
    srt = np.sort(X @ P.A.T, axis=1)
    counts = _piece_counts_per_piece(P, pieces, X)
    return float(np.sum(counts[srt[:, -1] - srt[:, -2] > 1e-7] > 1))


def _assign_in_piece_per_piece(P, pieces, X):
    assigned = piece_assign(P, X)
    return float(sum(np.sum(~piece_contains(pc, P, X[assigned == k]))
                     for k, pc in enumerate(pieces)))


def _piece_bounded_per_piece(P, pieces, count, seed):
    return max(float(np.max(gauge(P, random_piece_points(pc, count, seed=seed + k)))) - 1.0
               for k, pc in enumerate(pieces))


def _cone_rows_agree_per_piece(P, pieces, X, gap, count, seed, stride):
    vals = X @ P.A.T
    srt = np.sort(vals, axis=1)
    clear = srt[:, -1] - srt[:, -2] > gap
    top = np.argmax(vals, axis=1)
    violations = 0
    for k, pc in enumerate(pieces):
        rows = cone_halfspaces(pc, P)
        own = random_piece_points(pc, count, seed=seed + stride * k)
        violations += int(np.sum(np.max(own @ rows.T, axis=1) > 1e-9))
        foreign = X[clear & (top != pc.index)]
        violations += int(np.sum(np.max(foreign @ rows.T, axis=1) <= 0.0))
    return float(violations)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_batched_fan_checks_equal_their_per_piece_forms(k):
    P = list(CORPUS.values())[k]
    pieces = triangulate(P)
    rng = np.random.default_rng(k)
    X = rng.uniform(-1.5, 1.5, size=(10_000, P.dim))
    inside = X / np.maximum(gauge(P, X), 1e-12)[:, None] * rng.random(10_000)[:, None]
    for Y in (X, inside):
        # the checks read one row table; assign_in_piece as verify reads its first rows
        vals, srt, top = experiments._row_table(P, Y)
        members = experiments._members(pieces, vals)
        counts = np.sum(members, axis=1)
        assert np.array_equal(counts, _piece_counts_per_piece(P, pieces, Y))
        assert experiments.disjoint(srt, counts) == _disjoint_per_piece(P, pieces, Y)
        for n in (300, Y.shape[0]):
            assert (experiments.assign_in_piece(members[:n], top[:n])
                    == _assign_in_piece_per_piece(P, pieces, Y[:n]))
        for gap, stride in ((1e-7, 1), (0.0, 31)):
            assert (experiments.cone_rows_agree(P, pieces, Y, srt, top, gap, 500, k, stride)
                    == _cone_rows_agree_per_piece(P, pieces, Y, gap, 500, k, stride))
    assert (experiments.piece_bounded(P, pieces, 500, k)
            == _piece_bounded_per_piece(P, pieces, 500, k))


def test_piece_assign_lowest_index_rule():
    P = hypercube(2)  # rows ordered +e1, -e1, +e2, -e2
    assert piece_assign(P, [1.0, 1.0]) == 0  # rows 0 and 2 tie
    assert piece_assign(P, [0.0, 0.0]) == 0
    assert piece_assign(P, [-1.0, -1.0]) == 1  # rows 1 and 3 tie
    assert piece_assign(P, [0.0, 0.5]) == 2


def test_assign_rows_is_the_first_maximum_with_ties_and_nan():
    P = hypercube(2)  # rows ordered +e1, -e1, +e2, -e2
    ties = np.array([[1.0, 1.0], [-1.0, -1.0], [-2.0, 2.0], [0.0, 0.0]])
    assert assign_rows(P, ties).tolist() == [0, 1, 1, 0]
    # a row holding NaN gets its first NaN's index; inf * 0 is NaN
    Q = HPolytope(2, [[1.0, 1.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    nans = np.array([[np.inf, 1.0], [1.0, np.inf], [0.5, np.nan], [-np.inf, 0.0]])
    with np.errstate(invalid="ignore"):
        assert assign_rows(Q, nans).tolist() == [1, 2, 0, 1]
        for R, x in ((P, ties), (Q, nans)):
            assert np.array_equal(assign_rows(R, x), np.argmax(x @ R.A.T, axis=-1))
            assert np.array_equal(piece_assign(R, x), assign_rows(R, x))
            assert [assign_rows(R, y) for y in x] == assign_rows(R, x).tolist()
    lattice = np.array(list(itertools.product(range(-4, 5), repeat=3)), dtype=float)
    for R in (cross_polytope(3), hypercube(3), random_polytope(3, 6, seed=71)):
        assert np.array_equal(assign_rows(R, lattice), np.argmax(lattice @ R.A.T, axis=-1))


def test_piece_assign_on_a_batch():
    P = hypercube(2)
    X = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0], [0.0, 0.5]])
    labels = piece_assign(P, X)
    assert labels.dtype.kind == "i" and labels.tolist() == [0, 1, 0, 2]
    assert labels.tolist() == [piece_assign(P, x) for x in X]
    assert piece_assign(P, X.reshape(2, 2, 2)).tolist() == [[0, 1], [0, 2]]
    assert type(piece_assign(P, X[0])) is int


def test_piece_assign_matches_definitional_membership():
    P = random_polytope(2, 7, seed=51)
    pieces = triangulate(P)
    rng = np.random.default_rng(52)
    X = rng.normal(size=(500, 2))
    X = X / np.maximum(gauge(P, X), 1e-12)[:, None] * rng.random(500)[:, None]
    for x in X:
        pc = pieces[piece_assign(P, x)]
        g = gauge(P, x)
        assert g <= 1.0 + 1e-12
        if g < 1e-12:
            continue
        y = x / g  # the facet point in the form x = g * y
        v0, v1 = pc.vertices[0], pc.vertices[1]
        t = (y - v0) @ (v1 - v0) / ((v1 - v0) @ (v1 - v0))
        assert -1e-9 <= t <= 1.0 + 1e-9
        assert np.linalg.norm(v0 + t * (v1 - v0) - y) <= 1e-9


# ---------------------------------------------------------------------------
# rotations


def test_rotation_identity_when_normal_is_e1():
    f = Facet(index=0, a=np.array([2.0, 0.0]), b=1.0, vertices=np.array([[0.5, -1], [0.5, 1]]))
    assert np.allclose(rotation_to_e1(f), np.eye(2), atol=1e-15)


def test_rotation_pi_for_minus_e1():
    R = rotation_to_e1(np.array([-1.0, 0.0]))
    assert np.allclose(R, [[-1, 0], [0, -1]], atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)


def test_rotation_random_normals_d3():
    rng = np.random.default_rng(71)
    e1 = np.array([1.0, 0.0, 0.0])
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        R = rotation_to_e1(n)
        assert np.linalg.norm(R @ n - e1) <= 1e-12
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def test_rotation_maps_facet_plane_to_positive_constant():
    P = random_polytope(3, 6, seed=72)
    for f in facets(P, vertices_from_h(P)):
        R = rotation_to_e1(f)
        imgs = f.vertices @ R.T
        c = imgs[0, 0]
        assert c > 0
        assert np.allclose(imgs[:, 0], c, atol=1e-10)


def test_rotation_errors():
    with pytest.raises(ValueError):
        rotation_to_e1(np.zeros(3))
    assert np.allclose(rotation_to_e1(np.array([2.0])), np.eye(1))
    with pytest.raises(ValueError):
        rotation_to_e1(np.array([-1.0]))


# ---------------------------------------------------------------------------
# cone half-spaces


def test_cone_halfspaces_first_quadrant():
    P = cross_polytope(2)  # row 0 is (1, 1): facet conv{e1, e2}
    pc = triangulate(P)[0]
    rows = _sorted_rows(cone_halfspaces(pc, P))
    assert np.allclose(rows, [[-1, 0], [0, -1]], atol=1e-12)


def test_cone_halfspaces_halfline_1d():
    P = interval(-2.0, 3.0)
    pieces = triangulate(P)
    up = pieces[0] if pieces[0].vertices[0, 0] > 0 else pieces[1]
    assert np.allclose(cone_halfspaces(up, P), [[-1.0]])
    down = pieces[1] if up is pieces[0] else pieces[0]
    assert np.allclose(cone_halfspaces(down, P), [[1.0]])


@pytest.mark.parametrize("P,dot,count", [
    (hypercube(3), 0.0, 4), (cross_polytope(3), 1.0, 3),
    (hypercube(4), 0.0, 6), (cross_polytope(4), 2.0, 4),
])
def test_cone_walls_are_neighbour_row_differences(P, dot, count):
    # the faces sharing a ridge with face i: orthogonal cube rows,
    # cross-polytope rows one sign apart
    for pc in triangulate(P):
        nb = [j for j in range(P.m) if P.A[j] @ pc.a == dot]
        assert len(nb) == count
        want = (P.A[nb] - pc.a) / np.linalg.norm(P.A[nb] - pc.a, axis=1)[:, None]
        rows = cone_halfspaces(pc, P)
        assert rows.shape == want.shape and np.max(np.abs(rows - want)) <= 1e-15


def test_cone_halfspaces_cube_faces():
    P = hypercube(3)
    for pc in triangulate(P):
        rows = cone_halfspaces(pc, P)
        assert rows.shape == (4, 3)
        assert np.max(pc.vertices @ rows.T) <= 1e-12
