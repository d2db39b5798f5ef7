"""One labelled corpus of polytopes, and each shared check of ``experiments``
that takes a polytope run on all of it, so that a hard instance meets every
check: differential testing (W. M. McKeeman, Digital Technical Journal 10,
1998).  The first 25 instances are those of the batched fan test in
test_geometry.py, in its order; new ones go at the end.  ``PAIRS`` runs each
fast form that has a direct oracle on every instance in the same way.  To add a
pair, add a row ``name: (tolerance, margin)``, where the margin reads a
``_draw`` context and returns the largest difference of the fast form from its
oracle; a pair that fails on an instance goes into ``KNOWN``."""

import itertools
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysum import experiments, spectral
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.geometry import (HPolytope, cross_polytope, gauge, h_from_vertices, hypercube,
                              interval, triangulate, vertices_from_h)
from polysum.spectral import (family_values_on_grid, grid_points, partial_sum,
                              partial_sum_by_pieces, sample_grid)
from polysum.variation import lorentz_p1_norm, lp_norm, v_r_field, weak_lp_norm

CORPUS = {
    **{f"rand2-{300 + k}": random_polytope(2, 4 + k % 5, seed=300 + k) for k in range(12)},
    **{f"rand3-{400 + k}": random_polytope(3, 4 + k % 3, seed=400 + k) for k in range(8)},
    "square": hypercube(2),
    # a_1 = 1/1.009 and fl(fl(3 a_1) / a_1) < 3: a cutoff divided by a_1 drops n_1 = 3
    "square-r1.009": hypercube(2, radius=1.009),  # keep: carries the scaled-square freezing case
    "cross3": cross_polytope(3),
    "cube3": hypercube(3),  # keep: its round trip merges each polar vertex, found 4 times
    # rational rows, whose float gauges split exact shells
    "pentagon": HPolytope(2, [[1, 2], [-3, 1], [1, -1], [-1, -2], [2, -5]], [5, 7, 3, 4, 11]),
    "interval": interval(-1.0, 2.0),  # keep: carries the freezing case with no x' coordinate
    "square-r2": hypercube(2, radius=2.0),  # keep: carries the freezing case with |a_1| = 1/2
    "cube3-r1.009": hypercube(3, radius=1.009),  # keep: carries the scaled 3-cube freezing case
    "cube4": hypercube(4),  # keep: carries the 4-cube's fan sums and freezing
    "cross2": cross_polytope(2), "cross4": cross_polytope(4),
    "rand2-11": random_polytope(2, 12, seed=11), "rand3-10": random_polytope(3, 12, seed=10),
    "rand4-34": random_polytope(4, 7, seed=34),  # keep: carries the 4-d cover and disjointness case
    "rand4-84": random_polytope(4, 7, seed=84),
}


def _family_vs_direct(s):
    """The grid family against direct masked sums at every breakpoint and grid point."""
    cuts, values = family_values_on_grid(s.f, s.P, s.M)
    return np.max(np.abs(values - partial_sum(s.f, s.P, cuts, grid_points(s.P.dim, s.M))))


def _cutoff_array_vs_loop(s):
    """Both direct sums on the breakpoint array against one call per cutoff, relative
    to the loop's largest value, at 32 breakpoints from the first to the last (all when
    fewer): one call at every breakpoint of every instance would be 13,374 calls."""
    bps, worst = s.shells.breakpoints, 0.0
    cols = np.unique(np.linspace(0, bps.shape[0] - 1, 32).astype(int))
    for op in (partial_sum, partial_sum_by_pieces):
        looped = np.stack([op(s.f, s.P, float(bps[k]), s.X) for k in cols], axis=-1)
        batched = op(s.f, s.P, bps, s.X)[:, cols]
        worst = max(worst, np.max(np.abs(batched - looped)) / np.max(np.abs(looped)))
    return worst


def _vertex_roundtrip(s):
    """P's rows against ``h_from_vertices(vertices_from_h(P))``'s, each matched to the
    nearest returned row, since rows may come back reordered; inf unless one to one."""
    A = h_from_vertices(vertices_from_h(s.P)).A
    D = np.max(np.abs(A[:, None] - s.P.A), axis=2)  # (returned, given)
    match = np.argmin(D, axis=0)
    one_to_one = A.shape == s.P.A.shape and np.unique(match).size == s.P.m
    return np.max(D[match, np.arange(s.P.m)]) if one_to_one else np.inf


# fast form -> (tolerance, margin on a spectral context)
PAIRS = {
    "family_values_on_grid": (1e-12, _family_vs_direct),
    "sample_grid": (1e-12, lambda s: np.max(np.abs(
        s.samples.flat - s.f.evaluate(grid_points(s.P.dim, s.M))))),
    "cutoff_array": (1e-14, _cutoff_array_vs_loop),
    "vertex_roundtrip": (1e-12, _vertex_roundtrip),
}
# each check's BOUNDS entry (or a folded test's, where tighter) and each pair's tolerance
TOL = {**experiments.BOUNDS, "multiplier_partition": 0.0,
       **{pair: tol for pair, (tol, _) in PAIRS.items()}}
# Float-rounding defects that exact integer shells and cone walls are to mend:
# a split exact shell leaves no float between its two breakpoints, and a float
# wall drops a boundary frequency that its piece owns.  At density 1 every draw
# shows each of them.
KNOWN = {"step_constancy": {"pentagon"},
         "halfspace_cone_boundary": {"pentagon", "square-r1.009", "cube3-r1.009"}}


def _assert_margins(check, margins, strict=True):
    """Only known defects exceed the check's tolerance, and all of them if strict."""
    failing = {label for label, margin in margins.items() if not margin <= TOL[check]}
    known = KNOWN.get(check, set())
    assert failing <= known and (not strict or failing == known), margins


ROWS = {kind: margin for _, kind, _, _, margin in experiments.CHECKS}


@cache
def _sampled(label):
    """The geometry context: 10^4 seeded points X of the box [-1.5, 1.5]^d with
    gauges g and scalars t, the row table and piece membership of X drawn
    radially into P, and the row table of X itself for cone_rows_agree."""
    P, seed = CORPUS[label], experiments._label_seed(label)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(10_000, P.dim))
    g = gauge(P, X)
    inside = X / np.maximum(g, 1e-12)[:, None] * rng.random(X.shape[0])[:, None]
    vals, srt, top = experiments._row_table(P, inside)
    pieces = triangulate(P)
    members = experiments._members(pieces, vals)
    _, srt_X, top_X = experiments._row_table(P, X)
    return SimpleNamespace(
        P=P, pieces=pieces, seed=seed, X=X, g=g, t=rng.uniform(0, 50, g.shape), X_level=X,
        g_level=g, factors=(0.5, 1.0, 2.0), srt=srt, counts=np.sum(members, axis=1),
        piece_count=2000, members=members, top=top, X_rot=X, X_cone=X, srt_cone=srt_X,
        top_cone=top_X, gap=1e-7, cone_count=500, stride=1)


@pytest.mark.parametrize("check", experiments._kinds("geometry"))
def test_geometry_check_on_the_corpus(check):
    _assert_margins(check, {label: ROWS[check](_sampled(label)) for label, P in CORPUS.items()
                            if check in experiments._kinds("geometry", P.dim)})


def test_disjoint_is_not_vacuous_on_the_corpus():
    # disjoint reads only the points off piece boundaries: over 90% of them
    for label in CORPUS:
        srt = _sampled(label).srt
        share = np.mean(srt[:, -1] - srt[:, -2] > 1e-7)
        assert share > 0.9, (label, share)


# f's bandwidth B per dimension and a smaller one b for the variation field,
# whose DP is O(M^d L^2); each on its alias-free grid 2B+1
BANDWIDTHS = {1: (5, 5), 2: (6, 3), 3: (3, 1), 4: (2, 1)}
ALPHA, BETA = 1.25 - 0.5j, -0.4 + 2.0j


@cache
def _draw(label, seed, density):
    """The spectral context: f, g and the field's h from seeds seed, seed + 1 and
    seed + 2, f's shell plan, 20 random points, linearity at nine cutoffs from 0
    to the last breakpoint, most of them between breakpoints, and h's r = 2.5 field."""
    P, (B, b) = CORPUS[label], BANDWIDTHS[CORPUS[label].dim]
    f, g, h = (random_trig_polynomial(P.dim, w, density, seed + k) for k, w in enumerate((B, B, b)))
    X, shells = np.random.default_rng(seed).random((20, P.dim)), spectral._Shells(f, P)
    return SimpleNamespace(
        P=P, pieces=triangulate(P), f=f, g=g, h=h, shells=shells, M=2 * B + 1, X=X,
        fX=f.evaluate(X), combo=ALPHA * f + BETA * g, alpha=ALPHA, beta=BETA,
        lam=np.linspace(0.0, shells.breakpoints[-1], 9), samples=sample_grid(f, 2 * B + 1),
        field=v_r_field(h, P, 2 * b + 1, 2.5), r=2.5, stride=1)


@pytest.mark.parametrize("check", experiments._kinds("spectral") + ["field_vs_pointwise"])
@given(seed=st.integers(0, 2**32 - 3), density=st.floats(0.2, 1.0))
@example(seed=0, density=1.0)
@settings(max_examples=1, deadline=None)
def test_spectral_check_on_the_corpus(check, seed, density):
    _assert_margins(check, {label: ROWS[check](_draw(label, seed, density)) for label in CORPUS},
                    strict=density == 1.0)


@pytest.mark.parametrize("pair", PAIRS)
def test_fast_form_equals_its_oracle_on_the_corpus(pair):
    _assert_margins(pair, {label: PAIRS[pair][1](_draw(label, 0, 1.0)) for label in CORPUS})


def test_shell_index_places_each_gauge_at_its_breakpoint():
    # the one numbering of shells that every route reads: once a plan has numbered
    # its shells, the direct sums keep each frequency by its shell, not its float
    # gauge, so a gauge moved one ulp above its breakpoint leaves them unchanged
    for label in CORPUS:
        s = _draw(label, 0, 1.0)
        shells = s.shells
        assert np.array_equal(shells.breakpoints[shells.index], shells.gauge), label
        moved = spectral._Shells(s.f, s.P)
        moved.index  # numbers the shells from the unmoved gauges
        moved.gauge = np.nextafter(moved.gauge, np.inf)
        bps = shells.breakpoints
        assert np.array_equal(moved.sums(bps, s.X), shells.sums(bps, s.X)), label


def test_fan_checks_build_no_polynomial(monkeypatch):
    # both cone checks read keep-masks over f's support and its plan's owner row
    s, init, built = _draw("pentagon", 0, 1.0), spectral.TrigPolynomial.__init__, []

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(spectral.TrigPolynomial, "__init__", counted)
    experiments.halfspace_cone_boundary(s.f, s.P, s.pieces)
    experiments.multiplier_partition(s.shells, s.pieces)
    assert built == []
    spectral.cone_multiplier(s.f, s.pieces[0], s.P)  # the count sees a constructor call
    assert built == [1]


def test_f_on_the_grid_is_the_family_last_column():
    """The identity ``run_ratio_experiment`` reads f by, on every instance, and
    its rows against a reference that transforms the grid twice per member."""
    for label in CORPUS:
        s = _draw(label, 0, 1.0)
        cuts, values = family_values_on_grid(s.f, s.P, s.M)
        # the transpose of a contiguous shell-major array, the layout the variation DP reads
        assert np.array_equal(cuts, s.shells.breakpoints) and values.T.flags.c_contiguous, label
        assert np.array_equal(values[:, -1], sample_grid(s.f, s.M).flat), label
    r, p = 3.0, 2.0
    for dim, density, seed in itertools.product((1, 2, 3), (1.0, 0.5), (0, 7)):
        rows = []
        for B, member in itertools.product((1, 2, 3), range(2)):
            child = np.random.SeedSequence((seed, B, member))
            f, M = random_trig_polynomial(dim, B, density, child), 2 * B + 1
            fs, field = sample_grid(f, M).abs(), v_r_field(f, hypercube(dim), M, r)
            f_lp, vr_lp = lp_norm(fs, p), lp_norm(field, p)
            rows.append(experiments.RatioRow(
                member, B, r, p, f_lp, vr_lp, vr_lp / f_lp if f_lp > 0.0 else 0.0,
                weak_lp_norm(field, p), lorentz_p1_norm(fs, p)))
        report = experiments.run_ratio_experiment((1, 2, 3), r, p, dim, 2, density, seed)
        assert report.rows == rows, (dim, density, seed)
