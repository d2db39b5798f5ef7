"""One labelled corpus of polytopes, and each shared check of ``experiments``
that takes a polytope run on all of it, so that a hard instance meets every
check: differential testing (W. M. McKeeman, Digital Technical Journal 10,
1998).  The first 25 instances are those of the batched fan test in
test_geometry.py, in its order; new ones go at the end."""

import itertools
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysum import experiments, spectral
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.geometry import HPolytope, cross_polytope, gauge, hypercube, interval, triangulate
from polysum.spectral import family_values_on_grid, sample_grid
from polysum.variation import lorentz_p1_norm, lp_norm, v_r_field, weak_lp_norm

CORPUS = {
    **{f"rand2-{300 + k}": random_polytope(2, 4 + k % 5, seed=300 + k) for k in range(12)},
    **{f"rand3-{400 + k}": random_polytope(3, 4 + k % 3, seed=400 + k) for k in range(8)},
    "square": hypercube(2),
    # a_1 = 1/1.009 and fl(fl(3 a_1) / a_1) < 3: a cutoff divided by a_1 drops n_1 = 3
    "square-r1.009": hypercube(2, radius=1.009),  # keep: carries the scaled-square freezing case
    "cross3": cross_polytope(3), "cube3": hypercube(3),
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
# each check's BOUNDS entry, or a folded test's tolerance where that is tighter
TOL = {**experiments.BOUNDS, "multiplier_partition": 0.0}
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


@cache
def _sampled(label):
    """10^4 seeded points X of the box [-1.5, 1.5]^d with gauges g and scalars t,
    and the row table and piece membership of X drawn radially into P."""
    P, seed = CORPUS[label], experiments._label_seed(label)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(10_000, P.dim))
    g = gauge(P, X)
    inside = X / np.maximum(g, 1e-12)[:, None] * rng.random(X.shape[0])[:, None]
    vals, srt, top = experiments._row_table(P, inside)
    pieces = triangulate(P)
    members = experiments._members(pieces, vals)
    return SimpleNamespace(P=P, pieces=pieces, seed=seed, X=X, g=g, t=rng.uniform(0, 50, g.shape),
                           srt=srt, top=top, members=members, counts=np.sum(members, axis=1))


GEOMETRY = {
    "gauge_homogeneity": lambda s: experiments.gauge_homogeneity(s.P, s.X, s.g, s.t),
    "sublevel_identity": lambda s: experiments.sublevel_identity(s.P, s.X, s.g, (0.5, 1.0, 2.0)),
    "roundtrip": lambda s: experiments.roundtrip(s.P, s.X, s.g),
    "cover": lambda s: experiments.cover(s.counts),
    # vacuous unless over 90% of the points are off piece boundaries
    "disjoint": lambda s: (experiments.disjoint(s.srt, s.counts)
                           if np.mean(s.srt[:, -1] - s.srt[:, -2] > 1e-7) > 0.9 else np.inf),
    "piece_bounded": lambda s: experiments.piece_bounded(s.P, s.pieces, 2000, s.seed),
    "assign_in_piece": lambda s: experiments.assign_in_piece(s.members, s.top),
    "cone_rows_agree": lambda s: experiments.cone_rows_agree(
        s.P, s.pieces, s.X, *experiments._row_table(s.P, s.X)[1:], 1e-7, 500, s.seed, 1),
}


@pytest.mark.parametrize("check", GEOMETRY)
def test_geometry_check_on_the_corpus(check):
    _assert_margins(check, {label: GEOMETRY[check](_sampled(label)) for label in CORPUS})


# f's bandwidth B per dimension and a smaller one b for the variation field,
# whose DP is O(M^d L^2); each on its alias-free grid 2B+1
BANDWIDTHS = {1: (5, 5), 2: (6, 3), 3: (3, 1), 4: (2, 1)}
ALPHA, BETA = 1.25 - 0.5j, -0.4 + 2.0j


@cache
def _draw(label, seed, density):
    """f, g and the field's h from seeds seed, seed + 1 and seed + 2, f's shell
    plan, the grid sizes of f and h, and 20 random points."""
    P, (B, b) = CORPUS[label], BANDWIDTHS[CORPUS[label].dim]
    f, g, h = (random_trig_polynomial(P.dim, w, density, seed + k) for k, w in enumerate((B, B, b)))
    return SimpleNamespace(P=P, pieces=triangulate(P), f=f, g=g, h=h, shells=spectral._Shells(f, P),
                           M=2 * B + 1, Mh=2 * b + 1, X=np.random.default_rng(seed).random((20, P.dim)))


SPECTRAL = {
    "step_constancy": lambda s: experiments.step_constancy(s.f, s.shells, s.X),
    "piecewise_equals_direct": lambda s: experiments.piecewise_equals_direct(s.f, s.shells, s.X),
    "multiplier_partition": lambda s: experiments.multiplier_partition(s.f, s.shells, s.pieces),
    # nine cutoffs from 0 to the last breakpoint, most of them between breakpoints
    "linearity": lambda s: experiments.linearity(
        s.f, s.shells, s.g, ALPHA * s.f + BETA * s.g,
        np.linspace(0.0, s.shells.breakpoints[-1], 9), s.X, ALPHA, BETA),
    "freezing_identity": lambda s: experiments.freezing_identity(s.f, s.P, s.pieces, s.M),
    "halfspace_cone_boundary": lambda s: experiments.halfspace_cone_boundary(s.f, s.P, s.pieces),
    "field_vs_pointwise": lambda s: experiments.field_vs_pointwise(
        s.h, s.P, v_r_field(s.h, s.P, s.Mh, 2.5), 2.5, 1),
    "parseval": lambda s: experiments.parseval(s.f, sample_grid(s.f, s.M)),
}


@pytest.mark.parametrize("check", SPECTRAL)
@given(seed=st.integers(0, 2**32 - 3), density=st.floats(0.2, 1.0))
@example(seed=0, density=1.0)
@settings(max_examples=1, deadline=None)
def test_spectral_check_on_the_corpus(check, seed, density):
    _assert_margins(check, {label: SPECTRAL[check](_draw(label, seed, density)) for label in CORPUS},
                    strict=density == 1.0)


def test_f_on_the_grid_is_the_family_last_column():
    """The identity ``run_ratio_experiment`` reads f by, on every instance, and
    its rows against a reference that transforms the grid twice per member."""
    for label in CORPUS:
        s = _draw(label, 0, 1.0)
        assert np.array_equal(family_values_on_grid(s.f, s.P, s.M)[1][:, -1],
                              sample_grid(s.f, s.M).flat), label
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
