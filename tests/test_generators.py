import itertools

import numpy as np
import pytest

from polysum import generators
from polysum.geometry import gauge, piece_contains, triangulate
from polysum.generators import (
    _box,
    random_piece_points,
    random_polytope,
    random_trig_polynomial,
)
from polysum.spectral import TrigPolynomial, sample_grid


def test_random_polytope_is_deterministic_per_seed():
    P1 = random_polytope(2, 6, seed=42)
    P2 = random_polytope(2, 6, seed=42)
    assert np.array_equal(P1.A, P2.A)
    P3 = random_polytope(2, 6, seed=43)
    assert not np.array_equal(P1.A, P3.A)


@pytest.mark.parametrize("dim,m,seed", [(2, 4, 0), (2, 8, 1), (3, 4, 2), (3, 6, 3), (4, 7, 4)])
def test_random_polytope_satisfies_invariants(dim, m, seed):
    P = random_polytope(dim, m, seed=seed)
    P.validate()
    assert np.all(P.b == 1.0)
    # rejection margin: every facet plane keeps distance >= 0.1 from the origin
    assert np.all(1.0 / np.linalg.norm(P.A, axis=1) >= 0.1)


def test_random_polytope_small_polygon():
    P = random_polytope(2, 4, seed=5)
    assert 3 <= P.m <= 4
    assert gauge(P, np.zeros(2)) == 0.0


def test_random_polytope_rejects_bad_arguments(monkeypatch):
    with pytest.raises(ValueError):
        random_polytope(1, 4, seed=0)
    with pytest.raises(ValueError):
        random_polytope(2, 2, seed=0)
    # 4 chords of the unit circle cannot all stay that close to the center
    monkeypatch.setattr(generators, "_MARGIN", 0.95)
    monkeypatch.setattr(generators, "_MAX_TRIES", 5)
    with pytest.raises(ValueError, match="rejection budget exhausted; reseed"):
        random_polytope(2, 4, seed=0)


def test_random_trig_polynomial_full_density_support():
    f = random_trig_polynomial(1, 1, 1.0, seed=6)
    assert sorted(n for (n,), _ in f) == [-1, 0, 1]


def test_random_trig_polynomial_determinism_and_parseval():
    f1 = random_trig_polynomial(2, 4, 0.5, seed=7)
    f2 = random_trig_polynomial(2, 4, 0.5, seed=7)
    assert np.array_equal(f1.freqs, f2.freqs)
    assert np.array_equal(f1.coeffs, f2.coeffs)
    s = sample_grid(f1, 2 * f1.bandwidth + 1)
    assert abs(float(np.mean(np.abs(s.flat) ** 2)) - float(np.sum(np.abs(f1.coeffs) ** 2))) <= 1e-10


@pytest.mark.parametrize("dim,bandwidth,density", [(1, 5, 1.0), (2, 4, 0.6), (3, 2, 0.8)])
def test_random_trig_polynomial_matches_the_product_box(dim, bandwidth, density):
    # the box in itertools.product order, with the same draws in the same order
    rng = np.random.default_rng(13)
    lattice = np.array(list(itertools.product(range(-bandwidth, bandwidth + 1), repeat=dim)),
                       dtype=np.int64)
    keep = rng.random(lattice.shape[0]) < density
    k = int(keep.sum())
    want = TrigPolynomial(dim, lattice[keep], rng.normal(size=k) + 1j * rng.normal(size=k))
    f = random_trig_polynomial(dim, bandwidth, density, seed=13)
    assert np.array_equal(_box(dim, bandwidth), lattice)
    assert np.array_equal(f.freqs, want.freqs) and np.array_equal(f.coeffs, want.coeffs)


def test_random_trig_polynomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_trig_polynomial(2, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        random_trig_polynomial(2, 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_trig_polynomial(2, 3, 1.5, seed=0)
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        random_trig_polynomial(0, 3, 1.0, seed=0)


def test_random_piece_points_stay_in_their_piece():
    P = random_polytope(2, 6, seed=8)
    for k, pc in enumerate(triangulate(P)):
        pts = random_piece_points(pc, 500, seed=9 + k)
        assert np.all(piece_contains(pc, P, pts))
        assert np.max(gauge(P, pts)) <= 1.0 + 1e-9
