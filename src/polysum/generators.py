"""Seeded random instances: polytopes with interior origin and random
trigonometric polynomials.  Everything is deterministic per seed."""

from __future__ import annotations

import numpy as np

from .geometry import Facet, HPolytope, h_from_vertices, VPolytope
from .spectral import TrigPolynomial, _lattice

__all__ = [
    "random_polytope",
    "random_trig_polynomial",
    "random_piece_points",
]


_MARGIN = 0.1  # least distance from the origin to every facet plane
_MAX_TRIES = 200  # draws before random_polytope gives up


def random_polytope(dim: int, m: int, seed) -> HPolytope:
    """Hull of m random unit-sphere points, rejected until the origin is
    interior with distance >= _MARGIN to every facet plane.

    Returns the normalized irredundant half-space form for any d >= 2; d = 2
    gives an m-gon, d = 3 a simplicial polytope with up to 2m-4 facets.
    """
    if dim < 2:
        raise ValueError("random polytopes are generated for d >= 2")
    if m < dim + 1:
        raise ValueError("need at least d+1 generating points")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        pts = rng.normal(size=(m, dim))
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms < 1e-9):
            continue
        pts /= norms[:, None]
        try:
            P = h_from_vertices(VPolytope(dim, pts))
        except ValueError:
            continue
        # rows are scaled to b = 1, so the plane distance is 1/|a_i|
        if np.all(1.0 / np.linalg.norm(P.A, axis=1) >= _MARGIN):
            return P
    raise ValueError("rejection budget exhausted; reseed")


def _box(dim: int, bandwidth: int) -> np.ndarray:
    """The lattice points of the box |n_j| <= B as int64 rows, in the row-major
    order of ``spectral._lattice``: the last coordinate varies fastest."""
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    return _lattice(dim, 2 * bandwidth + 1) - bandwidth


def random_trig_polynomial(
    dim: int,
    bandwidth: int,
    density: float,
    seed,
) -> TrigPolynomial:
    """Random coefficients on the box |n_j| <= B.

    Each lattice point is kept independently with the given probability and
    receives a complex Gaussian coefficient (independent standard normal real
    and imaginary parts).
    """
    if bandwidth < 1:
        raise ValueError("bandwidth must be at least 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    lattice = _box(dim, bandwidth)
    keep = rng.random(lattice.shape[0]) < density
    k = int(keep.sum())
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return TrigPolynomial(dim, lattice[keep], coeffs)


def random_piece_points(piece: Facet, count: int, seed) -> np.ndarray:
    """Random points of the piece in its defining form t * (facet point).

    Facet points are random convex combinations of the facet vertices and t is
    uniform on [0, 1], so every sample lies in the piece by construction.
    """
    rng = np.random.default_rng(seed)
    V = piece.vertices
    w = rng.exponential(size=(count, V.shape[0]))
    w /= w.sum(axis=1, keepdims=True)
    t = rng.random(size=(count, 1))
    return t * (w @ V)
