"""Polytopes, gauges, and the fan over facets.

Builds the square, the l1 ball, and a random polygon; converts between
half-space and vertex form; triangulates each into cones over facets and
checks cover/disjointness by sampling.
"""

import numpy as np

from polysum import (
    cone_halfspaces,
    cross_polytope,
    gauge,
    h_from_vertices,
    hypercube,
    piece_assign,
    piece_contains,
    random_polytope,
    triangulate,
    vertices_from_h,
)

square = hypercube(2)
print("square rows (b = 1):")
print(square.A)
print("gauge of (0.5, -0.25):", gauge(square, [0.5, -0.25]), "(the sup norm)")

diamond = cross_polytope(2)
print("\ngauge of (1, 2) in the l1 ball:", gauge(diamond, [1.0, 2.0]))

print("\nvertex form of the square:")
print(vertices_from_h(square).vertices)

# representation round-trip on a random polygon
P = random_polytope(2, 7, seed=20)
Q = vertices_from_h(P)
back = h_from_vertices(Q)
X = np.random.default_rng(1).uniform(-1.5, 1.5, size=(5000, 2))
print("\nrandom 7-gon: max gauge difference after H -> V -> H round-trip:",
      float(np.max(np.abs(gauge(P, X) - gauge(back, X)))))

# the fan: one cone-over-facet piece per row
pieces = triangulate(P)
print(f"\nfan of the 7-gon: {len(pieces)} pieces")
for pc in pieces[:3]:
    print(f"  piece {pc.index}: generators {np.round(pc.vertices, 3).tolist()}, "
          f"cone rows {np.round(cone_halfspaces(pc, P), 3).tolist()}")

# membership sampling: the pieces cover P and overlap only on boundaries
inside = X / np.maximum(gauge(P, X), 1e-12)[:, None]
inside *= np.random.default_rng(2).random(X.shape[0])[:, None]
counts = np.stack([piece_contains(pc, P, inside) for pc in pieces]).sum(axis=0)
print("\nsampled", len(inside), "points of P:",
      f"min pieces per point {counts.min()}, max {counts.max()}")
print("(every point covered; only shared sector boundaries see 2 pieces)")

# the deterministic partition rule: lowest facet index attaining the gauge
x = np.array([0.4, 0.4])
print("\npiece_assign for", x.tolist(), "->", piece_assign(P, x))
print("piece_assign for the origin ->", piece_assign(P, np.zeros(2)))
