"""Dimension reduction by freezing: a cone piece with facet normal +-e_1
turns the multi-dimensional cutoff into a 1-d frequency threshold.

For each fixed x', collapsing the piece's coefficients onto n_1 produces a
1-d trigonometric polynomial.  Cut by the facet's own half-space on the line,
a_1 n_1 <= lam b, its partial sums reproduce the piece-restricted
multi-dimensional partial sums exactly, at every cutoff and every point.
"""

import numpy as np

from polysum import (
    breakpoints,
    cone_multiplier,
    freeze,
    halfspace_multiplier,
    hypercube,
    partial_sum,
    random_trig_polynomial,
    triangulate,
)

P = hypercube(3)
pieces = triangulate(P)
f = random_trig_polynomial(3, 6, 0.3, seed=9)
bps = breakpoints(f, P)
print("cube in d=3, random polynomial with", len(f), "frequencies")
print("facet normals:", [np.round(pc.a, 3).tolist() for pc in pieces])

piece = pieces[0]  # normal +e1
restricted = cone_multiplier(f, piece, P)
print("\npiece 0 owns", len(restricted), "frequencies")

rng = np.random.default_rng(10)
worst = 0.0
for _ in range(200):
    x1 = float(rng.random())
    xprime = rng.random(2)
    g = freeze(f, P, piece, xprime)
    lam = float(rng.choice(bps))
    lhs = partial_sum(restricted, P, lam, np.concatenate([[x1], xprime]))
    rhs = halfspace_multiplier(g, piece.a[:1], lam * piece.b).evaluate(x1)
    worst = max(worst, abs(lhs - rhs))
print("max |piece-restricted sum - frozen 1-d sum| over 200 draws:", worst)

# the frozen function is literally the x'-weighted column sums
g0 = freeze(f, P, piece, np.zeros(2))
cols = {}
for n, c in restricted:
    cols[n[0]] = cols.get(n[0], 0.0j) + c
err = max(abs(cols[n1] - c1) for (n1,), c1 in g0)
print("at x' = 0 the frozen coefficients are plain column sums, err:", err)

# the mirrored facet's row has a_1 = -1, so its cutoff keeps -n_1 <= lam b
mirror = pieces[1]
print("\nmirror piece row a:", mirror.a.tolist(), "b:", mirror.b)
