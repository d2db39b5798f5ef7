"""Polytopal partial sums are step functions of the dilate parameter.

Shows the 1-d Dirichlet kernel as a sanity anchor, then sweeps a random
2-d polynomial over a square and over a random polygon: the partial sums
jump only at the gauge values of the supported frequencies.
"""

import numpy as np

from polysum import (
    TrigPolynomial,
    breakpoints,
    family_at_point,
    hypercube,
    partial_sum,
    partial_sum_by_pieces,
    random_polytope,
    random_trig_polynomial,
)

# d = 1: cutting off |n| <= N reproduces the Dirichlet kernel
P1 = hypercube(1)
f1 = TrigPolynomial(1, {(n,): 1.0 for n in range(-8, 9)})
for N in (1, 2, 5):
    print(f"partial sum at x=0 with cutoff N={N}:",
          partial_sum(f1, P1, N, 0.0).real, f"(expect {2 * N + 1})")

# d = 2: the family at a fixed point is a finite step function
P = hypercube(2)
f = random_trig_polynomial(2, 6, 0.5, seed=3)
bps = breakpoints(f, P)
print("\nsquare polytope, random polynomial with", len(f), "frequencies")
print("breakpoints (gauge values of the support):", bps.tolist())

x = np.array([0.21, 0.58])
fam = family_at_point(f, P, x)
print("family values at x:", np.round(fam.values, 4).tolist())
print("value at lam=2.5 equals value at lam=2:",
      fam.value_at(2.5) == fam.value_at(2.0))
print("final value equals f(x):", abs(fam.values[-1] - f.evaluate(x)) < 1e-12)

# a non-lattice polytope produces irrational breakpoints, one per gauge shell
P_rand = random_polytope(2, 6, seed=4)
bps_rand = breakpoints(f, P_rand)
print("\nrandom hexagon: number of distinct breakpoints:", len(bps_rand),
      "(first few:", np.round(bps_rand[:5], 4).tolist(), ")")

# the fan partition never double counts a frequency; an array of cutoffs
# gives one column per breakpoint from a single call
worst = np.max(np.abs(partial_sum_by_pieces(f, P_rand, bps_rand, x)
                      - partial_sum(f, P_rand, bps_rand, x)))
print("max |piecewise - direct| over all breakpoints:", worst)
