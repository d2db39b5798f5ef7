"""Polytopal partial Fourier sums on the torus.

Convex polytopes with the origin interior define one-parameter families of
lattice partial sums through their Minkowski gauge; this package triangulates
the polytope into cones over facets, evaluates the resulting step families
exactly, and measures them with r-variation, maximal, and Lorentz/weak norms.
"""

from .geometry import (
    GEO_TOL,
    Facet,
    HPolytope,
    VPolytope,
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
from .spectral import (
    TrigPolynomial,
    breakpoints,
    cone_multiplier,
    family_at_point,
    family_values_on_grid,
    freeze,
    grid_points,
    halfspace_multiplier,
    partial_sum,
    partial_sum_by_pieces,
    sample_grid,
)
from .variation import (
    GridSamples,
    StepFunction,
    distribution_function,
    fubini_slice_check,
    lorentz_p1_norm,
    lp_norm,
    sup_family,
    v_r_bruteforce,
    v_r_exact,
    v_r_field,
    weak_lp_norm,
)
from .generators import random_piece_points, random_polytope, random_trig_polynomial
from .experiments import (
    RatioReport,
    RatioRow,
    run_convergence,
    run_ratio_experiment,
    run_verify,
    smooth_polynomial,
)
from .fileio import (
    load_coefficients,
    load_polytope,
    save_coefficients,
    save_polytope,
)

__version__ = "0.1.0"
