import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysum import experiments, spectral, variation
from polysum.geometry import cross_polytope, hypercube
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.spectral import (
    TrigPolynomial,
    family_at_point,
    family_values_on_grid,
    grid_points,
    sample_grid,
)
from polysum.variation import (
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

R_LADDER = (1.0, 2.0, 2.5, 3.0, 4.0)


# ---------------------------------------------------------------------------
# r-variation


def test_variation_of_constant_sequence_is_zero():
    assert v_r_exact([3.0 + 1.0j] * 7, 2.0) == 0.0
    assert v_r_exact([5.0], 1.0) == 0.0


@pytest.mark.parametrize("r", R_LADDER)
def test_variation_of_zigzag(r):
    assert v_r_exact([0.0, 1.0, 0.0], r) == pytest.approx(2.0 ** (1.0 / r), abs=1e-14)
    assert v_r_bruteforce([0.0, 1.0, 0.0], r) == pytest.approx(2.0 ** (1.0 / r), abs=1e-14)


def test_variation_of_monotone_sequence_is_total_increment():
    v = np.cumsum(np.abs(np.random.default_rng(0).normal(size=9)))
    for r in R_LADDER:
        assert v_r_exact(v, r) == pytest.approx(float(v[-1] - v[0]), abs=1e-12)


def test_variation_exponent_below_one_rejected():
    f = random_trig_polynomial(2, 2, 1.0, seed=0)
    for r in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            v_r_exact([0.0, 1.0], r)
        with pytest.raises(ValueError):
            v_r_bruteforce([0.0, 1.0], r)
        with pytest.raises(ValueError):
            v_r_field(f, hypercube(2), 5, r)


def test_bruteforce_basics_and_cap():
    assert v_r_bruteforce([0.0, 1.0], 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        v_r_bruteforce(np.zeros(17), 2.0)


def _bruteforce_by_recursion(values, r):
    """The exhaustive oracle as a recursion over chains, one call per chain."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    D = (np.abs(v[None, :] - v[:, None]) ** r).tolist()
    best = 0.0

    def extend(i, acc):
        nonlocal best
        for j in range(i + 1, len(v)):
            s = acc + D[i][j]
            best = max(best, s)
            extend(j, s)

    for i in range(len(v) - 1):
        extend(i, 0.0)
    return float(best ** (1.0 / r))


def _dp_by_matrix(values, r):
    """The DP oracle over the full L x L matrix of gap powers, one row per step."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    L = v.shape[0]
    if L <= 1:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is never read
        D = np.abs(v[:, None] - v[None, :]) ** r  # row j holds |v_j - v_i|^r
    W = np.zeros(L)
    for j in range(1, L):
        W[j] = (W[:j] + D[j, :j]).max()
    return float(W.max() ** (1.0 / r))


def test_dp_kernel_bit_identical_to_the_matrix_recursion():
    # the batch pads short sequences below their last entry; a maximum read
    # over the padding rows would turn [0, inf] into nan under last-value padding
    rng = np.random.default_rng(12)
    seqs = [rng.normal(size=L) + 1j * rng.normal(size=L) for L in range(21)]
    seqs += [np.full(7, 3.0 + 1.0j), np.array([0.0, np.inf]),
             np.array([1.0, -0.5j, 2.0, np.inf]), np.array([0.0, np.nan, 1.0, 2.0])]
    for r in (1.0, 1.7, 2.0, 2.5, 3.0, 4.0):
        expect = [_dp_by_matrix(v, r) for v in seqs]
        # assert_array_equal is exact and counts NaN equal to NaN
        np.testing.assert_array_equal(variation._v_r_batch(seqs, r), expect)
        np.testing.assert_array_equal([v_r_exact(v, r) for v in seqs], expect)
        np.testing.assert_array_equal(variation._v_r_batch(seqs[::-1], r), expect[::-1])
    assert variation._v_r_batch([], 2.0) == []
    with pytest.raises(ValueError):
        variation._v_r_batch(seqs, 0.5)


def test_bruteforce_batch_equals_one_at_a_time():
    rng = np.random.default_rng(9)
    seqs = [rng.normal(size=L) + 1j * rng.normal(size=L)
            for L in rng.permutation(np.repeat(np.arange(13), 3))]
    assert variation._bruteforce_batch(seqs, R_LADDER) == [
        [v_r_bruteforce(v, r) for v in seqs] for r in R_LADDER]
    with pytest.raises(ValueError, match="capped"):
        variation._bruteforce_batch([np.zeros(3), np.zeros(17)], (2.0,))


def test_bruteforce_bit_identical_to_the_recursion():
    rng = np.random.default_rng(7)
    for L in range(13):
        v = rng.normal(size=L) + 1j * rng.normal(size=L)
        for r in R_LADDER:
            assert v_r_bruteforce(v, r) == _bruteforce_by_recursion(v, r)
    ties = np.round(rng.normal(size=9), 1)  # repeated values and equal chain sums
    assert v_r_bruteforce(ties, 2.0) == _bruteforce_by_recursion(ties, 2.0)


def test_bruteforce_at_the_length_cap():
    rng = np.random.default_rng(8)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert v_r_bruteforce(v, 3.0) == _bruteforce_by_recursion(v, 3.0)
    for r in R_LADDER:
        assert abs(v_r_bruteforce(v, r) - v_r_exact(v, r)) <= 1e-12 * v_r_exact(v, r)


@given(
    vals=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
    scale=st.floats(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_variation_scaling_homogeneity(vals, scale):
    v = np.asarray(vals)
    base = v_r_exact(v, 3.0)
    assert abs(v_r_exact(scale * v, 3.0) - abs(scale) * base) <= 1e-12 * (1.0 + abs(scale) * base)


@given(vals=st.lists(st.floats(-5, 5), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_sup_family_controlled_by_first_value_plus_variation(vals):
    v = np.asarray(vals)
    for r in (1.0, 2.5):
        assert sup_family(v) <= abs(v[0]) + v_r_exact(v, r) + 1e-12


@given(vals=st.lists(st.floats(-5, 5), min_size=2, max_size=10))
@settings(max_examples=150, deadline=None)
def test_variation_dominates_endpoint_jump(vals):
    v = np.asarray(vals)
    for r in (1.0, 3.0):
        assert v_r_exact(v, r) >= abs(v[-1] - v[0]) - 1e-12


def test_sup_family_examples():
    assert sup_family([2.0 - 1.5j]) == pytest.approx(2.5)
    assert sup_family([0.0, 1.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        sup_family([])


# ---------------------------------------------------------------------------
# step functions and grids


def test_step_function_contract():
    s = StepFunction([1.0, 2.0], [0.0, 1.0j, 2.0])
    assert s.value_at(0.0) == 0.0
    assert s.value_at(1.0) == 1.0j  # right continuity at the jump
    assert s.value_at(1.99) == 1.0j
    assert s.value_at(2.0) == 2.0
    for lam in (-1.0, np.nan):  # as partial_sum, not the constant coefficient or f(x)
        with pytest.raises(ValueError, match="cutoff parameter must be nonnegative"):
            s.value_at(lam)
    with pytest.raises(ValueError):
        StepFunction([1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([1.0], [0.0, 1.0, 2.0])
    for bp in ([np.nan], [0.5, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            StepFunction(bp, np.zeros(len(bp) + 1))


def test_grid_samples_measure():
    h = GridSamples(2, 5, np.ones((5, 5)))
    assert h.cell_volume * h.flat.size == pytest.approx(1.0)
    with pytest.raises(ValueError):
        GridSamples(2, 5, np.ones(24))


# ---------------------------------------------------------------------------
# distribution functions and norms


def test_distribution_function_examples():
    h = GridSamples(1, 10, np.full(10, 2.0))
    assert distribution_function(h, 1.5) == 1.0
    assert distribution_function(h, 2.0) == 1.0
    assert distribution_function(h, 2.1) == 0.0
    assert distribution_function(h, 0.0) == 1.0
    half = GridSamples(1, 10, np.array([1.0] * 5 + [0.0] * 5))
    assert distribution_function(half, 0.5) == 0.5
    for alpha in (-0.1, np.nan):
        with pytest.raises(ValueError, match="threshold"):
            distribution_function(h, alpha)


def test_distribution_function_right_continuous_decreasing():
    rng = np.random.default_rng(4)
    h = GridSamples(1, 50, rng.exponential(size=50))
    alphas = np.sort(np.concatenate([h.flat, rng.uniform(0, 3, size=20)]))
    vals = [distribution_function(h, float(a)) for a in alphas]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_weak_lp_norm_examples():
    const = GridSamples(1, 8, np.full(8, 3.0))
    assert weak_lp_norm(const, 2.0) == pytest.approx(3.0)
    zero = GridSamples(1, 8, np.zeros(8))
    assert weak_lp_norm(zero, 2.0) == 0.0
    q = 0.25
    ind = GridSamples(1, 8, np.array([1.0] * 2 + [0.0] * 6))
    for p in (1.0, 2.0, 3.0):
        assert weak_lp_norm(ind, p) == pytest.approx(q ** (1.0 / p))


def test_lorentz_p1_norm_examples():
    c, p = 1.7, 2.5
    const = GridSamples(1, 6, np.full(6, c))
    assert lorentz_p1_norm(const, p) == pytest.approx(p * c, abs=1e-12)
    assert lorentz_p1_norm(GridSamples(1, 6, np.zeros(6)), p) == 0.0


def test_lorentz_p1_norm_two_level_closed_form():
    # 3 cells at a = 2.0, 7 cells at b = 0.5:
    # p * [ b * 1 + (a - b) * q^{1/p} ] with q = 0.3
    a, b, q, p = 2.0, 0.5, 0.3, 2.0
    h = GridSamples(1, 10, np.array([a] * 3 + [b] * 7))
    expect = p * (b + (a - b) * q ** (1.0 / p))
    assert lorentz_p1_norm(h, p) == pytest.approx(expect, abs=1e-12)


def _norms_by_unique(vals, p):
    """Weak-L^p and Lorentz L^{p,1} norms from np.unique levels, counted by searchsorted."""
    levels = np.unique(vals)
    frac = (vals.size - np.searchsorted(np.sort(vals), levels, side="left")) / vals.size
    weak = float(np.max(levels * frac ** (1.0 / p), initial=0.0))
    pos = levels > 0.0
    if not pos.any():
        return weak, 0.0
    widths = np.diff(np.concatenate([[0.0], levels[pos]]))
    return weak, p * float(np.sum(widths * frac[pos] ** (1.0 / p)))


def test_weak_and_lorentz_norms_equal_the_unique_levels_form():
    rng = np.random.default_rng(8)
    ties = rng.integers(0, 5, size=36) / 4.0  # ties and zeros
    samples = [ties, rng.exponential(size=36), np.zeros(36), np.full(36, 2.5),
               np.where(rng.random(36) < 0.4, 0.0, rng.exponential(size=36))]
    for vals in samples:
        h = GridSamples(2, 6, vals.reshape(6, 6))
        for p in (1.0, 2.0, 3.5):
            assert (weak_lp_norm(h, p), lorentz_p1_norm(h, p)) == _norms_by_unique(vals, p)


def test_lp_norm_examples_and_chebyshev():
    const = GridSamples(1, 8, np.full(8, 3.0 + 4.0j))
    assert lp_norm(const, 2.0) == pytest.approx(5.0)
    ind = GridSamples(1, 8, np.array([1.0] * 2 + [0.0] * 6))
    assert lp_norm(ind, 3.0) == pytest.approx(0.25 ** (1.0 / 3.0))
    rng = np.random.default_rng(5)
    hs = [GridSamples(2, 7, rng.exponential(size=(7, 7))) for _ in range(20)]
    assert experiments.weak_le_strong(hs, (1.0, 2.0, 2.5)) <= 1e-12


def test_norms_reject_bad_exponents_and_complex_input():
    h = GridSamples(1, 4, np.ones(4))
    for fn in (weak_lp_norm, lorentz_p1_norm, lp_norm):
        for p in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                fn(h, p)
    with pytest.raises(ValueError):
        distribution_function(GridSamples(1, 4, np.ones(4, dtype=complex)), 0.0)


# ---------------------------------------------------------------------------
# Fubini slicing


def test_fubini_slice_check_examples():
    c = 2.0
    const = GridSamples(2, 6, np.full((6, 6), c))
    assert fubini_slice_check(const, 1.0) == (1.0, 1.0)
    # indicator depending only on the first coordinate
    vals = np.zeros((6, 6))
    vals[:2, :] = 1.0
    h = GridSamples(2, 6, vals)
    g, s = fubini_slice_check(h, 0.5)
    assert g == pytest.approx(2.0 / 6.0) and s == pytest.approx(2.0 / 6.0)
    with pytest.raises(ValueError):
        fubini_slice_check(GridSamples(1, 6, np.ones(6)), 0.0)
    with pytest.raises(ValueError, match="threshold"):
        fubini_slice_check(const, np.nan)


def test_fubini_slice_check_random_fields_exact():
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        h = GridSamples(dim, 5, rng.exponential(size=(5,) * dim))
        assert experiments.fubini_slices(h, (0.0, 0.4, 1.1, 3.0)) <= 1e-14


# ---------------------------------------------------------------------------
# variation fields


def test_v_r_field_constant_function_is_zero():
    f = TrigPolynomial(2, {(0, 0): 4.0 - 2.0j})
    field = v_r_field(f, hypercube(2), 5, 3.0)
    assert np.all(field.values == 0.0)
    ratio = lp_norm(field, 2.0) / lp_norm(sample_grid(f, 5), 2.0)
    assert ratio == 0.0


def test_v_r_field_single_frequency_is_constant_modulus():
    c = 1.5 - 2.0j
    f = TrigPolynomial(2, {(2, 1): c})
    field = v_r_field(f, hypercube(2), 7, 3.0)
    assert np.max(np.abs(field.values - abs(c))) <= 1e-12


def test_v_r_field_dominates_sup_minus_constant_coefficient():
    P = hypercube(2)
    f = random_trig_polynomial(2, 3, 0.8, seed=7)
    M = 7
    field = v_r_field(f, P, M, 3.0)
    pts = grid_points(2, M)
    c0 = abs(f.coeff((0, 0)))
    for k in range(0, pts.shape[0], 5):
        fam = family_at_point(f, P, pts[k])
        assert field.flat[k] >= sup_family(fam.values) - c0 - 1e-12


@pytest.mark.parametrize("budget", [None, 400])
def test_v_r_field_bit_identical_to_pointwise_dp(monkeypatch, budget):
    # the batched DP must reproduce the matrix oracle exactly, root included;
    # a budget of 400 entries splits every grid into several point chunks
    if budget is not None:
        monkeypatch.setattr(variation, "_DP_BUDGET", budget)
    cases = [
        (hypercube(1), random_trig_polynomial(1, 6, 0.8, seed=11)),
        (cross_polytope(2), random_trig_polynomial(2, 3, 0.8, seed=12)),
        (random_polytope(2, 7, seed=13), random_trig_polynomial(2, 3, 0.8, seed=13)),
        (random_polytope(2, 7, seed=16), random_trig_polynomial(2, 4, 1.0, seed=16)),  # L = N
        (hypercube(3), random_trig_polynomial(3, 2, 0.8, seed=14)),
        (cross_polytope(3), random_trig_polynomial(3, 2, 0.8, seed=15)),
        (hypercube(2), TrigPolynomial(2, {(0, 0): 4.0 - 2.0j})),  # L = 1
    ]
    for P, f in cases:
        M = 2 * f.bandwidth + 3
        _, values = family_values_on_grid(f, P, M)
        for r in (1.0, 2.0, 2.5, 3.0):
            assert v_r_field(f, P, M, r).flat.tolist() == [_dp_by_matrix(row, r) for row in values]


def test_v_r_field_bit_identical_in_numpys_buffered_regime():
    # L = N = 169 in one chunk of 169 points, as in a B = 6 polygon field:
    # from j = 49 on, each step's j x 169 block exceeds np.getbufsize()
    P, f, M = random_polytope(2, 7, seed=21), random_trig_polynomial(2, 6, 1.0, seed=21), 13
    _, values = family_values_on_grid(f, P, M)
    assert values.shape == (169, 169) and values.size > np.getbufsize()
    for r in (2.5, 3.0):
        field = v_r_field(f, P, M, r).flat
        for k in range(0, values.shape[0], 4):
            assert field[k] == _dp_by_matrix(values[k], r)


def test_the_dp_reads_a_one_chunk_family_in_place(monkeypatch):
    # the family is built shell-major, so a field or a ratio member that fits
    # one point chunk hands it to the DP kernel without a transposed copy
    build, dp = spectral.family_values_on_grid, variation._dp_chunk
    families, shared = [], []

    def family(*args, **kwargs):
        families.append(build(*args, **kwargs))
        return families[-1]

    def chunk(V, r):
        shared.append(np.shares_memory(V, families[-1][1]))
        return dp(V, r)

    monkeypatch.setattr(spectral, "family_values_on_grid", family)
    monkeypatch.setattr(variation, "_dp_chunk", chunk)
    v_r_field(random_trig_polynomial(2, 3, 0.8, seed=7), hypercube(2), 7, 3.0)
    experiments.run_ratio_experiment(bandwidths=(2,), ensemble=1)
    assert shared == [True, True]


def test_v_r_field_dp_memory_stays_within_budget(monkeypatch):
    # the DP holds 6L floats per point: the shell-major copy of a family that
    # spans several chunks and the complex differences 2L each, the moduli and
    # the DP rows L each; the family is handed over precomputed, so the trace
    # sees the DP alone.  A batch of its n rows as sequences also holds their
    # zero-padded copy, a length mask per chunk and n Python floats; in one
    # chunk its DP would take 1.8 MB
    P, f, M = random_polytope(2, 7, seed=16), random_trig_polynomial(2, 6, 1.0, seed=16), 15
    family = family_values_on_grid(f, P, M)
    n, L = family[1].shape
    budget = 6 * L * (n // 3)  # three point chunks
    monkeypatch.setattr(variation, "_DP_BUDGET", budget)
    monkeypatch.setattr(spectral, "family_values_on_grid", lambda *args: family)
    seqs = list(family[1])
    for run, extra in ((lambda: v_r_field(f, P, M, 3.0), 0),
                       (lambda: variation._v_r_batch(seqs, 3.0), 16 * n * L + budget // 6 + 40 * n)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the field, the budget and a fixed slack; a divisor of 4L would overshoot
        # by 4 B * budget, about 300 KB here
        assert peak <= 8 * n + 8 * budget + 32768 + extra, (peak, extra)


def test_v_r_field_aliasing_guard():
    f = random_trig_polynomial(2, 3, 1.0, seed=9)
    with pytest.raises(ValueError, match="aliasing"):
        v_r_field(f, hypercube(2), 2 * f.bandwidth, 3.0)
    v_r_field(f, hypercube(2), 2 * f.bandwidth + 1, 3.0)
