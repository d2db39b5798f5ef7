import cmath
import tracemalloc

import numpy as np
import pytest

from polysum import experiments, spectral
from polysum.geometry import (
    cone_halfspaces,
    cross_polytope,
    gauge,
    hypercube,
    triangulate,
)
from polysum.generators import _box, random_polytope, random_trig_polynomial
from polysum.spectral import (
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


def _eval_bruteforce(f, x):
    # independent of TrigPolynomial.evaluate: plain python loop over the dict
    x = np.asarray(x, dtype=float)
    return sum(c * cmath.exp(2j * cmath.pi * float(np.dot(n, x))) for n, c in f)


# ---------------------------------------------------------------------------
# TrigPolynomial basics


def test_trig_polynomial_merges_duplicates_and_sorts():
    f = TrigPolynomial(2, [((1, 0), 1.0), ((0, 1), 2.0), ((1, 0), 0.5j)])
    assert len(f) == 2
    assert f.coeff((1, 0)) == 1.0 + 0.5j
    assert f.coeff((5, 5)) == 0.0
    assert f.bandwidth == 1
    assert [n for n, _ in f] == [(0, 1), (1, 0)]


def test_coeff_rejects_a_wrong_length_or_non_integer_frequency():
    f = TrigPolynomial(2, {(1, 0): 2.0, (1, 1): 3.0})
    for n in ((1,), (1, 0, 0), (1.5, 0), (True, 0)):  # (1,) used to broadcast to (1, 1)
        with pytest.raises(ValueError):
            f.coeff(n)
    assert f.coeff(np.array([1, 0])) == 2.0 and f.coeff((0, 0)) == 0.0


def _merge_by_unique(dim, freqs, coeffs):
    """The frequency merge by np.unique over rows, summed in input order."""
    fr, inverse = np.unique(freqs.reshape(-1, dim), axis=0, return_inverse=True)
    merged = np.zeros(fr.shape[0], dtype=complex)
    np.add.at(merged, inverse.reshape(-1), coeffs)
    return fr, merged


def test_trig_polynomial_merge_bit_identical_to_unique():
    rng = np.random.default_rng(3)
    big, neg0 = 2**63 - 1, complex(-0.0, -0.0)  # -0.0 - 0.0j has a +0.0 imaginary part
    cases = [(2, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=complex)),
             (3, np.array([[big, -big, 0]]), np.array([neg0]))]
    for dim in (1, 2, 3, 4):
        for _ in range(30):
            n = int(rng.integers(1, 50))
            freqs = rng.integers(-2, 3, size=(n, dim))  # few distinct rows: many duplicates
            freqs[rng.random((n, dim)) < 0.1] = big
            freqs[rng.random((n, dim)) < 0.1] = -big
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            coeffs.real[rng.random(n) < 0.3] = -0.0
            coeffs.imag[rng.random(n) < 0.3] = -0.0
            cases.append((dim, freqs, coeffs))
    # strictly increasing rows skip the sort and the merge; -0.0 parts must still
    # come out +0.0, and a sorted input with a duplicate row must still merge
    for dim, B in ((1, 5), (2, 3), (3, 2), (4, 1)):
        box = _box(dim, B)
        cases.append((dim, box, np.full(box.shape[0], neg0)))
    extremes = np.array([[-big, -big], [-big, 0], [-big, big], [0, -big], [big, -big], [big, big]])
    cases.append((2, extremes, np.full(6, neg0)))
    dup = np.zeros(7, dtype=complex)
    dup.real = [-0.0, 1.0, -0.0, -0.0, 0.0, -0.0, 4.0]
    dup.imag = [-0.0, -0.0, 2.0, -0.0, 3.0, -0.0, -0.0]
    cases.append((2, extremes[[0, 1, 1, 2, 3, 4, 5]], dup))
    for dim, freqs, coeffs in cases:
        f = TrigPolynomial(dim, freqs, coeffs)
        fr, merged = _merge_by_unique(dim, freqs, coeffs)
        assert f.freqs.dtype == np.int64 and f.freqs.shape == fr.shape
        assert np.array_equal(f.freqs, fr)
        assert f.coeffs.tobytes() == merged.tobytes()


def test_trig_polynomial_evaluate_matches_bruteforce():
    f = random_trig_polynomial(2, 3, 0.6, seed=5)
    rng = np.random.default_rng(6)
    for x in rng.random(size=(20, 2)):
        assert abs(f.evaluate(x) - _eval_bruteforce(f, x)) <= 1e-12


def test_trig_polynomial_arithmetic_and_zero():
    f = TrigPolynomial(1, {(1,): 1.0, (0,): 2.0})
    g = TrigPolynomial(1, {(1,): -1.0, (2,): 3.0})
    h = f + g
    assert h.coeff((1,)) == 0.0 and h.coeff((2,)) == 3.0 and h.coeff((0,)) == 2.0
    s = 2.0j * f
    assert s.coeff((0,)) == 4.0j
    z = TrigPolynomial.zero(3)
    assert len(z) == 0 and z.bandwidth == 0
    assert z.evaluate([0.1, 0.2, 0.3]) == 0.0


def test_trig_polynomial_scalar_argument_in_1d():
    f = TrigPolynomial(1, {(1,): 1.0})
    assert abs(f.evaluate(0.25) - 1j) <= 1e-15


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_single_frequency_threshold():
    P = hypercube(2)
    n0 = (2, 1)
    c = 0.7 - 0.2j
    f = TrigPolynomial(2, {n0: c})
    g = gauge(P, np.array(n0, dtype=float))
    x = np.array([0.3, 0.9])
    assert partial_sum(f, P, g - 1e-9, x) == 0.0
    assert abs(partial_sum(f, P, g, x) - f.evaluate(x)) <= 1e-15
    assert abs(partial_sum(f, P, g + 5.0, x) - f.evaluate(x)) <= 1e-15


def test_partial_sum_at_zero_is_constant_coefficient():
    P = cross_polytope(2)
    f = random_trig_polynomial(2, 4, 0.8, seed=7)
    got = partial_sum(f, P, 0.0, np.array([0.12, 0.44]))
    assert abs(got - f.coeff((0, 0))) <= 1e-15


def test_partial_sum_is_dirichlet_kernel_in_1d():
    N = 2
    P = hypercube(1)
    f = TrigPolynomial(1, {(n,): 1.0 for n in range(-5, 6)})
    assert partial_sum(f, P, N, 0.0) == pytest.approx(2 * N + 1)  # = 5
    rng = np.random.default_rng(8)
    for x in rng.uniform(0.05, 0.95, size=10):
        closed = np.sin(np.pi * (2 * N + 1) * x) / np.sin(np.pi * x)
        assert abs(partial_sum(f, P, N, x) - closed) <= 1e-12


def test_partial_sum_errors():
    P = hypercube(2)
    f = TrigPolynomial(2, {(0, 0): 1.0})
    for op in (partial_sum, partial_sum_by_pieces):
        for lam in (-1.0, np.nan, [0.0, 1.0, -1.0], [0.5, np.nan], [[0.0, 1.0]]):
            with pytest.raises(ValueError):
                op(f, P, lam, [0.0, 0.0])
    with pytest.raises(ValueError):
        partial_sum(TrigPolynomial(3, {(0, 0, 0): 1.0}), P, 1.0, [0.0, 0.0, 0.0])


def test_cutoff_array_shapes():
    P = hypercube(2)
    f = random_trig_polynomial(2, 3, 0.8, seed=66)
    x = np.array([0.1, 0.7])
    X = np.random.default_rng(67).random((4, 3, 2))
    for op in (partial_sum, partial_sum_by_pieces):
        assert isinstance(op(f, P, 1.0, x), complex)
        assert op(f, P, 1.0, X).shape == (4, 3)
        assert op(f, P, [0.0, 1.0, 2.0], x).shape == (3,)
        assert op(f, P, np.array([0.0, 1.0]), X).shape == (4, 3, 2)
        assert op(f, P, [], X).shape == (4, 3, 0)
        empty = op(TrigPolynomial.zero(2), P, [0.0, 5.0], X)
        assert empty.shape == (4, 3, 2) and not empty.any()


# ---------------------------------------------------------------------------
# breakpoints and step families


def test_breakpoints_examples():
    P = hypercube(2)
    assert breakpoints(TrigPolynomial(2, {(0, 0): 1.0}), P).tolist() == [0.0]
    f = TrigPolynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0})
    assert breakpoints(f, P).tolist() == [0.0, 1.0]
    assert breakpoints(TrigPolynomial.zero(2), P).tolist() == [0.0]


def test_partial_sum_constant_between_breakpoints():
    # a constant has L = 1: no interval between breakpoints to check, so its margin is 0
    h = TrigPolynomial(2, {(0, 0): 1.0})
    X = np.random.default_rng(10).random(size=(10, 2))
    assert experiments.step_constancy(spectral._Shells(h, hypercube(2)), X) == 0.0


def test_family_at_point_trivial_cases():
    P = hypercube(2)
    const = TrigPolynomial(2, {(0, 0): 3.0 - 1.0j})
    fam = family_at_point(const, P, [0.2, 0.7])
    assert fam.breakpoints.size == 0 and fam.values.tolist() == [3.0 - 1.0j]
    cuts, values = family_values_on_grid(const, P, 3)  # L = 1 on the grid
    assert cuts.tolist() == [0.0] and values.tolist() == [[3.0 - 1.0j]] * 9

    c = 1.5j
    single = TrigPolynomial(2, {(2, -1): c})
    x = np.array([0.25, 0.5])
    fam = family_at_point(single, P, x)
    assert fam.values.shape == (2,)
    assert fam.values[0] == 0.0
    assert abs(fam.values[1] - single.evaluate(x)) <= 1e-15


def test_family_values_on_grid_peak_memory_near_the_values_matrix():
    f = random_trig_polynomial(3, 8, 1.0, seed=17)
    P = hypercube(3)
    family_values_on_grid(f, P, 17)  # lazy imports (numpy.fft) stay out of the traced peak
    tracemalloc.start()
    _, values = family_values_on_grid(f, P, 17)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2 * values.nbytes + 2**20, (peak, values.nbytes)


# ---------------------------------------------------------------------------
# piecewise sums


def test_boundary_frequency_counted_exactly_once():
    P = hypercube(2)
    pieces = triangulate(P)
    c = 2.0 - 1.0j
    f = TrigPolynomial(2, {(2, 2): c})  # on the boundary ray of two sectors
    x = np.array([0.3, 0.1])
    got = partial_sum_by_pieces(f, P, 2.0, x)
    assert abs(got - f.evaluate(x)) <= 1e-15
    assert partial_sum_by_pieces(f, P, 1.9, x) == 0.0
    owners = [len(cone_multiplier(f, pc, P)) for pc in pieces]
    assert owners == [1, 0, 0, 0]  # lowest-index rule


def test_sector_supported_function_has_single_active_piece():
    P = hypercube(2)
    pieces = triangulate(P)
    f = TrigPolynomial(2, {(3, 1): 1.0, (4, -2): 0.5j, (2, 0): -1.0})
    for pc in pieces[1:]:
        assert len(cone_multiplier(f, pc, P)) == 0
    assert len(cone_multiplier(f, pieces[0], P)) == 3


def test_partial_sum_by_pieces_rejects_bad_input():
    P = hypercube(2)
    f = TrigPolynomial(2, {(1, 0): 1.0})
    for lam in (-0.5, np.nan):
        with pytest.raises(ValueError):
            partial_sum_by_pieces(f, P, lam, [0.0, 0.0])


# ---------------------------------------------------------------------------
# freezing


def test_freeze_single_frequency():
    P = hypercube(2)
    pieces = triangulate(P)
    c = 0.3 + 0.9j
    f = TrigPolynomial(2, {(3, 2): c})  # strictly inside the +e1 sector
    g = freeze(f, P, pieces[0], [0.0])
    assert g.dim == 1
    assert g.freqs[:, 0].tolist() == [3]
    assert g.coeffs.tolist() == [c]
    g_empty = freeze(f, P, pieces[1], [0.0])
    assert g_empty.freqs[:, 0].size == 0


def test_freeze_even_function_gives_column_sums():
    P = hypercube(2)
    pieces = triangulate(P)
    entries = {(2, 1): 0.5, (2, -1): 0.5, (2, 0): 1.25, (1, 0): -2.0}
    f = TrigPolynomial(2, entries)
    g = freeze(f, P, pieces[0], [0.0])
    d = dict(zip(g.freqs[:, 0].tolist(), g.coeffs.tolist()))
    assert abs(d[2] - (0.5 + 0.5 + 1.25)) <= 1e-15
    assert abs(d[1] - (-2.0)) <= 1e-15


def test_freeze_requires_axis_aligned_normal():
    P = cross_polytope(2)
    pieces = triangulate(P)
    f = TrigPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        freeze(f, P, pieces[0], [0.0])


def test_freezing_identity_on_the_square():
    P = hypercube(2)
    pieces = triangulate(P)
    f = random_trig_polynomial(2, 4, 0.8, seed=17)
    bps = breakpoints(f, P)
    rng = np.random.default_rng(18)
    worst = 0.0
    for pc in pieces[:2]:  # the +-e1 facets
        restricted = cone_multiplier(f, pc, P)
        for _ in range(8):
            x1, xp = rng.random(), rng.random()
            g = freeze(f, P, pc, [xp])
            for lam in bps:
                direct = partial_sum(restricted, P, float(lam), np.array([x1, xp]))
                frozen = halfspace_multiplier(g, pc.a[:1], float(lam) * pc.b).evaluate(x1)
                worst = max(worst, abs(direct - frozen))
    assert worst <= 1e-12


def test_halfspace_multiplier_on_the_line_bruteforce_and_extremes():
    # the frozen partial sum: keep a_1 n_1 <= mu on the line, for either facet normal
    rng = np.random.default_rng(19)
    n1 = np.arange(-6, 7)
    co = rng.normal(size=n1.size) + 1j * rng.normal(size=n1.size)
    g = TrigPolynomial(1, n1, co)
    for a1 in (1.0, -1.0):
        for _ in range(50):
            mu = rng.uniform(-8, 8)
            x1 = rng.random()
            brute = sum(
                c * cmath.exp(2j * cmath.pi * int(n) * x1)
                for n, c in zip(n1, co)
                if a1 * int(n) <= mu
            )
            assert abs(halfspace_multiplier(g, [a1], mu).evaluate(x1) - brute) <= 1e-12
        assert halfspace_multiplier(g, [a1], -7.0).evaluate(0.3) == 0.0
        full = sum(c * cmath.exp(2j * cmath.pi * int(n) * 0.3) for n, c in zip(n1, co))
        assert abs(halfspace_multiplier(g, [a1], 6.0).evaluate(0.3) - full) <= 1e-12


# ---------------------------------------------------------------------------
# multipliers


def test_cone_multiplier_identity_zero_and_partition():
    P = hypercube(2)
    pieces = triangulate(P)
    inside = TrigPolynomial(2, {(3, 1): 1.0, (2, -1): 2.0})
    out = cone_multiplier(inside, pieces[0], P)
    assert dict(out) == dict(inside)
    assert len(cone_multiplier(inside, pieces[3], P)) == 0

    f = random_trig_polynomial(2, 4, 0.9, seed=20)
    for pc in pieces:
        part = cone_multiplier(f, pc, P)
        assert dict(cone_multiplier(part, pc, P)) == dict(part)  # idempotent
    # the fan's multipliers sum to f; without piece 0, to f less piece 0's part
    shells = spectral._Shells(f, P)
    assert experiments.multiplier_partition(shells, pieces) == 0.0
    missing = np.max(np.abs(cone_multiplier(f, pieces[0], P).coeffs))
    assert missing > 0.0 and experiments.multiplier_partition(shells, pieces[1:]) == missing


def test_halfspace_multiplier_examples():
    f = TrigPolynomial(2, {(1, 0): 1.0, (2, 3): 2.0})
    assert len(halfspace_multiplier(f, [1, 0], 0.0)) == 0
    kept = halfspace_multiplier(f, [1, 0], 2.0)
    assert dict(kept) == dict(f)
    for a, c in (([1.0, 0.0], np.nan), ([np.nan, 0.0], 5.0), ([np.inf, 0.0], 5.0),
                 ([1.0, -np.inf], 5.0)):
        with pytest.raises(ValueError, match="half-space"):
            halfspace_multiplier(f, a, c)


def test_halfspace_composition_equals_closed_cone_filter():
    f = random_trig_polynomial(2, 4, 1.0, seed=21)
    composed = halfspace_multiplier(halfspace_multiplier(f, [-1, 0], 0.0), [0, -1], 0.0)
    expected = {n: c for n, c in f if n[0] >= 0 and n[1] >= 0}
    assert dict(composed) == expected


def _halfspace_cone_boundary_by_dicts(f, P, pieces):
    # the check as first written, frequency by frequency over dict(TrigPolynomial)
    violations = 0
    for pc in pieces:
        composed = f
        for a in cone_halfspaces(pc, P):
            composed = halfspace_multiplier(composed, a, 0.0)
        comp = dict(composed)
        assg = dict(cone_multiplier(f, pc, P))
        for n, c in assg.items():
            violations += int(abs(comp.get(n, 0.0j) - c) > 0.0)
        for n in set(comp) - set(assg):
            vals = np.asarray(n, dtype=float) @ P.A.T
            ties = np.sum(np.abs(vals - vals.max()) <= 1e-12)
            violations += int(ties < 2 or np.argmax(vals) >= pc.index)
    return violations


# (P, another polytope whose fan is used, frequencies where f holds an explicit 0):
# cases 5 and 6 pair a polytope with another's fan, so many frequencies violate;
# the walls of the scaled square drop the diagonals (+-3, +-3) that pieces 0 and 1
# own, which violate unless f's coefficient there is 0
_BOUNDARY_CASES = [(hypercube(2), None, ()), (cross_polytope(2), None, ()),
                   (random_polytope(2, 7, 3), None, ()), (hypercube(3), None, ()),
                   (cross_polytope(3), None, ()), (hypercube(2), cross_polytope(2), ()),
                   (cross_polytope(2), hypercube(2), ()),
                   (hypercube(2, radius=1.009), None, ((3, 3), (3, -3), (-3, 3), (-3, -3)))]


@pytest.mark.parametrize("k", range(len(_BOUNDARY_CASES)))
def test_halfspace_cone_boundary_equals_its_dict_form(k):
    P, Q, zeros = _BOUNDARY_CASES[k]
    pieces = triangulate(P if Q is None else Q)
    g = random_trig_polynomial(P.dim, 4 if P.dim == 2 else 2, 1.0, seed=k)
    assert _halfspace_cone_boundary_by_dicts(g, P, pieces) >= len(zeros)
    f = g + TrigPolynomial(P.dim, {n: -g.coeff(n) for n in zeros})  # c + (-c) = 0, kept
    assert len(f) == len(g)
    expected = _halfspace_cone_boundary_by_dicts(f, P, pieces)
    assert experiments.halfspace_cone_boundary(f, P, pieces) == expected
    assert (expected > 0) == (Q is not None)
    assert experiments.halfspace_cone_boundary(TrigPolynomial.zero(P.dim), P, pieces) == 0


# ---------------------------------------------------------------------------
# grid sampling


def test_sample_grid_constant_and_roots_of_unity():
    const = TrigPolynomial(2, {(0, 0): 2.5 - 1.0j})
    s = sample_grid(const, 5)
    assert np.allclose(s.values, 2.5 - 1.0j, rtol=0, atol=0)

    f = TrigPolynomial(1, {(1,): 1.0})
    s = sample_grid(f, 4)
    assert np.allclose(s.values, [1.0, 1.0j, -1.0, -1.0j], rtol=0, atol=1e-15)


def test_sample_grid_aliasing_guard():
    f = random_trig_polynomial(1, 3, 1.0, seed=24)
    with pytest.raises(ValueError, match="aliasing"):
        sample_grid(f, 6)
    sample_grid(f, 7)


def test_family_values_on_grid_aliasing_guard():
    # family_values_on_grid scatters through _grid_sums, which holds the one guard;
    # from 2B+1 on every grid, an even one too, matches the direct sums
    f, P = random_trig_polynomial(2, 3, 1.0, seed=9), hypercube(2)
    with pytest.raises(ValueError, match="aliasing"):
        family_values_on_grid(f, P, 2 * f.bandwidth)
    for M in (2 * f.bandwidth + 1, 2 * f.bandwidth + 2):
        cuts, values = family_values_on_grid(f, P, M)
        assert np.max(np.abs(values - partial_sum(f, P, cuts, grid_points(2, M)))) <= 1e-12


def _direct_evaluators(P, f, X):
    bps = breakpoints(f, P)
    lam = float(bps[len(bps) // 2])
    return [
        lambda: f.evaluate(X),
        lambda: partial_sum(f, P, lam, X),
        lambda: partial_sum_by_pieces(f, P, lam, X),
        lambda: partial_sum(f, P, bps, X),  # K = L cutoffs
        lambda: partial_sum_by_pieces(f, P, bps, X),
        lambda: sample_grid(f, 2 * f.bandwidth + 1).flat,
    ]


def test_chunked_direct_evaluators_match_unchunked(monkeypatch):
    P = random_polytope(2, 7, seed=31)
    f = random_trig_polynomial(2, 4, 1.0, seed=32)
    evaluators = _direct_evaluators(P, f, np.random.default_rng(33).random((50, 2)))
    whole = [ev() for ev in evaluators]
    monkeypatch.setattr(spectral, "_CHUNK_BUDGET", 300)  # a few points per chunk
    for ev, want in zip(evaluators, whole):  # BLAS may sum a shorter block in another order
        assert np.max(np.abs(ev() - want)) <= 1e-14 * np.max(np.abs(want))


def _direct_sum_by_rows(parts, x):
    # one phases @ w product per weight row, over the same point chunks
    pts = x.reshape(-1, x.shape[-1])
    out = np.zeros((pts.shape[0], parts[0][1].shape[0]), dtype=complex)
    chunk = max(1, spectral._CHUNK_BUDGET // max(sum(fr.shape[0] for fr, _ in parts), 1))
    for lo in range(0, pts.shape[0], chunk):
        for freqs, weights in parts:
            phases = np.exp(2j * np.pi * (pts[lo:lo + chunk] @ freqs.T))
            for k, w in enumerate(weights):
                out[lo:lo + chunk, k] += phases @ w
    return out.reshape(x.shape[:-1] + out.shape[1:])


@pytest.mark.parametrize("budget", [None, 200], ids=["default_budget", "small_budget"])
@pytest.mark.parametrize("K", [0, 1, 37])
def test_direct_sum_equals_one_product_per_cutoff(monkeypatch, budget, K):
    if budget is not None:
        monkeypatch.setattr(spectral, "_CHUNK_BUDGET", budget)  # a few points per chunk
    rng = np.random.default_rng(K)
    parts = []
    for n in (13, 0, 40, 1):  # pieces of a fan, one of them empty
        freqs = rng.integers(-6, 7, size=(n, 2))
        weights = (rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n))) * (
            rng.random((K, n)) < 0.6)
        parts.append((freqs, weights))
    for x in (rng.random((3, 7, 2)), rng.random(2), np.zeros((0, 2))):
        got = spectral._direct_sum(parts, x)
        assert got.shape == x.shape[:-1] + (K,)
        assert np.array_equal(got, _direct_sum_by_rows(parts, x))


def test_direct_evaluators_stay_within_the_chunk_budget(monkeypatch):
    P = hypercube(2)
    f = random_trig_polynomial(2, 4, 1.0, seed=34)
    X = np.random.default_rng(35).random((20_000, 2))  # 26 MB of phases if built at once
    monkeypatch.setattr(spectral, "_CHUNK_BUDGET", 1000)
    for ev in _direct_evaluators(P, f, X):
        tracemalloc.start()
        ev()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * 2**20, peak


# ---------------------------------------------------------------------------
# shell plan: empty support and dimension checks

_SQUARE = hypercube(2)
_FAN = triangulate(_SQUARE)
_PTS = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
_ZEROS = np.zeros(3, dtype=complex)


def _plus_e1(pieces):
    return next(pc for pc in pieces if pc.a[0] > 0.5)


@pytest.mark.parametrize("op,expected", [
    (lambda f: partial_sum(f, _SQUARE, 1.0, _PTS), _ZEROS),
    (lambda f: np.asarray(partial_sum(f, _SQUARE, 1.0, _PTS[0])), np.zeros((), dtype=complex)),
    (lambda f: partial_sum_by_pieces(f, _SQUARE, 1.0, _PTS), _ZEROS),
    (lambda f: f.evaluate(_PTS), _ZEROS),
    (lambda f: breakpoints(f, _SQUARE), np.zeros(1)),
    (lambda f: family_at_point(f, _SQUARE, _PTS[0]).values, np.zeros(1, dtype=complex)),
    (lambda f: family_values_on_grid(f, _SQUARE, 3)[1], np.zeros((9, 1), dtype=complex)),
    (lambda f: freeze(f, _SQUARE, _plus_e1(_FAN), np.full(f.dim - 1, 0.3)).coeffs,
     np.zeros(0, dtype=complex)),
    (lambda f: cone_multiplier(f, _FAN[0], _SQUARE).freqs, np.zeros((0, 2), dtype=np.int64)),
    (lambda f: np.asarray(experiments.freezing_identity(f, _SQUARE, _FAN, 3)), np.zeros(())),
], ids=["partial_sum", "partial_sum_point", "partial_sum_by_pieces", "evaluate", "breakpoints",
        "family_at_point", "family_values_on_grid", "freeze", "cone_multiplier", "freezing_identity"])
def test_zero_polynomial_and_dimension_mismatch(op, expected):
    out = op(TrigPolynomial.zero(2))
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert np.array_equal(out, expected)
    with pytest.raises(ValueError, match="dimension"):
        op(TrigPolynomial(3, {(1, 0, 0): 1.0}))
