"""Acceptance gate: each criterion runs at its stated tolerance and runtime
budget and prints one pass/fail line (visible with pytest -s)."""

import time

import numpy as np
import pytest

from polysum import experiments, spectral, variation
from polysum.geometry import gauge, hypercube, triangulate
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.spectral import (
    TrigPolynomial,
    family_at_point,
    grid_points,
    partial_sum,
    sample_grid,
)
from polysum.variation import lp_norm, v_r_field


def _gate(num: int, name: str, t0: float, budget: float, ok: bool, detail: str):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[acceptance {num}] {status} {name}: {detail} "
          f"(elapsed {elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert in_budget, f"criterion {num} ({name}) took {elapsed:.1f}s > {budget:.0f}s"


def _gate_margins(num: int, name: str, t0: float, budget: float, margins: dict, note: str):
    """Gate on the worst margin of each shared check against its bound."""
    ok = all(margin <= experiments.BOUNDS[check] for check, margin in margins.items())
    worst = ", ".join(f"{check} {margin:.2e}" for check, margin in margins.items())
    _gate(num, name, t0, budget, ok, f"{note}; worst {worst}")


def _worst(margins: dict, **new) -> None:
    for check, margin in new.items():  # np.maximum keeps a NaN wherever it falls
        margins[check] = float(np.maximum(margins.get(check, -np.inf), margin))


def test_criterion_1_triangulation():
    t0 = time.perf_counter()
    specs = [(2, 4 + k % 5, 300 + k) for k in range(12)]
    specs += [(3, 4 + k % 3, 400 + k) for k in range(8)]
    assert len(specs) == 20
    margins = {}
    for dim, m, seed in specs:
        P = random_polytope(dim, m, seed=seed)
        assert P.m <= 8
        pieces = triangulate(P)
        rng = np.random.default_rng(seed + 1)
        X = rng.normal(size=(10_000, dim))
        X = X / np.maximum(gauge(P, X), 1e-12)[:, None] * rng.random(10_000)[:, None]
        vals, srt, _ = experiments._row_table(P, X)
        counts = np.sum(experiments._members(pieces, vals), axis=1)
        _worst(margins, cover=experiments.cover(counts),
               disjoint=experiments.disjoint(srt, counts),
               piece_bounded=experiments.piece_bounded(P, pieces, 500, seed + 2))
    _gate_margins(1, "triangulation cover/disjointness/boundedness", t0, 10.0, margins,
                  "20 polytopes, 1e4 points each")


def test_criterion_2_frequency_partition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)
    margins = {}
    for k in range(16):
        P = hypercube(2) if k % 2 == 0 else random_polytope(2, 4 + k % 5, seed=510 + k)
        f = random_trig_polynomial(2, 8, 1.0, seed=530 + k)
        X = rng.random(size=(100, 2))
        _worst(margins, piecewise_equals_direct=experiments.piecewise_equals_direct(
            spectral._Shells(f, P), X))
    _gate_margins(2, "piecewise partial sums equal direct sums", t0, 30.0, margins,
                  "16 polynomials (B=8), all breakpoints, 100 points")


def test_criterion_3_freezing_identity():
    t0 = time.perf_counter()
    margins = {}
    for dim, density, seed in ((2, 1.0, 600), (3, 0.25, 601)):
        P = hypercube(dim)
        f = random_trig_polynomial(dim, 8, density, seed=seed)
        _worst(margins,
               freezing_identity=experiments.freezing_identity(f, P, triangulate(P), 17))
    _gate_margins(3, "freezing identity on cube pieces", t0, 60.0, margins,
                  "d=2 and d=3, M=17, all breakpoints and grid points")


def test_criterion_4_variation_dp_vs_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    seqs = []
    for _ in range(200):
        L = int(rng.integers(2, 13))
        seqs.append(rng.normal(size=L) + 1j * rng.normal(size=L))
    margins = {"dp_equals_bruteforce":
               experiments.dp_equals_bruteforce(seqs, (1.0, 2.0, 2.5, 3.0, 4.0))}
    _gate_margins(4, "variation DP equals exhaustive enumeration", t0, 10.0, margins,
                  "200 sequences of length <= 12, five exponents")


def test_criterion_5_analytic_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(800)
    seqs, cs = [], []
    for _ in range(60):
        L = int(rng.integers(2, 13))
        seqs.append(rng.normal(size=L) + 1j * rng.normal(size=L))
        cs.append(complex(rng.normal(), rng.normal()))
    v3 = variation._v_r_batch(seqs, 3.0)
    margins = {"r_monotonicity": experiments.r_monotonicity(seqs, v3),
               "scaling": experiments.scaling(seqs, cs, v3)}

    for k in range(6):
        P = hypercube(2) if k % 2 == 0 else random_polytope(2, 6, seed=810 + k)
        f = random_trig_polynomial(2, 4, 0.8, seed=820 + k)
        M = 9
        field = v_r_field(f, P, M, 3.0)
        fsamp = sample_grid(f, M)
        families = [family_at_point(f, P, x).values for x in grid_points(2, M)[::9]]
        _worst(margins,
               weak_le_strong=experiments.weak_le_strong([field, fsamp.abs()],
                                                         (1.5, 2.0, 3.0)),
               fubini_slices=experiments.fubini_slices(field, (0.0, 0.5, 1.5)),
               maximal_control=experiments.maximal_control(
                   families, variation._v_r_batch(families, 3.0)),
               parseval=experiments.parseval(f, fsamp))
    _gate_margins(5, "analytic identities on every tested instance", t0, 60.0, margins,
                  "60 sequences, 6 functions on the 9x9 grid")


def test_criterion_6_closed_form_spot_checks():
    t0 = time.perf_counter()
    P = hypercube(2)
    c = np.exp(0.7j)  # unit modulus
    f = TrigPolynomial(2, {(2, 1): c})
    M = 9
    field = v_r_field(f, P, M, 3.0)
    field_err = float(np.max(np.abs(field.values - abs(c))))
    ratio = lp_norm(field, 2.0) / lp_norm(sample_grid(f, M), 2.0)
    ratio_err = abs(ratio - 1.0)

    dirichlet_ok = True
    P1 = hypercube(1)
    for N in (1, 2, 5):
        g = TrigPolynomial(1, {(n,): 1.0 for n in range(-8, 9)})
        if partial_sum(g, P1, N, 0.0) != pytest.approx(2 * N + 1, abs=1e-12):
            dirichlet_ok = False
    ok = field_err <= 1e-12 and ratio_err <= 1e-12 and dirichlet_ok
    _gate(6, "closed-form spot checks", t0, 10.0, ok,
          f"V_r field err {field_err:.2e}, ratio-1 {ratio_err:.2e}, "
          f"Dirichlet value 2N+1 at x=0 {'ok' if dirichlet_ok else 'FAILED'}")


def test_criterion_7_ratio_experiment_stability():
    t0 = time.perf_counter()
    report = experiments.run_ratio_experiment(
        bandwidths=(4, 8, 16), r=3.0, p=2.0, dim=2, ensemble=32, seed=42,
    )
    finite = all(np.isfinite(row.ratio) for row in report.rows)
    med4, med16 = report.medians[4], report.medians[16]
    growth = med16 / med4
    ok = finite and growth <= 2.0
    _gate(7, "ratio experiment stability", t0, 300.0, ok,
          f"medians B=4: {med4:.4f}, B=8: {report.medians[8]:.4f}, "
          f"B=16: {med16:.4f}, growth {growth:.3f} <= 2")
