import numpy as np
import pytest

import polysum
from polysum import cli, experiments, fileio, generators, geometry, spectral, variation
from polysum.experiments import (
    BOUNDS,
    CHECKS,
    concatenation,
    default_resolution,
    dp_equals_bruteforce,
    field_vs_pointwise,
    freezing_identity,
    linearity,
    maximal_control,
    multiplier_partition,
    parseval,
    piecewise_equals_direct,
    r_monotonicity,
    run_convergence,
    run_ratio_experiment,
    run_verify,
    scaling,
    smooth_polynomial,
    step_constancy,
    weak_le_strong,
)
from polysum.fileio import save_polytope
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.geometry import (assign_rows, cross_polytope, gauge, hypercube, rotation_to_e1,
                              triangulate)
from polysum.spectral import breakpoints, family_at_point, partial_sum, sample_grid
from polysum.variation import GridSamples, _v_r_batch


def test_run_verify_all_green():
    status, results = run_verify(seed=42)
    failed = [r for r in results if not r.passed]
    assert status == 0 and not failed
    geometry = ["gauge_homogeneity", "sublevel_identity", "roundtrip", "cover", "disjoint",
                "piece_bounded", "assign_in_piece", "rotation", "cone_rows_agree"]
    spectral = ["step_constancy", "saturation", "piecewise_equals_direct",
                "multiplier_partition", "linearity", "parseval"]
    expected = [("geometry", f"{check}[{label}]")
                for label in ("square", "cross2", "cube3", "rand2a", "rand2b", "rand3")
                for check in geometry]
    expected += [("spectral", f"{check}[{label}]")
                 for label in ("square", "cross2", "rand2b", "rand3") for check in spectral]
    expected += [("spectral", "freezing_identity[square]"), ("spectral", "halfspace_cone_boundary")]
    expected += [("variation", check) for check in (
        "dp_equals_bruteforce", "r_monotonicity", "scaling", "maximal_control", "concatenation",
        "weak_le_strong", "fubini_slices", "field_vs_pointwise", "distribution_range")]
    assert len(expected) == 89
    assert [(r.suite, r.name) for r in results] == expected
    for r in results:
        key, value = r.detail.split("=")
        assert key and np.isfinite(float(value)), r


def test_every_verify_row_passes_by_its_bounds_entry():
    _, results = run_verify(seed=42)
    assert len(BOUNDS) == 26
    for r in results:
        name = r.name.split("[")[0]
        assert name in BOUNDS, r
        assert r.passed == (float(r.detail.split("=")[1]) <= BOUNDS[name]), r


@pytest.fixture
def gauge_calls(monkeypatch):
    """One entry per ``gauge`` call, under every name polysum calls it by."""
    calls = []

    def counted(*args):
        calls.append(1)
        return gauge(*args)

    for module in (geometry, experiments, spectral):
        monkeypatch.setattr(module, "gauge", counted)
    return calls


def test_run_verify_batches_its_gauge_calls(gauge_calls):
    run_verify(seed=42)
    # per-point loops make thousands; 9 per geometry instance, 1 per rotated piece and shell plan
    assert 0 < len(gauge_calls) <= 103


def test_run_verify_batches_its_variation_dp(monkeypatch):
    calls = []
    dp = variation._dp_chunk

    def counted(*args):
        calls.append(1)
        return dp(*args)

    monkeypatch.setattr(variation, "_dp_chunk", counted)
    run_verify(seed=42)
    # one DP per sequence makes 627; one V_3 batch for r_monotonicity, scaling,
    # maximal_control and concatenation makes 13 rather than 16
    assert len(calls) == 13


@pytest.fixture
def row_margins(monkeypatch):
    """Each kind's margins in the order verify computes them, recorded by
    wrapping the margin of every ``CHECKS`` row."""
    margins = {}

    def recording(kind, margin):
        def record(context):
            margins.setdefault(kind, []).append(margin(context))
            return margins[kind][-1]
        return record

    monkeypatch.setattr(experiments, "CHECKS", [row[:4] + (recording(row[1], row[4]),)
                                                for row in CHECKS])
    return margins


def test_every_verify_margin_is_a_float(row_margins):
    status, results = run_verify(seed=42)
    assert status == 0 and sum(map(len, row_margins.values())) == len(results)
    assert {kind: {type(m) for m in ms} for kind, ms in row_margins.items()} == {
        kind: {float} for kind in BOUNDS}


def test_verify_spectral_rows_equal_the_checks_on_their_own_draw_and_plan(row_margins):
    # verify draws f, g and X once per dimension; each instance's margins must
    # equal the checks run on that instance's own draw and plan, bit for bit
    run_verify(seed=7)
    seed = 7 + 17
    for i, (label, P) in enumerate((("square", hypercube(2)), ("cross2", cross_polytope(2)),
                                    ("rand2b", random_polytope(2, 8, 7 + 1)),
                                    ("rand3", random_polytope(3, 5, 7 + 2)))):
        B = 6 if P.dim <= 2 else 3
        f = random_trig_polynomial(P.dim, B, 0.6, seed)
        g = random_trig_polynomial(P.dim, B, 0.6, seed + 1)
        X = np.random.default_rng(seed).random(size=(20, P.dim))
        bps = breakpoints(f, P)
        shells = spectral._Shells(f, P)
        expected = {
            "step_constancy": step_constancy(shells, X),
            "saturation": float(np.max(np.abs(partial_sum(f, P, bps[-1], X) - f.evaluate(X)))),
            "piecewise_equals_direct": piecewise_equals_direct(shells, X),
            "multiplier_partition": multiplier_partition(shells, triangulate(P)),
            "linearity": linearity(shells, g, (1.5 - 0.5j) * f + (-0.75 + 0.25j) * g,
                                   float(bps[len(bps) // 2]), X, 1.5 - 0.5j, -0.75 + 0.25j),
            "parseval": parseval(f, sample_grid(f, default_resolution(B))),
        }
        for kind, margin in expected.items():
            assert row_margins[kind][i] == margin, (label, kind)


_F = random_trig_polynomial(2, 5, 0.7, seed=1)
_X = np.random.default_rng(2).random((5, 2))


def _spectral_rows():
    """The six rows of verify's spectral instances, on one context of the square."""
    P = hypercube(2)
    context = experiments._spectral_context(P, triangulate(P), experiments._spectral_draw(2, 59))
    return [margin(context) for _, kind, _, _, margin in CHECKS if kind in (
        "step_constancy", "saturation", "piecewise_equals_direct", "multiplier_partition",
        "linearity", "parseval")]


# (gauge passes, owner-row passes) over the support of f
@pytest.mark.parametrize("call, passes", [
    (lambda: family_at_point(_F, hypercube(2), [0.1, 0.3]), (1, 0)),
    (lambda: run_convergence(bandwidth=5, dim=2), (1, 0)),
    (lambda: step_constancy(spectral._Shells(_F, hypercube(2)), _X), (1, 0)),
    (lambda: piecewise_equals_direct(spectral._Shells(_F, hypercube(2)), _X), (1, 1)),
    (lambda: multiplier_partition(spectral._Shells(_F, hypercube(2)), triangulate(hypercube(2))),
     (0, 1)),
    (lambda: field_vs_pointwise(_F, hypercube(2), GridSamples(2, 11, np.zeros((11, 11))),
                                3.0, 7), (1, 0)),
    # one plan each for f, g and their combination in linearity
    (_spectral_rows, (3, 1)),
    # f's plan serves the breakpoints and each +-e_1 piece's frequencies and shells
    (lambda: freezing_identity(_F, hypercube(2), triangulate(hypercube(2)), 11), (1, 1)),
], ids=["family_at_point", "run_convergence", "step_constancy", "piecewise_equals_direct",
        "multiplier_partition", "field_vs_pointwise", "spectral_rows", "freezing_identity"])
def test_one_shell_plan_per_call(gauge_calls, monkeypatch, call, passes):
    owner_calls = []

    def counted(*args):
        owner_calls.append(1)
        return assign_rows(*args)

    monkeypatch.setattr(spectral, "assign_rows", counted)
    call()
    assert (len(gauge_calls), len(owner_calls)) == passes


_OK = np.array([0.0, 1.0 + 1.0j, 2.0])
_NAN = np.array([0.0, np.nan, 1.0])
_GRID = GridSamples(2, 3, np.arange(9.0).reshape(3, 3))
_NAN_GRID = GridSamples(2, 3, np.where(np.arange(9) == 4, np.nan, np.arange(9.0)).reshape(3, 3))


_NAN_CASES = [
    ("dp_equals_bruteforce", lambda seqs: dp_equals_bruteforce(seqs, (2.0,)), _OK, _NAN),
    ("r_monotonicity", lambda s: r_monotonicity(s, _v_r_batch(s, 3.0)), _OK, _NAN),
    ("scaling", lambda s: scaling(s, [1.5, 1.5], _v_r_batch(s, 3.0)), _OK, _NAN),
    ("maximal_control", lambda s: maximal_control(s, _v_r_batch(s, 3.0)), _OK, _NAN),
    ("concatenation", lambda s: concatenation(s, [1, 1], _v_r_batch(s, 3.0)), _OK, _NAN),
    ("weak_le_strong", lambda grids: weak_le_strong(grids, (1.0, 2.0)), _GRID, _NAN_GRID),
]


@pytest.mark.parametrize("kind, check, ok, bad", _NAN_CASES, ids=[c[0] for c in _NAN_CASES])
def test_a_nan_margin_fails_wherever_it_falls(kind, check, ok, bad):
    # the built-in max keeps a NaN only in first place
    for inputs in ([ok, bad], [bad, ok]):
        margin = check(inputs)
        assert np.isnan(margin) and not margin <= BOUNDS[kind], inputs


def test_a_nan_in_freezing_or_distribution_range_fails_its_row(monkeypatch):
    # max(0.0, nan) is 0.0: no margin may grow by the built-in max from 0.0
    direct_sum, frozen, rotations = experiments._direct_sum, [], []

    def nan_on_second_piece(*args):
        frozen.append(1)
        return direct_sum(*args) * (np.nan if len(frozen) % 2 == 0 else 1.0)

    def counted_rotation(piece):
        rotations.append(1)
        return rotation_to_e1(piece)

    monkeypatch.setattr(experiments, "_direct_sum", nan_on_second_piece)
    monkeypatch.setattr(experiments, "distribution_function", lambda h, alpha: np.nan)
    # the square comes first: a NaN gauge of its second rotated sample
    monkeypatch.setattr(experiments, "rotation_to_e1", counted_rotation)
    monkeypatch.setattr(experiments, "gauge",
                        lambda P, X: gauge(P, X) * (np.nan if len(rotations) == 2 else 1.0))
    assert np.isnan(freezing_identity(_F, hypercube(2), triangulate(hypercube(2)), 11))
    rows = {r.name: r for r in run_verify(seed=42)[1]}
    for name in ("freezing_identity[square]", "distribution_range", "rotation[square]"):
        assert not rows[name].passed and rows[name].detail.endswith("=nan"), rows[name]


def test_each_check_has_one_form():
    # no private twin _name beside a public name, in any polysum module
    for module in (polysum, cli, experiments, fileio, generators, geometry, spectral, variation):
        names = set(vars(module))
        assert sorted(name for name in names if "_" + name in names) == [], module.__name__
    # one CHECKS row per kind, each kind a public check function, and no bound moved
    kinds = [kind for _, kind, _, _, _ in CHECKS]
    assert len(set(kinds)) == len(kinds) == 26
    assert all(not kind.startswith("_") and callable(getattr(experiments, kind)) for kind in kinds)
    assert BOUNDS == {
        "gauge_homogeneity": 1e-12, "sublevel_identity": 0, "roundtrip": 1e-9, "cover": 0,
        "disjoint": 0, "piece_bounded": 1e-9, "assign_in_piece": 0, "rotation": 1e-9,
        "cone_rows_agree": 0, "step_constancy": 1e-14, "saturation": 1e-12,
        "piecewise_equals_direct": 1e-12, "multiplier_partition": 1e-15, "linearity": 1e-12,
        "parseval": 1e-10, "freezing_identity": 1e-12, "halfspace_cone_boundary": 0,
        "dp_equals_bruteforce": 1e-12, "r_monotonicity": 1e-12, "scaling": 1e-12,
        "maximal_control": 1e-12, "concatenation": 1e-12, "weak_le_strong": 1e-12,
        "fubini_slices": 1e-14, "field_vs_pointwise": 1e-12, "distribution_range": 0}


def test_run_verify_includes_polytope_file(tmp_path):
    for dim in (2, 4):
        path = tmp_path / f"p{dim}.json"
        save_polytope(hypercube(dim), path)
        status, results = run_verify(seed=1, polytope_file=path)
        assert status == 0
        assert any("[file]" in r.name for r in results)


def test_polytope_file_leaves_builtin_checks_unchanged(tmp_path):
    path = tmp_path / "p.json"
    save_polytope(cross_polytope(2), path)
    _, plain = run_verify(seed=42)
    _, with_file = run_verify(seed=42, polytope_file=path)
    assert len(with_file) == len(plain) + 15  # 9 geometry and 6 spectral checks for the file
    rows = {(r.suite, r.name): r for r in with_file}
    assert [r for r in plain if rows[(r.suite, r.name)] != r] == []


def test_default_resolution():
    assert default_resolution(4) == 9
    assert default_resolution(8) == 17


def test_run_ratio_experiment_small():
    report = run_ratio_experiment(bandwidths=(2, 3), ensemble=3, seed=5)
    assert len(report.rows) == 6
    assert set(report.medians) == {2, 3}
    for row in report.rows:
        assert np.isfinite(row.ratio) and row.ratio >= 0.0
        assert row.vr_weak <= row.vr_lp + 1e-12
        assert row.f_lp > 0.0
    keys = [(r.bandwidth, r.member) for r in report.rows]
    assert keys == sorted(keys)


def test_ratio_experiment_rejects_bad_arguments():
    bad = [{"r": 2.0}, {"r": float("nan")}, {"r": float("inf")}, {"p": 1.4}, {"p": float("inf")},
           {"ensemble": 0}, {"bandwidths": ()}, {"bandwidths": (-2,)}, {"seed": -1}]
    # 2 < r < inf, r' = 1.5 <= p < inf, ensemble >= 1, bandwidths >= 1, seed >= 0
    for kwargs in bad:
        with pytest.raises(ValueError):
            run_ratio_experiment(**{"bandwidths": (2,), "ensemble": 1, **kwargs})


def test_smooth_polynomial_coefficients():
    f = smooth_polynomial(2, 3)
    assert f.coeff((0, 0)) == 1.0
    assert f.coeff((1, 0)) == pytest.approx(0.25)
    assert f.coeff((1, 1)) == pytest.approx(1.0 / 9.0)
    assert len(f) == 7 * 7
    assert dict(smooth_polynomial(2, 0)) == {(0, 0): 1.0}
    with pytest.raises(ValueError, match="bandwidth must be nonnegative"):
        smooth_polynomial(2, -1)


def test_run_convergence_contract():
    rows = run_convergence(bandwidth=5, dim=2)
    ks, lams, errs, mins, tails = zip(*rows)
    assert list(ks) == list(range(len(rows)))
    assert errs[-1] == 0.0
    assert all(b <= a for a, b in zip(mins, mins[1:]))
    assert all(e <= t + 1e-10 for e, t in zip(errs, tails))
    # tail bound is the triangle inequality: recompute it independently
    f = smooth_polynomial(2, 5)
    P = hypercube(2)
    g = gauge(P, f.freqs.astype(float))
    for _, lam, err, _, tail in rows:
        assert tail == pytest.approx(float(np.sum(np.abs(f.coeffs)[g > lam])), abs=1e-13)
        assert err <= tail + 1e-10
