"""The benchmark workloads: their inputs, CLI arguments and output gate.

Each workload is one ``polysum`` CLI job.  Inputs depend only on the seed.
The gate runs after timing and checks a job's outputs against the package's
slow oracles: the direct ``partial_sum`` evaluator at every breakpoint, the
``O(L^2)`` variation DP, ``v_r_bruteforce`` where ``L <= 16`` and Parseval's
identity.  It returns ``(ops, failed, notes)`` for one job's outputs.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from polysum import fileio
from polysum.experiments import default_resolution
from polysum.generators import random_polytope, random_trig_polynomial
from polysum.geometry import hypercube
from polysum.spectral import breakpoints, grid_points, partial_sum
from polysum.variation import (
    BRUTE_FORCE_CAP,
    GridSamples,
    lp_norm,
    v_r_bruteforce,
    v_r_exact,
    weak_lp_norm,
)

TWO_ROUTE_TOL = 1e-12  # DP and norms against the direct-evaluation oracle
PARSEVAL_TOL = 1e-10
R, P_EXP = 3.0, 2.0

RATIO_ORACLE_ROWS = 2  # members per bandwidth whose whole field is rebuilt


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _read_csv(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _oracle_families(f, P, X: np.ndarray) -> np.ndarray:
    """Family values at points X by direct partial sums, one column per breakpoint."""
    bps = breakpoints(f, P)
    return np.stack([partial_sum(f, P, float(lam), X) for lam in bps], axis=1)


def _check_families(fams: np.ndarray, reported: np.ndarray, notes: list, what: str) -> bool:
    """DP on each oracle family against the reported field value, and the
    brute-force enumeration against the DP where the family is short enough."""
    ok = True
    for fam, value in zip(fams, reported):
        dp = v_r_exact(fam, R)
        err = _rel_err(dp, float(value))
        if not err <= TWO_ROUTE_TOL:
            notes.append(f"{what}: v_r {value!r} vs oracle {dp!r} (rel {err:.2e})")
            ok = False
        if fam.shape[0] <= BRUTE_FORCE_CAP:
            brute = v_r_bruteforce(fam, R)
            err = _rel_err(dp, brute)
            if not err <= TWO_ROUTE_TOL:
                notes.append(f"{what}: DP {dp!r} vs brute force {brute!r} (rel {err:.2e})")
                ok = False
    return ok


def _parseval_ok(f, f_lp: float, notes: list, what: str) -> bool:
    exact = math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2)))
    err = _rel_err(f_lp, exact)
    if not err <= PARSEVAL_TOL:
        notes.append(f"{what}: f_lp {f_lp!r} vs Parseval {exact!r} (rel {err:.2e})")
        return False
    return True


class FieldWorkload:
    """``polysum variation-field`` on a seeded polytope and full-box coefficients."""

    outputs = ("field.csv", "norms.csv")
    exit_codes = (0,)
    sample_points = 32  # grid points whose family is rebuilt by direct partial sums

    def __init__(self, name: str, dim: int, bandwidth: int, polytope):
        self.name = name
        self.dim = dim
        self.bandwidth = bandwidth
        self._polytope = polytope

    def write_inputs(self, seed: int, workdir) -> None:
        f = random_trig_polynomial(
            self.dim, self.bandwidth, 1.0, np.random.SeedSequence((seed, 1))
        )
        fileio.save_polytope(self._polytope(seed), workdir / "polytope.json")
        fileio.save_coefficients(f, workdir / "coeffs.json")

    def argv(self, seed: int, workdir) -> list[str]:
        return [
            "variation-field",
            "--polytope", str(workdir / "polytope.json"),
            "--coeffs", str(workdir / "coeffs.json"),
            "--r", repr(R), "--p", repr(P_EXP),
            "--out", str(workdir / "field.csv"),
            "--norms-out", str(workdir / "norms.csv"),
        ]

    def gate(self, seed: int, workdir, texts: dict) -> tuple[int, int, list]:
        notes: list[str] = []
        P = fileio.load_polytope(workdir / "polytope.json")
        f = fileio.load_coefficients(workdir / "coeffs.json")
        M = default_resolution(f.bandwidth)
        rows = _read_csv(texts["field.csv"])
        idx = np.array([[int(row[f"j{k + 1}"]) for k in range(self.dim)] for row in rows])
        field = np.array([float(row["value"]) for row in rows])
        expected = np.indices((M,) * self.dim).reshape(self.dim, -1).T
        ok = idx.shape == expected.shape and bool(np.all(idx == expected))
        if not ok:
            notes.append(f"field rows do not cover the {M}^{self.dim} grid in order")
            return 1, 1, notes
        if not (np.all(np.isfinite(field)) and np.all(field >= 0.0)):
            notes.append("field has negative or non-finite values")
            ok = False

        rng = np.random.default_rng((seed, 2))
        picks = rng.choice(field.shape[0], size=min(self.sample_points, field.shape[0]), replace=False)
        X = grid_points(self.dim, M)[picks]
        ok &= _check_families(_oracle_families(f, P, X), field[picks], notes, "point")

        norms = {row["quantity"]: float(row["value"]) for row in _read_csv(texts["norms.csv"])}
        ok &= _parseval_ok(f, norms["f_lp"], notes, "norms")
        samples = GridSamples(self.dim, M, field.reshape((M,) * self.dim))
        for key, want in (
            ("field_lp", lp_norm(samples, P_EXP)),
            ("ratio", norms["field_lp"] / norms["f_lp"]),
        ):
            err = _rel_err(norms[key], want)
            if not err <= TWO_ROUTE_TOL:
                notes.append(f"norms: {key} {norms[key]!r} vs {want!r} (rel {err:.2e})")
                ok = False
        return 1, int(not ok), notes


class RatioWorkload:
    """``polysum ratio`` on the square; one op per (B, member) row."""

    outputs = ("ratio.csv",)
    exit_codes = (0,)

    def __init__(self, name: str, bandwidths: tuple, ensemble: int):
        self.name = name
        self.bandwidths = bandwidths
        self.ensemble = ensemble

    def write_inputs(self, seed: int, workdir) -> None:
        pass

    def argv(self, seed: int, workdir) -> list[str]:
        return [
            "ratio", "--seed", str(seed),
            "--bandwidths", ",".join(map(str, self.bandwidths)),
            "--ensemble", str(self.ensemble),
            "--out", str(workdir / "ratio.csv"),
        ]

    def gate(self, seed: int, workdir, texts: dict) -> tuple[int, int, list]:
        notes: list[str] = []
        rows = {
            (int(row["bandwidth"]), int(row["member"])): row
            for row in _read_csv(texts["ratio.csv"])
        }
        P = hypercube(2)
        rng = np.random.default_rng((seed, 3))
        failed = 0
        for B in self.bandwidths:
            M = default_resolution(B)
            oracle = set(rng.choice(self.ensemble, size=min(RATIO_ORACLE_ROWS, self.ensemble), replace=False))
            for member in range(self.ensemble):
                row = rows.get((B, member))
                what = f"B={B} member={member}"
                if row is None:
                    notes.append(f"{what}: row missing")
                    failed += 1
                    continue
                # the experiment's own per-member seeding
                f = random_trig_polynomial(
                    2, B, 1.0, np.random.SeedSequence((seed, B, member))
                )
                f_lp, vr_lp = float(row["f_lp"]), float(row["vr_lp"])
                ok = _parseval_ok(f, f_lp, notes, what)
                err = _rel_err(float(row["ratio"]), vr_lp / f_lp)
                if not err <= TWO_ROUTE_TOL:
                    notes.append(f"{what}: ratio inconsistent (rel {err:.2e})")
                    ok = False
                if member in oracle:
                    ok &= self._oracle_row(f, P, M, row, rng, notes, what)
                failed += int(not ok)
        return len(self.bandwidths) * self.ensemble, failed, notes

    @staticmethod
    def _oracle_row(f, P, M, row, rng, notes, what) -> bool:
        """Rebuild the whole field from direct partial sums and compare norms."""
        fams = _oracle_families(f, P, grid_points(2, M))
        field = np.array([v_r_exact(fam, R) for fam in fams])
        samples = GridSamples(2, M, field.reshape(M, M))
        ok = True
        for key, want in (
            ("vr_lp", lp_norm(samples, P_EXP)),
            ("vr_weak", weak_lp_norm(samples, P_EXP)),
        ):
            err = _rel_err(float(row[key]), want)
            if not err <= TWO_ROUTE_TOL:
                notes.append(f"{what}: {key} {row[key]} vs oracle {want!r} (rel {err:.2e})")
                ok = False
        if fams.shape[1] <= BRUTE_FORCE_CAP:
            picks = rng.choice(fams.shape[0], size=min(16, fams.shape[0]), replace=False)
            ok &= _check_families(fams[picks], field[picks], notes, what)
        return ok


class VerifyWorkload:
    """``polysum verify``; one op per check, and every check must pass."""

    name = "verify-suite"
    outputs = ("verify.csv",)
    exit_codes = (0, 1)  # 1: some check failed, which the gate counts per check

    def write_inputs(self, seed: int, workdir) -> None:
        pass

    def argv(self, seed: int, workdir) -> list[str]:
        return ["verify", "--seed", str(seed), "--out", str(workdir / "verify.csv")]

    def gate(self, seed: int, workdir, texts: dict) -> tuple[int, int, list]:
        rows = _read_csv(texts["verify.csv"])
        bad = [f"{r['suite']}/{r['check']} {r['detail']}" for r in rows if r["passed"] != "True"]
        if not rows:
            return 1, 1, ["verify wrote no checks"]
        return len(rows), len(bad), [f"check failed: {b}" for b in bad]


# Each job is sized to take a fraction of a second, so that a run holds
# dozens of jobs and the host speed measured around a job (``worker.py``) is
# the speed it ran at: the host's speed drifts over seconds.  The shares of
# time per layer match those of the larger sizes (``ratio`` at its default
# ensemble of 32, the polygon at B = 12) within a few points.
WORKLOADS = {
    w.name: w
    for w in (
        # the bandwidths of ``polysum ratio``'s defaults, one member each
        RatioWorkload("ratio-ladder", (4, 8, 16), 1),
        FieldWorkload("field-polygon", 2, 6, lambda seed: random_polytope(2, 7, seed)),
        VerifyWorkload(),
    )
}
