"""Exact r-variation of step families, maximal functions, and grid norms.

A one-parameter family of partial sums at a fixed point is a right-continuous
step function of the cutoff parameter, so its r-variation over the whole
half-line equals the r-variation of the finite value sequence at the jump
points; :func:`v_r_exact` computes that by dynamic programming and
:func:`v_r_bruteforce` by exhaustive enumeration of every index subset as a
bitmask, capped at length 16.  The DP has one kernel, ``_dp_chunk``, over
the contiguous rows of a shell-major ``(L, columns)`` array, and one chunk loop,
``_v_r_columns``, over column chunks within a fixed budget of temporaries:
a batch of sequences is its zero-padded columns, :func:`v_r_exact` a batch
of one and :func:`v_r_field` one column per grid point; every root is C's
``pow``, as the scalar ``w ** (1 / r)``.  Norms and distribution functions
use the uniform probability measure on the sampling grid, with no
interpolation, so identities like the Fubini slice reordering hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepFunction",
    "GridSamples",
    "v_r_exact",
    "v_r_bruteforce",
    "sup_family",
    "distribution_function",
    "weak_lp_norm",
    "lorentz_p1_norm",
    "lp_norm",
    "fubini_slice_check",
    "v_r_field",
]

BRUTE_FORCE_CAP = 16
# float entries of v_r_field's DP temporaries per point chunk; a point holds
# 2L for its complex differences, L for their moduli, L for its DP row and,
# only when the family spans several chunks, 2L for its shell-major copy
_DP_BUDGET = 1_000_000


@dataclass(eq=False)
class StepFunction:
    """Right-continuous step function on [0, inf).

    ``values[k]`` is the value on ``[breakpoints[k-1], breakpoints[k])``, with
    ``values[0]`` holding left of the first breakpoint, so there is always one
    more value than breakpoints.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if vals.shape[0] != bp.shape[0] + 1:
            raise ValueError("need exactly one more value than breakpoints")
        # written so that NaN, which fails every comparison, is rejected too
        if np.any(np.isnan(bp)) or not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.values = vals
        self.breakpoints.setflags(write=False)
        self.values.setflags(write=False)

    def value_at(self, lam: float) -> complex:
        if not lam >= 0.0:  # NaN too, as partial_sum
            raise ValueError("cutoff parameter must be nonnegative")
        idx = int(np.searchsorted(self.breakpoints, lam, side="right"))
        return complex(self.values[idx])


@dataclass(eq=False)
class GridSamples:
    """Function samples on the uniform grid (j_1/M, ..., j_d/M) of the torus.

    Carries the uniform probability measure: each of the M^d cells has volume
    M^{-d}, so cell volume times cell count is one.
    """

    dim: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "cfiu":
            raise ValueError("grid values must be numeric")
        expected = (self.resolution,) * self.dim
        if vals.shape != expected:
            vals = vals.reshape(expected)
        self.values = vals

    @property
    def cell_volume(self) -> float:
        return float(self.resolution) ** (-self.dim)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def abs(self) -> "GridSamples":
        return GridSamples(self.dim, self.resolution, np.abs(self.values))


def _exponent(symbol: str, *values: float) -> None:
    """The one rule for the variation exponent r and the norm exponent p: 1 <= q < inf."""
    if not all(1.0 <= q < np.inf for q in values):  # NaN fails it too
        raise ValueError(f"{'variation' if symbol == 'r' else 'norm'} exponent must satisfy "
                         f"1 <= {symbol} < inf")


def v_r_exact(values, r: float) -> float:
    """r-variation of a value sequence: sup over subsequences of the l^r norm
    of consecutive differences.

    Dynamic programming on r-th powers: W(j) = max_{i<j} W(i) + |v_j - v_i|^r,
    answer (max_j W(j))^{1/r}; O(L^2); the one-column case of ``_dp_chunk``.
    For the step families of cutoff sweeps this is the supremum over all real
    parameter sequences, because every difference is realized at jump points.
    """
    return _v_r_batch([values], r)[0]


def _v_r_batch(seqs, r: float) -> list[float]:
    """:func:`v_r_exact` of each sequence, as the zero-padded columns of one
    :func:`_v_r_columns` call: row j of the DP reads only rows i < j, so a
    sequence's answer is the largest W of its own first L_k entries."""
    _exponent("r", r)
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in seqs]
    lengths = np.array([v.shape[0] for v in cols], dtype=np.intp)
    V = np.zeros((lengths.max(initial=0), len(cols)), dtype=complex)
    for k, v in enumerate(cols):
        V[: v.shape[0], k] = v
    return _v_r_columns(V, r, lengths).tolist()


def v_r_bruteforce(values, r: float) -> float:
    """Reference r-variation by exhaustive enumeration of all subsequences.

    Chain m is the index subset with bitmask m; its gap sum extends the chain
    without its top bit j by the gap from that chain's last index to j, so
    sweeping j = 0..L-1 fills all 2^L chains, each summed left to right.  The
    length is capped at 16.  One sequence and one exponent of
    ``_bruteforce_batch``.
    """
    return _bruteforce_batch([values], (r,))[0][0]


def _bruteforce_batch(seqs, rs) -> list[list[float]]:
    """:func:`v_r_bruteforce` of each sequence at each exponent of ``rs``, as
    one list per exponent: the (exponent, sequence) pairs of equal length are
    the rows of one chain sweep, and chains never mix across rows."""
    _exponent("r", *rs)
    rows = [np.asarray(v, dtype=complex).reshape(-1) for v in seqs]
    if any(v.shape[0] > BRUTE_FORCE_CAP for v in rows):
        raise ValueError(f"brute force capped at length {BRUTE_FORCE_CAP}")
    best = np.empty((len(rs), len(rows)))  # largest gap sum of each pair
    for L in {v.shape[0] for v in rows}:
        ks = [k for k, v in enumerate(rows) if v.shape[0] == L]
        v = np.stack([rows[k] for k in ks])
        gaps = np.abs(v[:, None, :] - v[:, :, None])
        D = np.concatenate([gaps ** r for r in rs])  # row e * len(ks) + i: rs[e], ks[i]
        acc = np.zeros((D.shape[0], 2**L))  # gap sum of chain m, one row per pair
        last = np.zeros(2**L, dtype=np.intp)  # top index of chain m
        for j in range(L):
            lo = 1 << j
            acc[:, lo + 1 : 2 * lo] = acc[:, 1:lo] + D[:, last[1:lo], j]
            last[lo : 2 * lo] = j
        # a NaN chain never beats the running best of a left-to-right scan
        best[:, ks] = np.nanmax(acc, axis=1).reshape(len(rs), len(ks))
    return np.float_power(best, 1.0 / np.array(rs, dtype=float)[:, None]).tolist()


def sup_family(values) -> float:
    """Largest modulus in the family: the maximal function on a step family."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if v.shape[0] == 0:
        raise ValueError("empty family")
    return float(np.max(np.abs(v)))


def _nonneg_values(h: GridSamples) -> np.ndarray:
    vals = h.values
    if vals.dtype.kind == "c":
        raise ValueError("expected nonnegative real samples (take .abs() first)")
    if np.any(vals < 0):
        raise ValueError("expected nonnegative samples")
    return vals.reshape(-1)


def distribution_function(h: GridSamples, alpha: float) -> float:
    """Measure of {h >= alpha} under the uniform grid probability measure."""
    if not alpha >= 0.0:
        raise ValueError("threshold must be nonnegative")
    vals = _nonneg_values(h)
    return float(np.count_nonzero(vals >= alpha)) * h.cell_volume


def _level_fractions(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample values, ascending, and the fraction of samples >= each."""
    svals = np.sort(vals)
    new = np.ones(svals.shape[0], dtype=bool)  # first sorted index of each value
    new[1:] = svals[1:] != svals[:-1]
    first = np.flatnonzero(new)
    return svals[first], (vals.shape[0] - first) / vals.shape[0]


def weak_lp_norm(h: GridSamples, p: float) -> float:
    """Weak-L^p norm sup_alpha alpha * d_h(alpha)^{1/p}.

    The distribution function is a right-continuous step function on a grid,
    so the supremum is attained at a distinct sample value.
    """
    _exponent("p", p)
    levels, frac = _level_fractions(_nonneg_values(h))
    return float(np.max(levels * frac ** (1.0 / p), initial=0.0))


def lorentz_p1_norm(h: GridSamples, p: float) -> float:
    """Lorentz L^{p,1} norm p * integral of d_h(s)^{1/p} ds, evaluated exactly.

    The distribution function is constant between consecutive distinct sample
    values, so the integral is a finite sum.
    """
    _exponent("p", p)
    levels, frac = _level_fractions(_nonneg_values(h))
    levels, frac = levels[levels > 0.0], frac[levels > 0.0]
    if not levels.size:
        return 0.0
    widths = np.diff(np.concatenate([[0.0], levels]))
    return p * float(np.sum(widths * frac ** (1.0 / p)))


def lp_norm(h: GridSamples, p: float) -> float:
    """L^p norm (cell volume * sum |h|^p)^{1/p}; accepts complex samples."""
    _exponent("p", p)
    vals = np.abs(h.flat)
    return float((h.cell_volume * np.sum(vals**p)) ** (1.0 / p))


def fubini_slice_check(h: GridSamples, alpha: float) -> tuple[float, float]:
    """Global distribution of h at alpha vs the slice average of 1-d ones.

    Slicing along the first coordinate and averaging the 1-d distribution
    functions over the remaining coordinates reorders the same finite sum, so
    the two returned numbers agree exactly.
    """
    if h.dim < 2:
        raise ValueError("slice check needs d >= 2")
    vals = _nonneg_values(h).reshape(h.resolution, -1)
    global_d = distribution_function(h, alpha)
    per_slice = np.count_nonzero(vals >= alpha, axis=0) / h.resolution
    return global_d, float(per_slice.mean())


def _dp_chunk(V: np.ndarray, r: float) -> np.ndarray:
    """The rows W(j) of the r-variation recursion for each column of a
    shell-major ``(L, points)`` chunk; the only copy of the DP.

    Step j runs on the contiguous rows 0..j-1, so row j of a column reads
    only that column's rows i < j.  The temporaries die on return, so no two
    chunks hold them at once.  Row j is copied before the subtraction, since a
    broadcast operand would make NumPy fill a hidden buffer on every step.
    """
    W = np.zeros(V.shape)
    Z = np.empty_like(V)
    D = np.empty(V.shape)
    for j in range(1, V.shape[0]):
        Z[:j] = V[j]
        np.subtract(Z[:j], V[:j], out=Z[:j])
        np.abs(Z[:j], out=D[:j])
        D[:j] **= r
        D[:j] += W[:j]
        np.maximum.reduce(D[:j], axis=0, out=W[j])
    return W


def v_r_field(f, P, resolution: int, r: float) -> GridSamples:
    """Pointwise r-variation of the cutoff family over the full sampling grid.

    Evaluates the step family of partial sums at every grid point and runs
    the :func:`v_r_exact` recursion for all points at once on the family's
    shell-major ``(L, points)`` form, one column per point, read in place or
    copied chunk by chunk, so step j is one pass over the contiguous rows of
    the earlier i < j.  Each point's value is bit-identical to
    :func:`v_r_exact` on its family (same differences, powers, maxima and
    root).  One transform also gives f on the grid (``_field_and_samples``,
    for the norm ratio).  Requires 1 <= r < inf and resolution >= 2B+1.
    """
    return _field_and_samples(f, P, resolution, r)[0]


def _field_and_samples(f, P, resolution: int, r: float) -> tuple[GridSamples, GridSamples]:
    """:func:`v_r_field` and f on the grid from one ``family_values_on_grid``,
    looked up at call time: f is a copy of the family's last column, bit for
    bit ``sample_grid``, so the family dies on return."""
    from .spectral import family_values_on_grid

    _exponent("r", r)
    _, values = family_values_on_grid(f, P, resolution)
    grid = (resolution,) * f.dim
    field = GridSamples(f.dim, resolution, _v_r_columns(values.T, r).reshape(grid))
    return field, GridSamples(f.dim, resolution, values[:, -1].reshape(grid).copy())


def _v_r_columns(V: np.ndarray, r: float, lengths=None) -> np.ndarray:
    """V_r of each column of a shell-major V (L, columns), or of its first
    lengths[k] entries, in column chunks whose DP temporaries (6L floats a
    column) fit ``_DP_BUDGET``; a chunk is copied only when V spans several.
    The roots are one ``np.float_power``, which calls C's ``pow`` as the
    scalar ``w ** (1 / r)`` does; ``np.power`` may differ in the last bit."""
    L, n = V.shape
    best = np.empty(n)
    chunk = max(1, _DP_BUDGET // max(6 * L, 1))
    for lo in range(0, n, chunk):
        mask = True if lengths is None else np.arange(L)[:, None] < lengths[lo : lo + chunk]
        cols = np.ascontiguousarray(V[:, lo : lo + chunk])
        best[lo : lo + chunk] = np.max(_dp_chunk(cols, r), axis=0, initial=0.0, where=mask)
    return np.float_power(best, 1.0 / r)
