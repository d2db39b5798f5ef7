"""Trigonometric polynomials on the torus and their polytopal partial sums.

A cutoff at parameter ``lam`` keeps the frequencies whose gauge is at most
``lam`` (closed condition), so as ``lam`` sweeps the half-line the partial
sums at a fixed point form a right-continuous step function whose jumps sit
at the finitely many gauge values of the support; those values are the
breakpoints.  One shell plan decides each frequency's gauge, shell (its
breakpoint index) and owner row (its fan piece), and S_lam f on every route.

On the alias-free grid j/M (M >= 2B+1) every frequency has its own residue
n mod M, so one inverse FFT of the coefficients scattered by shell evaluates a
whole family exactly to rounding (``sample_grid`` is its one-shell case).  The
shell plan builds the family of every grid job; its last column is f on the
grid, bit for bit ``sample_grid``, so ``ratio`` and ``variation-field`` read f
from it and transform their grid once.  Arbitrary points (``evaluate``, ``partial_sum``,
``partial_sum_by_pieces``, ``family_at_point``) are summed directly,
O(#coeffs * #points), and serve as the oracle for the grid route; points go
in chunks, so the phase matrix never holds more than ``_CHUNK_BUDGET``
entries.  ``partial_sum`` and ``partial_sum_by_pieces`` take a scalar cutoff
or a 1-d array of K cutoffs; an array adds a trailing axis of length K.  One
shell plan and one phase chunk then serve every cutoff, and each cutoff is
still its own masked sum over the chunk, not a prefix sum across cutoffs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import Facet, HPolytope, assign_rows, gauge
from .variation import GridSamples, StepFunction

__all__ = [
    "TrigPolynomial",
    "partial_sum",
    "breakpoints",
    "family_at_point",
    "family_values_on_grid",
    "partial_sum_by_pieces",
    "freeze",
    "cone_multiplier",
    "halfspace_multiplier",
    "sample_grid",
    "grid_points",
]

_TWO_PI_I = 2j * np.pi
_CHUNK_BUDGET = 4_000_000  # complex entries per evaluation chunk


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce to float points of shape (..., dim); bare scalars work at dim 1."""
    x = np.asarray(x, dtype=float)
    if dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != dim:
        raise ValueError(f"expected points with trailing dimension {dim}")
    return x


def _direct_sum(parts, x: np.ndarray) -> np.ndarray:
    """Direct sums at points x of shape (..., d), of shape (..., K).

    ``parts`` is a list of (freqs (N_j, d), weights (K, N_j)) pairs; column k
    of the result is the sum over the parts, in order, of
    sum_n weights[k, n] exp(2 pi i n.x).  Points go in chunks of at most
    _CHUNK_BUDGET phase entries.  Each weight row is its own matrix-vector
    product over a part's phase chunk, and the K of them go out as one
    stacked ``matmul``; one matrix product would sum in another order.
    """
    pts = x.reshape(-1, x.shape[-1])
    n_total = sum(freqs.shape[0] for freqs, _ in parts)
    out = np.zeros((pts.shape[0], parts[0][1].shape[0]), dtype=complex)
    chunk = max(1, _CHUNK_BUDGET // max(n_total, 1))
    for lo in range(0, pts.shape[0], chunk):
        block = out[lo:lo + chunk]
        for freqs, weights in parts:
            phases = np.exp(_TWO_PI_I * (pts[lo:lo + chunk] @ freqs.T))
            block += np.matmul(phases, weights[:, :, None])[..., 0].T
    return out.reshape(x.shape[:-1] + out.shape[1:])


def _int_freqs(freqs) -> np.ndarray:
    """Frequencies as int64.  Anything but an int64 array is checked entry by
    entry: booleans, non-integers and integers beyond int64 raise ValueError."""
    if isinstance(freqs, np.ndarray) and freqs.dtype == np.int64:
        return freqs
    entries = np.asarray(freqs, dtype=object)
    for v in entries.flat:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or abs(v) >= 2**63:
            raise ValueError(f"frequency entry {v!r} is not a 64-bit integer")
    return entries.astype(np.int64)


class TrigPolynomial:
    """Finitely supported Fourier coefficients on the integer lattice.

    Frequencies are stored lexicographically sorted, by a stable ``np.lexsort``
    of the int64 columns, with duplicates summed in input order; evaluation at
    x is sum of c(n) exp(2 pi i n.x) in that fixed order, the single source of
    truth for every operator built on top.
    """

    __slots__ = ("dim", "freqs", "coeffs")

    def __init__(self, dim: int, freqs, coeffs=None):
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        if coeffs is None:
            items = freqs.items() if hasattr(freqs, "items") else list(freqs)
            freqs = [n for n, _ in items]
            co = np.array([c for _, c in items], dtype=complex)
        else:
            co = np.asarray(coeffs, dtype=complex).reshape(-1)
        fr = _int_freqs(freqs).reshape(-1, dim)
        if fr.shape[0] != co.shape[0]:
            raise ValueError("frequency/coefficient count mismatch")
        if not np.all(np.isfinite(co)):
            raise ValueError("non-finite coefficient")
        gt = fr[1:] > fr[:-1]  # compared, not subtracted: +-(2^63-1) would overflow
        first = np.argmax(gt | (fr[1:] < fr[:-1]), axis=1)[:, None]  # first differing column
        if np.all(np.take_along_axis(gt, first, axis=1)):  # strictly increasing, as a box
            fr, merged = fr.copy(), co + 0.0  # + 0.0 maps -0.0 to +0.0, as the merge does
        else:
            order = np.lexsort(fr.T[::-1])  # stable, so duplicates keep their order
            fr, co = fr[order], co[order]
            new = np.ones(fr.shape[0], dtype=bool)  # first row of each distinct frequency
            new[1:] = np.any(fr[1:] != fr[:-1], axis=1)
            merged = np.zeros(np.count_nonzero(new), dtype=complex)
            np.add.at(merged, np.cumsum(new) - 1, co)
            fr = fr[new]
        self.dim = dim
        self.freqs = fr
        self.coeffs = merged
        self.freqs.setflags(write=False)
        self.coeffs.setflags(write=False)

    @classmethod
    def zero(cls, dim: int) -> "TrigPolynomial":
        return cls(dim, np.zeros((0, dim), dtype=np.int64), np.zeros(0, dtype=complex))

    def __len__(self) -> int:
        return self.freqs.shape[0]

    def __iter__(self):
        for n, c in zip(self.freqs, self.coeffs):
            yield tuple(int(v) for v in n), complex(c)

    @property
    def bandwidth(self) -> int:
        """Smallest B with every supported |n_j| <= B (0 for empty support)."""
        return int(np.max(np.abs(self.freqs), initial=0))

    def coeff(self, n) -> complex:
        """c(n), 0 off the support; n must be dim integers."""
        n = _int_freqs(n).reshape(-1)
        if n.shape[0] != self.dim:
            raise ValueError(f"frequency {n.tolist()} does not have {self.dim} entries")
        hits = np.all(self.freqs == n, axis=1)
        idx = np.nonzero(hits)[0]
        return complex(self.coeffs[idx[0]]) if idx.size else 0.0j

    def evaluate(self, x):
        """Evaluate at x of shape (..., dim); for dim = 1 bare scalars work too."""
        x = _as_points(x, self.dim)
        values = _direct_sum([(self.freqs, self.coeffs[None])], x)[..., 0]
        return complex(values) if x.ndim == 1 else values

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if not isinstance(other, TrigPolynomial) or other.dim != self.dim:
            return NotImplemented
        return TrigPolynomial(
            self.dim,
            np.concatenate([self.freqs, other.freqs]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    def __rmul__(self, scalar) -> "TrigPolynomial":
        return TrigPolynomial(self.dim, self.freqs, scalar * self.coeffs)

    def __repr__(self) -> str:
        return f"TrigPolynomial(dim={self.dim}, support={len(self)}, B={self.bandwidth})"


class _Shells:
    """Shell plan of f under P: the breakpoints and each frequency's gauge, shell
    index into them and owner row (lowest index attaining the gauge), computed
    on first use.  It decides S_lam f on every route: shell k is kept at lam iff
    ``breakpoints[k] <= lam``, and only ``breakpoints`` and ``index`` read the
    gauge.  :meth:`family`, :meth:`sums` and :meth:`frozen` are the grid, direct
    and freezing routes from (f, P)."""

    def __init__(self, f: TrigPolynomial, P: HPolytope):
        if f.dim != P.dim:
            raise ValueError("dimension mismatch between polynomial and polytope")
        self.f = f
        self.P = P
        self.points = f.freqs.astype(float)

    @cached_property
    def gauge(self) -> np.ndarray:
        return gauge(self.P, self.points)

    @cached_property
    def owner(self) -> np.ndarray:
        return assign_rows(self.P, self.points)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([[0.0], self.gauge]))

    @cached_property
    def index(self) -> np.ndarray:
        """Each frequency's shell, the breakpoint it enters at: ``breakpoints[index] == gauge``."""
        return np.searchsorted(self.breakpoints, self.gauge)

    def family(self, resolution: int, keep=None) -> np.ndarray:
        """The family on the grid, laid out as :func:`_grid_sums`' (M^d, L) values;
        with a mask ``keep``, of the kept frequencies only, each at its shell of f."""
        f, slots = self.f, self.index
        if keep is not None:
            f, slots = TrigPolynomial(f.dim, f.freqs[keep], f.coeffs[keep]), slots[keep]
        return _grid_sums(f, slots, self.breakpoints.shape[0], resolution)

    def sums(self, lam, x, by_pieces: bool = False):
        """Masked direct sums at each cutoff of ``lam`` (a scalar or a 1-d array):
        weight row k keeps the shells that lam_k has entered, split by owner row
        when ``by_pieces``.  Frequencies that no cutoff keeps are left out of the
        phases.  Shapes as for :func:`partial_sum`."""
        f, cutoffs = self.f, np.asarray(lam, dtype=float)
        if cutoffs.ndim > 1:
            raise ValueError("cutoffs must be a scalar or a 1-d array")
        if not np.all(cutoffs >= 0.0):
            raise ValueError("cutoff parameter must be nonnegative")
        x = _as_points(x, f.dim)
        keep = self.index < np.searchsorted(self.breakpoints, cutoffs, "right").reshape(-1, 1)
        live = keep.any(axis=0)
        rows = (self.owner == k for k in range(self.P.m)) if by_pieces else [True]
        parts = [(f.freqs[sel], f.coeffs[sel] * keep[:, sel]) for sel in (live & r for r in rows)]
        values = _direct_sum(parts, x)
        if cutoffs.ndim:
            return values
        return complex(values[0]) if x.ndim == 1 else values[..., 0]

    def frozen(self, piece: Facet, xprimes: np.ndarray):
        """The piece's frequencies collapsed onto n_1 at each x' row of xprimes.

        Returns (n1, rows): the piece's distinct n_1, shape (N_1, 1), and rows of
        shape (len(xprimes), N_1), entry (x', n_1) the sum over its frequencies
        (n_1, n') of c(n) exp(2 pi i x'.n').  Needs a facet normal of +-e_1."""
        if not _axis_aligned(piece.a):
            raise ValueError("freezing needs a facet normal of +-e_1; rotations do not "
                             "preserve the integer lattice")
        f, sel = self.f, self.owner == piece.index
        n1, inverse = np.unique(f.freqs[sel, :1], axis=0, return_inverse=True)
        weights = f.coeffs[sel] * np.exp(_TWO_PI_I * (xprimes @ f.freqs[sel, 1:].T))
        rows = np.zeros((xprimes.shape[0], n1.shape[0]), dtype=complex)
        np.add.at(rows, (slice(None), inverse.reshape(-1)), weights)
        return n1, rows


def partial_sum(f: TrigPolynomial, P: HPolytope, lam, x):
    """Partial sum over frequencies in the closed dilate: gauge(P, n) <= lam.

    For lam past the largest gauge of the support this is f(x) itself.
    Accepts a single point or a batch of shape (..., d).  ``lam`` is a
    nonnegative scalar or a 1-d array of K cutoffs; an array adds a trailing
    axis of length K, column k holding the partial sum at lam[k].
    """
    return _Shells(f, P).sums(lam, x)


def breakpoints(f: TrigPolynomial, P: HPolytope) -> np.ndarray:
    """Sorted distinct gauge values of the support, with 0 always prefixed.

    Partial sums are constant in lam on each interval between consecutive
    entries and right-continuous at each entry.
    """
    return _Shells(f, P).breakpoints


def family_at_point(f: TrigPolynomial, P: HPolytope, x) -> StepFunction:
    """The full one-parameter family of partial sums at x as a step function.

    One masked direct sum per breakpoint, all from one phase row and one
    shell plan.  The first value is the constant coefficient, the last is f(x).
    """
    shells = _Shells(f, P)
    x = _as_points(x, f.dim)
    if x.ndim != 1:
        raise ValueError("one point at a time; use family_values_on_grid for batches")
    bps = shells.breakpoints
    return StepFunction(bps[1:], shells.sums(bps, x))


def _lattice(dim: int, side: int) -> np.ndarray:
    """Index points of {0, ..., side-1}^d as int64 rows (side^d, d), row-major as
    ``itertools.product``: the one lattice order of grids, CSV columns and boxes."""
    return np.indices((side,) * dim, dtype=np.int64).reshape(dim, side**dim).T


def grid_points(dim: int, resolution: int) -> np.ndarray:
    """All grid points (j_1/M, ..., j_d/M), shape (M^d, d), row-major in j."""
    return _lattice(dim, resolution) / float(resolution)


def _grid_sums(f: TrigPolynomial, slots: np.ndarray, n_slots: int, resolution: int):
    """Values of shape (M^d, n_slots), rows in grid_points order: column k is
    the sum of c(n) exp(2 pi i n.j/M) over the frequencies with slot <= k, for
    slots in range(n_slots).  Needs M >= 2B+1, so that the residues n mod M
    of distinct frequencies differ and one scatter places every coefficient.
    Built shell-major, as (n_slots,) + (M,)*d, cumulated over the shells and
    transformed over the grid axes in place, so the peak stays near the size of
    the result, which is the transpose view of the (n_slots, M^d) array."""
    if resolution < 2 * f.bandwidth + 1:
        raise ValueError("aliasing: grid resolution must be at least 2B+1")
    A = np.zeros((n_slots,) + (resolution,) * f.dim, dtype=complex)
    A[(slots,) + tuple((f.freqs % resolution).T)] = f.coeffs
    np.cumsum(A, axis=0, out=A)
    np.fft.ifftn(A, axes=range(1, f.dim + 1), norm="forward", out=A)
    return A.reshape(n_slots, resolution**f.dim).T


def family_values_on_grid(f: TrigPolynomial, P: HPolytope, resolution: int):
    """Family values at every breakpoint for every grid point.

    Returns (breakpoints, values) with values of shape (M^d, L), a transpose
    view whose contiguous column k holds the partial sum at the k-th
    breakpoint; each frequency enters at its shell.  Needs resolution >= 2B+1.
    """
    shells = _Shells(f, P)
    return shells.breakpoints, shells.family(resolution)


def partial_sum_by_pieces(f: TrigPolynomial, P: HPolytope, lam, x):
    """Partial sum computed piece by piece over the fan, one piece per row of P.

    Each supported frequency goes to exactly one piece (lowest row index
    attaining its gauge), so the per-piece sums add up to the direct partial
    sum with every frequency counted once.  Cutoffs and shapes as for
    :func:`partial_sum`.
    """
    return _Shells(f, P).sums(lam, x, by_pieces=True)


def _axis_aligned(a: np.ndarray) -> bool:
    """Whether the facet row a is a nonzero multiple of e_1, relative to |a_1|:
    then the piece's cone cutoff is a pure n_1 threshold on the lattice."""
    return bool(a[0] != 0.0 and np.linalg.norm(a[1:]) <= 1e-12 * abs(a[0]))


def freeze(f: TrigPolynomial, P: HPolytope, piece: Facet, xprime) -> TrigPolynomial:
    """Collapse the piece's frequencies onto n_1 at a fixed x'.

    Returns the 1-d polynomial whose coefficient at n_1 is the sum over the
    frequencies (n_1, n') assigned to the piece of c(n) exp(2 pi i x'.n').  Its
    partial sum at the dilate lam is the facet's own half-space on the line,
    ``halfspace_multiplier(g, piece.a[:1], lam * piece.b)``, which compares the
    same products a_1 n_1 as the gauge.  Only facets with normal +-e_1 are
    supported, the axis-aligned case where the cone cutoff is a pure n_1
    threshold on the lattice.
    """
    xprime = np.asarray(xprime, dtype=float).reshape(-1)
    if xprime.shape[0] != f.dim - 1:
        raise ValueError("x' must have d-1 coordinates")
    n1, rows = _Shells(f, P).frozen(piece, xprime[None])
    return TrigPolynomial(1, n1, rows[0])


def cone_multiplier(f: TrigPolynomial, piece: Facet, P: HPolytope) -> TrigPolynomial:
    """Sharp cone cutoff: keep exactly the coefficients assigned to the piece.

    Idempotent; summing the outputs over all pieces of a fan reproduces f
    coefficient for coefficient.
    """
    keep = _Shells(f, P).owner == piece.index
    return TrigPolynomial(f.dim, f.freqs[keep], f.coeffs[keep])


def _halfspace_keep(freqs: np.ndarray, a: np.ndarray, c) -> np.ndarray:
    """Keep-mask of the closed half-space a.n <= c: shape (N,) for a scalar
    offset c, (K, N) for a 1-d array of K offsets, one row per offset."""
    return freqs @ a <= np.asarray(c, dtype=float)[..., None]


def halfspace_multiplier(f: TrigPolynomial, a, c: float) -> TrigPolynomial:
    """Sharp half-space cutoff: keep coefficients with a.n <= c (closed).

    Composing the rows of a cone's half-space form yields the closed-cone
    cutoff, which differs from :func:`cone_multiplier` exactly on shared
    boundary frequencies, where the lowest-index tie-break governs.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] != f.dim:
        raise ValueError("normal vector has wrong dimension")
    if not np.all(np.isfinite(a)) or np.isnan(c):
        raise ValueError("half-space needs a finite normal and a non-NaN offset")
    keep = _halfspace_keep(f.freqs, a, c)
    return TrigPolynomial(f.dim, f.freqs[keep], f.coeffs[keep])


def sample_grid(f: TrigPolynomial, resolution: int) -> GridSamples:
    """Evaluate f at every grid point j/M; requires M >= 2B+1 (no aliasing)."""
    vals = _grid_sums(f, np.zeros(len(f), dtype=np.intp), 1, resolution)
    return GridSamples(f.dim, resolution, vals.reshape((resolution,) * f.dim))
