"""Lattice-sampled two-scale branching functions and their basic calculus.

A two-scale grid stores covering statistics beta(u, v) = log2 of the worst
number of 2^-u balls needed to cover a 2^-v ball, sampled on a uniform
triangular lattice over {(u, v): 0 <= v <= u <= u_max}.  All logarithms are
base 2 and all operators here are finite maxima/minima over the lattice, so
results are deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

EXACT_TOL = 1e-9
DEFAULT_GRID_STEP = 0.25

# Per-property cap on recorded witnesses; counts stay exact.
MAX_WITNESSES = 32


class CapExceeded(RuntimeError):
    """A materialization would exceed its configured resource cap."""


def unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array in lexicographic order.

    Gives the values, order, shape and dtype of ``np.unique`` along axis 0.
    Integer rows with one sort key are sorted as that key: one column is its
    own key, and nonnegative columns whose bit widths sum to at most 63 are
    packed into one int64, the first column highest.  Other single columns
    go to ``np.unique``, and other rows take a lexsort over the columns in
    place of its structured-dtype row sort, which is several times slower.
    """
    if a.dtype.kind in "iu" and a.shape[0]:
        if a.shape[1] == 1:
            return _distinct_sorted(np.sort(a[:, 0]))[:, None]
        # column by column: numpy reduces a narrow table's axis 0 slowly
        widths = [int(col.max()).bit_length() for col in a.T]
        if a.min() >= 0 and sum(widths) <= 63:
            shifts = np.cumsum(widths[::-1])[::-1] - widths  # the bits below each column
            key = np.zeros(a.shape[0], dtype=np.int64)
            for col, shift in zip(a.T, shifts):
                key |= col.astype(np.int64) << shift
            key = _distinct_sorted(np.sort(key))
            out = np.empty((key.size, a.shape[1]), dtype=a.dtype)
            for q, (width, shift) in enumerate(zip(widths, shifts)):
                out[:, q] = (key >> shift) & ((1 << width) - 1)
            return out
    if a.shape[1] == 1:
        return np.unique(a[:, 0])[:, None]
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(a.shape[0], dtype=bool)
    keep[1:] = np.any(a[1:] != a[:-1], axis=1)
    return a[keep]


def _distinct_sorted(x: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-D array."""
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


# ---------------------------------------------------------------------------
# Lattice specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform triangular lattice {(i*step, j*step): 0 <= j <= i <= n}."""

    u_max: float
    step: float = DEFAULT_GRID_STEP

    def __post_init__(self):
        if not (0 < self.step < np.inf and 0 < self.u_max < np.inf):
            raise ValueError(f"u_max and step must be positive and finite, got {self.u_max} and {self.step}")
        ratio = self.u_max / self.step
        # numpy refuses an (n + 1)^2 float table of more than intp-max bytes
        if not ratio < np.inf or 8 * (round(ratio) + 1) ** 2 > np.iinfo(np.intp).max:
            raise ValueError(f"u_max {self.u_max} and step {self.step} give a lattice whose "
                             f"(u_max / step + 1)^2 float table exceeds {np.iinfo(np.intp).max} bytes")
        n = round(ratio)
        if n < 1 or abs(n * self.step - self.u_max) > 1e-9 * max(1.0, self.u_max):
            raise ValueError(f"step {self.step} does not divide u_max {self.u_max}")

    @property
    def n(self) -> int:
        return round(self.u_max / self.step)

    @property
    def coords(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.step

    def index_of(self, x: float, what: str) -> int:
        i = round(x / self.step)
        if abs(i * self.step - x) > 1e-9 or not 0 <= i <= self.n:
            raise ValueError(f"{what} {x!r} is not lattice-aligned for step {self.step}")
        return i


def _frozen(obj):
    """``obj`` with every array in it, through nested tuples, made read-only.

    Cached results are shared by every caller, so none may write to them.
    """
    if isinstance(obj, tuple):
        for item in obj:
            _frozen(item)
    else:
        obj.flags.writeable = False
    return obj


@lru_cache(maxsize=8)
def _lower_mask(n: int) -> np.ndarray:
    """Mask of the lattice entries j <= i of an (n + 1)^2 table."""
    return _frozen(np.tri(n + 1, dtype=bool))


def _clamp_nonnegative(vals: np.ndarray) -> np.ndarray:
    """Lattice values, checked finite and nonnegative to ``EXACT_TOL``, clamped at 0 in place."""
    lo, hi = vals.min(), vals.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("values must be finite on the lattice")
    if lo < -EXACT_TOL:
        raise ValueError("values must be nonnegative on the lattice")
    return np.maximum(vals, 0.0, out=vals)


def _clean_triangle(spec: GridSpec, values) -> np.ndarray:
    """Validate and normalize a lower-triangular value table."""
    vals = np.asarray(values, dtype=float)
    n = spec.n
    if vals.shape != (n + 1, n + 1):
        raise ValueError(f"values must have shape {(n + 1, n + 1)}, got {vals.shape}")
    # entries above the diagonal are unused; pin them so equality checks are stable
    vals = _clamp_nonnegative(np.where(_lower_mask(n), vals, 0.0))
    if (np.abs(np.diagonal(vals)) > EXACT_TOL).any():
        raise ValueError("diagonal values (u, u) must be zero")
    np.fill_diagonal(vals, 0.0)
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True, eq=False)
class TwoScaleGrid:
    """Sampled two-scale function; values[i, j] is the sample at (i*step, j*step)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _clean_triangle(self.spec, self.values))

    @classmethod
    def _adopt(cls, spec: GridSpec, values: np.ndarray) -> "TwoScaleGrid":
        """A grid that takes ``values`` as they are and only makes them read-only.

        The private path for operators whose outputs are clean by construction.
        ``values`` must be a fresh C-contiguous float table of shape (n + 1, n + 1)
        that ``_clean_triangle`` would return bit for bit: zero above the diagonal
        and on it, finite and nonnegative below it, and no -0.0 anywhere.
        """
        values.flags.writeable = False
        grid = object.__new__(cls)
        object.__setattr__(grid, "spec", spec)
        object.__setattr__(grid, "values", values)
        return grid

    def evaluate(self, u, v):
        """Interpolate at (u, v) with 0 <= v <= u <= u_max.

        Each lattice cell is split along its main diagonal and the function is
        linear on the two triangles, so the diagonal v = u evaluates to exactly
        zero and lattice points reproduce stored values exactly.  Coordinates
        within 1e-9 steps of the lattice are snapped onto it first, and a
        function affine in (u, v) is reproduced exactly at the snapped query.
        """
        return self._gather(_grid_weights(self.spec, u, v))

    def _gather(self, weights):
        """Interpolated values at the queries whose ``_grid_weights`` are given."""
        corners, coeffs = weights
        V = self.values.ravel()
        out = coeffs[0] * V[corners[0]] + coeffs[1] * V[corners[1]] + coeffs[2] * V[corners[2]]
        return out if out.shape else float(out)

    def lipschitz_bound(self) -> float:
        """Largest one-step slope observed on the lattice."""
        V, n = self.values, self.spec.n
        ii, jj = np.tril_indices(n, k=0)
        du = np.abs(V[ii + 1, jj] - V[ii, jj])
        keep = jj < ii
        dv = np.abs(V[ii[keep], jj[keep] + 1] - V[ii[keep], jj[keep]])
        top = max(du.max(initial=0.0), dv.max(initial=0.0))
        return top / self.spec.step


def _snap_dust(x):
    """``x`` with entries within 1e-9 of an integer set to it, so lattice-aligned queries stay exact."""
    return np.where(np.abs(x - np.rint(x)) < 1e-9, np.rint(x), x)


def _grid_weights(spec: GridSpec, u, v):
    """Flat positions of the three corners around each query (u, v), and their weights.

    The weights are those of the cell's lower triangle (lt <= ls) or upper
    triangle, and a value is c0 * V[p0] + c1 * V[p1] + c2 * V[p2] summed in
    that order.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if (v < -EXACT_TOL).any() or (v > u + EXACT_TOL).any() or (u > spec.u_max + EXACT_TOL).any():
        raise ValueError("point outside the domain 0 <= v <= u <= u_max")
    n = spec.n
    s = _snap_dust(u / spec.step)
    t = np.minimum(_snap_dust(v / spec.step), s)
    i = np.maximum(np.minimum(np.floor(s), n - 1).astype(np.int64), 0)
    j = np.maximum(np.minimum(np.floor(t), n - 1).astype(np.int64), 0)
    ls = s - i
    lt = t - j
    i1 = np.minimum(i + 1, n)
    j1 = np.minimum(j + 1, n)
    lower = lt <= ls
    corners = (i * (n + 1) + j, np.where(lower, i1 * (n + 1) + j, i * (n + 1) + j1), i1 * (n + 1) + j1)
    coeffs = (np.where(lower, 1.0 - ls, 1.0 - lt), np.where(lower, ls - lt, lt - ls), np.where(lower, lt, ls))
    return corners, coeffs


def _on_lattice(grid: TwoScaleGrid, spec: GridSpec) -> TwoScaleGrid:
    """``grid`` interpolated onto the finer lattice of ``spec``, to compare a measured grid with a target."""
    coords = spec.coords
    uu, vv = np.meshgrid(coords, coords, indexing="ij")
    # the upper triangle evaluates the mirrored point; the grid drops it
    return TwoScaleGrid(spec, grid.evaluate(np.maximum(uu, vv), np.minimum(vv, uu)))


# ---------------------------------------------------------------------------
# Piecewise-linear profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Piecewise-linear function on [0, inf) with f(0) = 0.

    ``breakpoints`` is strictly increasing and starts at 0.  ``slopes`` has one
    entry per segment; when it has as many entries as breakpoints the final
    slope extends past the last breakpoint, otherwise the extension is
    constant.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if sl.size not in (bp.size - 1, bp.size):
            raise ValueError("need one slope per segment (plus optional final slope)")
        bp.flags.writeable = False
        sl.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)

    @classmethod
    def from_samples(cls, xs, ys) -> "PiecewiseLinear":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs[0] != 0.0 or abs(ys[0]) > EXACT_TOL:
            raise ValueError("samples must start at (0, 0)")
        slopes = np.diff(ys) / np.diff(xs)
        return cls(xs, slopes)

    @property
    def knot_values(self) -> np.ndarray:
        seg = self.slopes[: self.breakpoints.size - 1]
        vals = np.concatenate([[0.0], np.cumsum(seg * np.diff(self.breakpoints))])
        return vals

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -EXACT_TOL):
            raise ValueError("domain is [0, inf)")
        x = np.maximum(x, 0.0)
        bp = self.breakpoints
        vals = self.knot_values
        idx = np.searchsorted(bp, x, side="right") - 1
        idx = np.clip(idx, 0, bp.size - 1)
        base = vals[idx]
        tail_slope = self.slopes[-1] if self.slopes.size == bp.size else 0.0
        seg_slope = np.where(
            idx < bp.size - 1,
            self.slopes[np.minimum(idx, self.slopes.size - 1)],
            tail_slope,
        )
        out = base + seg_slope * (x - bp[idx])
        return out if out.shape else float(out)

    def is_increasing(self) -> bool:
        return bool(np.all(self.slopes >= -EXACT_TOL))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    prop: str
    witness: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    counts: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def worst(self, prop: str | None = None) -> float:
        mags = [v.magnitude for v in self.violations if prop is None or v.prop == prop]
        return max(mags, default=0.0)

    def summary(self) -> str:
        if self.passed:
            return "passed"
        parts = [f"{k}:{v}" for k, v in sorted(self.counts.items()) if v]
        return "failed (" + ", ".join(parts) + f"); worst={self.worst():.6g}"


class _Collector:
    def __init__(self):
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {}

    def add_array(self, prop, mask, magnitudes, witness_fn):
        k = int(np.count_nonzero(mask))
        if k == 0:
            return
        self.counts[prop] = self.counts.get(prop, 0) + k
        room = MAX_WITNESSES - sum(1 for v in self.violations if v.prop == prop)
        if room <= 0:
            return
        idx = np.argwhere(mask)
        mags = np.asarray(magnitudes)[mask]
        for flat in np.argsort(-mags)[:room]:
            witness = tuple(map(float, witness_fn(*idx[flat])))
            self.violations.append(Violation(prop, witness, float(mags[flat])))

    def report(self) -> ValidationReport:
        return ValidationReport(tuple(self.violations), dict(self.counts))


def validate_branching(grid: TwoScaleGrid, lipschitz: float, tol: float) -> ValidationReport:
    """Check the two-scale branching axioms on the lattice.

    Checked, each with slack ``tol``: zero diagonal, subadditivity over scale
    triples v <= w <= u, monotonicity in the first coordinate, antitonicity in
    the second, and (for finite ``lipschitz``) the bound value <= lipschitz *
    (u - v), which certifies the Lipschitz property for subadditive data.
    Failures are reported, never raised.
    """
    V = grid.values
    n = grid.spec.n
    coords = grid.spec.coords
    col = _Collector()

    diag = np.abs(np.diagonal(V))
    col.add_array("diagonal_zero", diag > tol, diag, lambda i: (coords[i],))

    mask_lower = _lower_mask(n)

    gap = V[:-1, :] - V[1:, :]  # increase in u
    bad = (gap > tol) & mask_lower[:-1, :]
    col.add_array("increasing_u", bad, gap, lambda i, j: (coords[i + 1], coords[j]))

    gap = V[:, 1:] - V[:, :-1]  # decrease in v
    bad = (gap > tol) & mask_lower[:, 1:]
    col.add_array("decreasing_v", bad, gap, lambda i, j: (coords[i], coords[j + 1]))

    if np.isfinite(lipschitz):
        gap = V - lipschitz * (coords[:, None] - coords)
        bad = (gap > tol) & mask_lower
        col.add_array("lipschitz_bound", bad, gap, lambda i, j: (coords[i], coords[j]))

    _check_subadditivity(V, n, coords, tol, col)
    return col.report()


def _check_subadditivity(V, n, coords, tol, col):
    buf = np.empty((n + 2) ** 2 // 4)
    for k in range(n + 1):
        # V[i, j] <= V[i, k] + V[k, j] for j <= k <= i; the values are finite
        gap = buf[: (n + 1 - k) * (k + 1)].reshape(n + 1 - k, k + 1)
        np.add(V[k:, k, None], V[k, : k + 1], out=gap)
        np.subtract(V[k:, : k + 1], gap, out=gap)
        if gap.max() > tol:
            col.add_array(
                "subadditivity",
                gap > tol,
                gap,
                lambda a, b, k=k: (coords[a + k], coords[k], coords[b]),
            )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def pointwise_max(grids: Sequence[TwoScaleGrid]) -> TwoScaleGrid:
    """Pointwise maximum of a nonempty family on a shared lattice."""
    grids = list(grids)
    if not grids:
        raise ValueError("family must be nonempty")
    spec = grids[0].spec
    if any(g.spec != spec for g in grids):
        raise ValueError("all grids must share one GridSpec")
    return TwoScaleGrid._adopt(spec, np.maximum.reduce([g.values for g in grids]))


def profile_extension(profile: PiecewiseLinear, anchor: float, spec: GridSpec) -> TwoScaleGrid:
    """Two-scale extension xi(u, v) = g(u) - g(v) of a one-variable profile.

    The profile is first clamped to vanish on [0, anchor] via
    g~(a) = g(max(a, anchor)) - g(anchor).  The result satisfies subadditivity
    with equality at every lattice triple and is the least branching grid whose
    restriction to the line v = anchor reproduces the profile.
    """
    if not profile.is_increasing():
        raise ValueError("profile must be increasing with g(0) = 0")
    if anchor < 0:
        raise ValueError("anchor must be nonnegative")
    coords = spec.coords
    g = profile.evaluate(np.maximum(coords, anchor)) - profile.evaluate(anchor)
    return TwoScaleGrid(spec, g[:, None] - g[None, :])


def excess_bound(grid: TwoScaleGrid, lipschitz: float) -> np.ndarray:
    """Tightest increasing error bound eta(u) with values <= lipschitz*(u-v) + eta(u).

    Returns one value per lattice row, made monotone in u.
    """
    coords = grid.spec.coords
    excess = grid.values - lipschitz * (coords[:, None] - coords)
    excess = np.where(_lower_mask(grid.spec.n), excess, -np.inf)
    row = np.maximum(excess.max(axis=1), 0.0)
    return np.maximum.accumulate(row)


def lipschitz_approximation(grid: TwoScaleGrid, lipschitz: float) -> TwoScaleGrid:
    """Nearest lipschitz-bounded branching grid, built by anchored extensions.

    For each lattice anchor b the column u -> value(u, b) is replaced by its
    largest increasing lipschitz-bounded minorant g_b, extended to two scales
    by differencing, and the pointwise maximum over anchors is returned.  The
    output deviates from the input by at most the derived bound of
    :func:`excess_bound` at every lattice point, and reproduces the input
    exactly when that bound vanishes.  The input must satisfy the branching
    axioms, which :func:`validate_branching` checks; they are not re-checked here.

    All minorants come from one running minimum over the (n + 1)^2 table
    G[b, i] = g_b(i), with the float operations of the one-anchor scan.  At a
    lattice point (i, j) the anchors split three ways: b > i adds 0; for
    j < b <= i, g_b(j) = 0, so the term is G[b, i] and its maximum over b is
    one reversed running maximum; only the anchors b <= j need the pairwise
    differences, about n^3 / 6 work in all.
    """
    if lipschitz < 0:
        raise ValueError("lipschitz must be nonnegative")
    V = grid.values
    n = grid.spec.n
    cap = lipschitz * grid.spec.step
    if np.isfinite(cap) and not np.isfinite(cap * n):
        # the steps overflow, and inf - inf puts NaN in the output
        raise ValueError("values must be finite on the lattice")
    if np.isfinite(cap):
        # entries i < b of V.T are V's upper-triangle zeros; minus cap * (i - b)
        # they stay >= 0, the scan's start value at i = b, so the running
        # minimum from b on is the one-anchor scan's
        steps = cap * (np.arange(n + 1) - np.arange(n + 1)[:, None])
        G = np.minimum.accumulate(V.T - steps, axis=1) + steps
        G = np.where(_lower_mask(n).T, G, 0.0)
    else:
        G = V.T
    # out_t[j, i] = out[i, j], so each anchor class fills rows of a contiguous table
    out_t = np.zeros_like(V)
    # anchors b > j: row j takes the running maximum of G[b, :] from b = n down to j + 1
    np.maximum(out_t[:n], np.maximum.accumulate(G[:0:-1], axis=0)[::-1], out=out_t[:n])
    # anchors b <= j: the pairwise differences G[b, i] - G[b, j]
    buf = np.empty((n + 2) ** 2 // 4)
    for j in range(n + 1):
        near = buf[: (j + 1) * (n + 1 - j)].reshape(j + 1, n + 1 - j)
        np.subtract(G[: j + 1, j:], G[: j + 1, j, None], out=near)
        np.maximum(out_t[j, j:], near.max(axis=0), out=out_t[j, j:])
    return TwoScaleGrid._adopt(grid.spec, np.ascontiguousarray(out_t.T))

