"""Limit curves, dimension spectra, and the monotone projection operators.

The scaling limit of a branching grid is a curve over theta in [0, 1]; its
ratio against (1 - theta) is the Assouad-spectrum curve.  Projections onto
the diagonally-monotone subclasses (parametrized by a growth rate) exist on
both sides and commute with the limit, which the deviation report below
measures at finite window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grids import (
    EXACT_TOL,
    GridSpec,
    TwoScaleGrid,
    ValidationReport,
    _Collector,
    _clamp_nonnegative,
    _frozen,
    _grid_weights,
    _lower_mask,
    _snap_dust,
    validate_branching,
)

DEFAULT_THETA_STEP = 1.0 / 64.0
# Most theta steps a curve may have: above 2^53 the double 1 / theta_step no
# longer holds every integer count.  Counts up to it that are too large to
# allocate fail with MemoryError where their arrays are built.
MAX_THETA_COUNT = 2**53


# ---------------------------------------------------------------------------
# Curve containers
# ---------------------------------------------------------------------------

def _theta_count(theta_step: float) -> int:
    """The number m = 1 / theta_step of theta steps, which must be an integer in
    [1, ``MAX_THETA_COUNT``]."""
    if not theta_step > 0:
        raise ValueError(f"theta_step must be positive, got {theta_step}")
    if 1.0 / theta_step > MAX_THETA_COUNT:
        raise ValueError(f"1/theta_step must be at most {MAX_THETA_COUNT}, got theta_step {theta_step}")
    m = round(1.0 / theta_step)
    if m < 1 or abs(m * theta_step - 1.0) > 1e-12:
        raise ValueError("1/theta_step must be an integer")
    return m


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """Function sampled on the uniform theta grid {0, step, ..., 1}."""

    theta_step: float
    values: np.ndarray

    def __post_init__(self):
        m = _theta_count(self.theta_step)
        vals = np.array(self.values, dtype=float)
        if vals.shape != (m + 1,):
            raise ValueError(f"need {m + 1} samples, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("curve values must be finite")
        if (vals < -EXACT_TOL).any():
            raise ValueError("curve values must be nonnegative")
        vals = np.maximum(vals, 0.0)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, theta_step: float, values: np.ndarray) -> "SpectrumGrid":
        """A curve that takes ``values`` as they are and only makes them read-only.

        The private path for operators whose outputs are clean by construction.
        ``theta_step`` must pass ``_theta_count``, and ``values`` must be a fresh
        C-contiguous float array of its m + 1 samples, finite, nonnegative and
        without -0.0, which the constructor's checks and clamp keep bit for bit.
        """
        values.flags.writeable = False
        curve = object.__new__(cls)
        object.__setattr__(curve, "theta_step", theta_step)
        object.__setattr__(curve, "values", values)
        return curve

    @property
    def m(self) -> int:
        return round(1.0 / self.theta_step)

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.m + 1) * self.theta_step

    def _gather(self, weights):
        """Interpolated values at the queries whose ``_curve_weights`` are given."""
        i, frac = weights
        out = (1 - frac) * self.values[i] + frac * self.values[1:][i]
        return out if out.shape else float(out)


def _curve_weights(m: int, theta):
    """Linear interpolation on {0, 1/m, ..., 1}: left sample index and fraction past it."""
    theta = np.asarray(theta, dtype=float)
    if (theta < -EXACT_TOL).any() or (theta > 1 + EXACT_TOL).any():
        raise ValueError("theta must lie in [0, 1]")
    x = _snap_dust(np.clip(theta, 0.0, 1.0) * m)
    i = np.minimum(np.floor(x), m - 1).astype(np.int64)
    return i, x - i


# Fixed query lattices, keyed by the exact theta_step: two steps that round to
# the same m still place their samples, and so the queries, differently.

@lru_cache(maxsize=4)
def _subadditivity_weights(theta_step: float):
    """Weights at the products lam * theta of the samples, and at the samples."""
    m = round(1.0 / theta_step)
    th = np.arange(m + 1) * theta_step
    return _frozen((_curve_weights(m, th[:, None] * th), _curve_weights(m, th)))


@lru_cache(maxsize=4)
def _cone_weights(spec: GridSpec, theta_step: float):
    """The lattice entries j <= i in row order: their u, the weights at their
    ratios v / u (u = 0 read as ratio 1), and the positions of the diagonal."""
    ii, jj = np.tril_indices(spec.n + 1)
    coords = spec.coords
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = coords[jj] / coords[ii]
    ratio[0] = 1.0  # the entry (0, 0), the only one with u = 0
    weights = _curve_weights(round(1.0 / theta_step), np.clip(ratio, 0.0, 1.0))
    return _frozen((coords[ii], weights, np.flatnonzero(ii == jj)))


# ---------------------------------------------------------------------------
# Curve validators
# ---------------------------------------------------------------------------

def validate_limit_curve(curve: SpectrumGrid, lipschitz: float, tol: float) -> ValidationReport:
    """Check membership in the scaling-limit class.

    Conditions: value 0 at theta = 1, decreasing, lipschitz-bounded steps, and
    gamma(lam * theta) <= gamma(theta) + theta * gamma(lam) over all sample
    pairs, with the product point interpolated linearly.
    """
    v = curve.values
    th = curve.thetas
    col = _Collector()

    end = np.array([abs(v[-1])])
    col.add_array("endpoint_zero", end > tol, end, lambda i: (1.0,))

    inc = np.diff(v)
    col.add_array("decreasing", inc > tol, inc, lambda i: (th[i + 1],))

    if np.isfinite(lipschitz):
        drop = -np.diff(v) - lipschitz * curve.theta_step
        col.add_array("lipschitz", drop > tol, drop, lambda i: (th[i + 1],))

    # gap[a, b] = gamma(lam * theta) - (gamma(theta) + theta * gamma(lam)), lam = th[a], theta = th[b]
    at_products, at_samples = _subadditivity_weights(curve.theta_step)
    at = curve._gather(at_samples)
    gap = curve._gather(at_products) - (at + th * at[:, None])
    col.add_array("subadditivity", gap > tol, gap, lambda a, b: (th[a], th[b]))
    return col.report()


def validate_monotone_curve(curve: SpectrumGrid, lipschitz: float, growth: float) -> ValidationReport:
    """Check the monotone limit subclass with floor ``growth``.

    Conditions: decreasing, lipschitz-bounded, endpoints (0 at theta = 1,
    >= growth at theta = 0), and value/(1 - theta) increasing.  Subadditivity
    is implied by these and is not re-checked here.  Each holds to ``EXACT_TOL``.
    """
    v = curve.values
    th = curve.thetas
    col = _Collector()

    end = np.array([abs(v[-1])])
    col.add_array("endpoint_zero", end > EXACT_TOL, end, lambda i: (1.0,))
    start = np.array([growth - v[0]])
    col.add_array("floor_at_zero", start > EXACT_TOL, start, lambda i: (0.0,))

    inc = np.diff(v)
    col.add_array("decreasing", inc > EXACT_TOL, inc, lambda i: (th[i + 1],))
    if np.isfinite(lipschitz):
        drop = -np.diff(v) - lipschitz * curve.theta_step
        col.add_array("lipschitz", drop > EXACT_TOL, drop, lambda i: (th[i + 1],))

    ratio = v[:-1] / (1.0 - th[:-1])
    dec = -np.diff(ratio)
    col.add_array("ratio_increasing", dec > EXACT_TOL, dec, lambda i: (th[i + 1],))
    return col.report()


def validate_monotone_grid(grid: TwoScaleGrid, lipschitz: float, growth: float) -> ValidationReport:
    """Branching checks plus diagonal monotonicity and first-column growth, each to ``EXACT_TOL``."""
    base = validate_branching(grid, lipschitz, EXACT_TOL)
    V = grid.values
    n = grid.spec.n
    coords = grid.spec.coords
    col = _Collector()
    col.violations.extend(base.violations)
    col.counts.update(base.counts)

    # value(u + z, v + z) >= value(u, v) for every aligned z: each diagonal
    # of constant u - v = d >= 1 must be nondecreasing along its n - d steps
    drop = -np.diff(_diagonals(V)[1], axis=1)
    d = np.arange(n + 1)[:, None]
    bad = (drop > EXACT_TOL) & (d >= 1) & (d + np.arange(n) < n)
    col.add_array("diagonal_monotone", bad, drop, lambda i, k: (coords[i + k + 1], coords[k + 1]))

    first = V[:, 0]
    gap = growth * (coords[:, None] - coords[None, :]) - (first[:, None] - first[None, :])
    bad = (gap > EXACT_TOL) & (coords[None, :] < coords[:, None])
    col.add_array("column_growth", bad, gap, lambda a, b: (coords[a], coords[b]))
    return col.report()


# ---------------------------------------------------------------------------
# Limit operator and its inverse
# ---------------------------------------------------------------------------

def scaling_limit(
    grid: TwoScaleGrid,
    u_min: float,
    theta_step: float = DEFAULT_THETA_STEP,
) -> SpectrumGrid:
    """Finite-window surrogate of the normalized scaling limit.

    For each theta on the grid returns max over lattice u in [u_min, u_max] of
    value(u, theta * u) / u, with u_max the grid's scale range.  The true
    limit is a limsup in u; the window is reported by callers alongside
    estimates.
    """
    if not 0 < u_min < grid.spec.u_max:
        raise ValueError("need 0 < u_min < u_max within the grid")
    _theta_count(theta_step)
    us, weights = _window_weights(grid.spec, u_min, theta_step)
    vals = grid._gather(weights).reshape(us.size, -1)
    out = (vals / us[:, None]).max(axis=0)
    # finite nonnegative values give no NaN, but may overflow
    if not out.max() < np.inf:
        raise ValueError("curve values must be finite")
    return SpectrumGrid._adopt(theta_step, out)


@lru_cache(maxsize=4)
def _window_weights(spec: GridSpec, u_min: float, theta_step: float):
    """The window's lattice u, and grid weights at (u, theta * u) for every sample theta."""
    coords = spec.coords
    us = coords[(coords >= u_min - EXACT_TOL) & (coords <= spec.u_max + EXACT_TOL) & (coords > 0)]
    m = round(1.0 / theta_step)
    uu = np.repeat(us, m + 1)
    tt = np.tile(np.arange(m + 1) * theta_step, us.size)
    return _frozen((us, _grid_weights(spec, uu, tt * uu)))


def cone_extension(curve: SpectrumGrid, spec: GridSpec) -> TwoScaleGrid:
    """Positively homogeneous grid psi(u, v) = u * curve(v / u).

    This is the largest branching grid whose scaling limit equals the curve;
    any branching grid with a dominated limit is dominated by it up to o(u).
    """
    vals = np.zeros((spec.n + 1, spec.n + 1))
    vals[_lower_mask(spec.n)] = _cone_triangle(curve, spec)
    return TwoScaleGrid._adopt(spec, vals)


def _cone_triangle(curve: SpectrumGrid, spec: GridSpec) -> np.ndarray:
    """The values of ``cone_extension(curve, spec)`` at the lattice entries j <= i, row by row."""
    report = validate_limit_curve(curve, np.inf, tol=1e-7)
    if not report.passed:
        raise ValueError(f"invalid limit curve: {report.summary()}")
    us, weights, diagonal = _cone_weights(spec, curve.theta_step)
    vals = us * curve._gather(weights)
    # the endpoint is only checked to 1e-7, the diagonal must be exactly zero
    vals[diagonal] = 0.0
    return _clamp_nonnegative(vals)


def assouad_spectrum(curve: SpectrumGrid) -> SpectrumGrid:
    """Spectrum curve value/(1 - theta), closed at theta = 1 by its supremum."""
    v = curve.values
    th = curve.thetas
    out = np.empty_like(v)
    out[:-1] = v[:-1] / (1.0 - th[:-1])
    out[-1] = out[:-1].max()
    return SpectrumGrid(curve.theta_step, out)


# ---------------------------------------------------------------------------
# Monotone projections
# ---------------------------------------------------------------------------

def monotone_envelope(grid: TwoScaleGrid, growth: float) -> TwoScaleGrid:
    """Least diagonally-monotone majorant with first-column growth ``growth``.

    out(u, v) = max over lattice z in [0, u] of value(u-z, v-z) for z <= v and
    growth * (z - v) + value(u-z, 0) for z >= v.  The map is idempotent, is
    the identity on its range, and dominates the input.

    The first branch is a running maximum along each diagonal u - v = d.  The
    diagonals are the rows of one skewed table S[d, k] = value(d + k, k), a
    strided view of the values stacked on a block of zeros, so a single
    running maximum along its rows serves every diagonal; the second branch
    depends on d alone and is one column maxed into S.
    """
    return next(_monotone_envelopes(grid, (growth,)))


def _monotone_envelopes(grid: TwoScaleGrid, growths: Sequence[float]) -> Iterator[TwoScaleGrid]:
    """``monotone_envelope(grid, growth)`` for each growth in turn.

    The running maximum along the diagonals does not depend on growth, so it
    is taken once.  Each envelope lives in its own padded table, the first in
    the one the running maximum read.  The generator keeps no table once it
    has yielded it, so a caller that drops each envelope before asking for the
    next holds one table at a time.
    """
    V = grid.values
    n = grid.spec.n
    pad, diagonals = _diagonals(V)
    skew = np.maximum.accumulate(diagonals, axis=1)
    for growth in growths:
        if not 0 <= growth < np.inf:
            raise ValueError(f"growth must be nonnegative and finite, got {growth}")
        slope = growth * grid.spec.step * np.arange(n + 1)
        # branch two: growth*(u-v) + running max of (first column minus growth * u)
        ramp = slope + np.maximum.accumulate(V[:, 0] - slope)
        if not np.isfinite(ramp).all():  # a large growth overflows the slope
            raise ValueError("values must be finite on the lattice")
        if pad is None:
            pad, diagonals = _padded(n)
        # writing through the view sets every lattice entry d + k <= n exactly
        # once and leaves the zeros above the diagonal
        np.maximum(skew, ramp[:, None], out=diagonals)
        yield TwoScaleGrid._adopt(grid.spec, pad[: n + 1])
        pad = diagonals = None


def _padded(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero table of 2n + 2 rows and n + 1 columns, and its skewed view S[d, k] = table[d + k, k].

    Row d of S is the diagonal u - v = d of the first n + 1 rows; S is a
    strided view of the table, so writes through it land in the table.  Past
    the lattice (d + k > n) its rows run into the rows below, after the
    entries they follow.
    """
    pad = np.zeros((2 * n + 2, n + 1))
    rows, cols = pad.strides
    return pad, as_strided(pad, (n + 1, n + 1), (rows, rows + cols))


def _diagonals(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values stacked on a block of zeros, and the skewed view S[d, k] = V[d + k, k]."""
    pad, diagonals = _padded(V.shape[0] - 1)
    pad[: V.shape[0]] = V
    return pad, diagonals


def spectrum_envelope(curve: SpectrumGrid, growth: float) -> SpectrumGrid:
    """Least monotone-class curve above the input with floor ``growth``.

    (1 - theta) times the running maximum of the spectrum ratio over [0,
    theta], floored at ``growth``.  Idempotent and the identity on curves
    already in the class.
    """
    if not 0 <= growth < np.inf:
        raise ValueError(f"growth must be nonnegative and finite, got {growth}")
    v = curve.values
    th = curve.thetas
    ratio = np.empty_like(v)
    ratio[:-1] = v[:-1] / (1.0 - th[:-1])
    ratio[-1] = ratio[-2] if v.size > 1 else growth
    # growth + 0.0 turns -0.0 into the 0.0 a clean curve holds
    run = np.maximum(np.maximum.accumulate(ratio), growth + 0.0)
    if not run[-1] < np.inf:  # run is nondecreasing, so this finds any overflow
        raise ValueError("curve values must be finite")
    out = (1.0 - th) * run
    out[-1] = 0.0
    return SpectrumGrid._adopt(curve.theta_step, out)


def plateau_curve(height: float, kink: float) -> SpectrumGrid:
    """Minimal monotone-class curve: constant height*(1-kink), then height*(1-theta).

    These curves generate the monotone class under maxima; kink = 1 gives the
    zero curve.
    """
    if not 0 <= height < np.inf:
        raise ValueError(f"height must be nonnegative and finite, got {height}")
    if not 0 <= kink <= 1:
        raise ValueError("kink must lie in [0, 1]")
    m = round(1.0 / DEFAULT_THETA_STEP)
    th = np.arange(m + 1) * DEFAULT_THETA_STEP
    return SpectrumGrid(DEFAULT_THETA_STEP, height * (1.0 - np.maximum(th, kink)))


def upper_spectrum(curve: SpectrumGrid) -> SpectrumGrid:
    """Running maximum over [0, theta] of a spectrum curve."""
    return SpectrumGrid(curve.theta_step, np.maximum.accumulate(curve.values))


# ---------------------------------------------------------------------------
# Commuting-diagram deviation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationReport:
    sup_deviation: float
    witness_theta: float
    window: tuple


def commuting_deviation(
    grid: TwoScaleGrid,
    growths: Sequence[float],
    u_min: float,
) -> list[DeviationReport]:
    """Sup-norm gap between limit-then-project and project-then-limit, one report per growth.

    Both paths are computed at the same finite window; the gap shrinks as the
    window grows and vanishes for homogeneous inputs up to grid tolerance.
    The grid's scaling limit and the diagonal running maximum of its
    envelopes do not depend on growth, so each is taken once, and each
    envelope is dropped before the next one is built.
    """
    limit = scaling_limit(grid, u_min)
    envelopes = _monotone_envelopes(grid, growths)
    reports = []
    for g in growths:
        via_grid = scaling_limit(next(envelopes), u_min)
        via_curve = spectrum_envelope(limit, g)
        gap = np.abs(via_grid.values - via_curve.values)
        k = int(np.argmax(gap))
        reports.append(DeviationReport(
            sup_deviation=float(gap[k]),
            witness_theta=float(via_grid.thetas[k]),
            window=(u_min, grid.spec.u_max),
        ))
    return reports
