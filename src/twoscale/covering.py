"""Empirical covering statistics of materialized dyadic sets.

Any object exposing ``dimension``, ``depth`` and
``cells_at_level(u) -> (m, d) int array`` can be measured: trees and
composite sets count their cubes, point samples count occupied cells.  A
point sample holds its cells at one fine level, exact from the integer form
of a point file or floored from float coordinates on first use, and every
coarser level is a shift of them, as it is for trees and composite sets.
``empirical_branching`` walks the levels of a set once, finest first, and
takes from the same pass the ball counts of ``beta(u, v)`` and the whole-set
cell counts of the box-dimension profile.  Covering numbers use dyadic cells rather than
minimal ball covers; the discrepancy is a dimension-dependent additive
constant that every downstream quantity normalizes away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import EXACT_TOL, GridSpec, TwoScaleGrid, ValidationReport, unique_rows, validate_branching

MAX_CENTERS = 100_000
# deepest level whose cell indices and d = 1 ball reach c + 2^level fit in int64
MAX_CELL_LEVEL = 62
# (center, cell) pairs measured at once by the d >= 2 ball count, and so about
# the size of each of its per-call work arrays; 2^14 and 2^16 measured slower
BALL_PAIRS = 1 << 15


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite point sample in [0, 1]^d measured through its occupied cells.

    ``depth`` is the finest level whose cell counts the sample resolves.
    Coordinates may leave the cube by ``EXACT_TOL``, the rounding slack of
    float attractor images; anything further out is rejected.  ``cells``
    holds the points' level-``cell_level`` cells, one row per point; a
    reader that knows the points exactly passes them, otherwise they are
    floored from ``points`` when a level is first requested.
    """

    points: np.ndarray
    depth: int
    metadata: dict = field(default_factory=dict)
    cells: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must be nonempty")
        if not np.all((pts >= -EXACT_TOL) & (pts <= 1.0 + EXACT_TOL)):
            raise ValueError("points must lie in the unit cube [0, 1]^d")
        if self.cells is not None and self.cells.shape != pts.shape:
            raise ValueError("cells must hold one row per point")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def cell_level(self) -> int:
        """Level of ``cells``: the depth, or the deepest level whose cell indices fit in int64."""
        return min(self.depth, MAX_CELL_LEVEL)

    def cells_at_level(self, level: int) -> np.ndarray:
        """Distinct level-``level`` cells in lexicographic order.

        The top face x = 1 belongs to the last cell, so counts of sets
        touching the boundary stay at the geometric value; points within the
        rounding slack outside the cube count in the boundary cell they touch.
        floor(x 2^(u-s)) = floor(x 2^u) >> s, and the clip to the cube
        commutes with the shift, so every level is a shift of ``cells``.
        Levels beyond ``MAX_CELL_LEVEL`` raise ``ValueError``: their cell
        indices wrap int64.
        """
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds usable depth {self.depth}")
        if level > MAX_CELL_LEVEL:
            raise ValueError(f"point cells are exact only up to level {MAX_CELL_LEVEL}, not {level}")
        if self.cells is None:
            # scaling by 2^cell_level and flooring are exact in floats
            cells = np.floor(self.points * np.exp2(self.cell_level)).astype(np.int64)
            object.__setattr__(self, "cells", np.clip(cells, 0, (1 << self.cell_level) - 1))
        return unique_rows(self.cells >> (self.cell_level - level))


@dataclass(frozen=True, eq=False)
class CoverageGrid:
    """Empirical branching grid plus measurement metadata and its membership report."""

    grid: TwoScaleGrid
    metadata: dict
    membership: ValidationReport


def _deepest_ball_level(d: int) -> int:
    """Deepest level of exact ball counts in dimension d.

    In d = 1 it is ``MAX_CELL_LEVEL``, where the reach c + 2^level fits in
    int64; in d >= 2 the squared gaps d (2^level - 1)^2 must fit.
    """
    if d == 1:
        return MAX_CELL_LEVEL
    return (math.isqrt(np.iinfo(np.int64).max // d) + 1).bit_length() - 1


def _check_ball_level(d: int, level: int) -> None:
    deepest = _deepest_ball_level(d)
    if level > deepest:
        raise ValueError(f"ball counts in d = {d} are exact only up to level {deepest}, not {level}")


def _bin_float(reach: int):
    """Float type whose exponent bits bin every D2 up to ``reach`` (see ``_radius_bins``), or None."""
    if reach <= (1 << 26) - 2:
        return np.float32
    return np.float64 if reach <= (1 << 54) - 1 else None


def _radius_bins(d2: np.ndarray, reach: int, work: np.ndarray | None = None) -> np.ndarray:
    """Smallest s >= 0 with D2 <= 4^s, for squared gap sums D2 of at most ``reach``.

    That is ceil(bit_length(max(D2 - 1, 0)) / 2), or (e + 2) >> 1 for the
    binary exponent e of max(D2 - 1, 1/2), read from the exponent bits of
    its float cast.  The cast rounds to nearest, which moves the bin only
    where it rounds up onto an even power of two: float32 first does so at
    D2 = 2^26 - 1 and float64 at D2 = 2^54, so each serves a ``reach``
    below that.  Beyond both, ``np.searchsorted`` finds the bin among the
    4^s.  Given a ``work`` array of d2's shape and ``_bin_float(reach)``
    type, the cast goes there and ``d2`` is overwritten with D2 - 1;
    without one, ``d2`` is left as it is.
    """
    float_type = _bin_float(reach)
    if float_type is None:
        # 4^0 .. 4^31, every power of 4 that int64 holds
        return np.searchsorted(4 ** np.arange(32, dtype=np.int64), d2)
    x = np.maximum(d2 - 1 if work is None else np.subtract(d2, 1, out=d2), 0.5, out=work, dtype=float_type)
    info = np.finfo(x.dtype)
    s = x.view(f"i{x.itemsize}")
    s -= (info.maxexp - 3) << info.nmant  # the exponent field, bias + e, becomes e + 2
    s >>= info.nmant + 1
    return s


def _max_ball_count(cells: np.ndarray, level: int) -> np.ndarray:
    """Max over centers of the cells meeting the closed ball of radius 2^s, s = 0..level.

    Cells and centers are the same level-``level`` cells, the centers at
    their corners and strided to at most ``MAX_CENTERS``; all geometry is in
    integer units of 2^-level.  A cell [k, k+1] meets the ball around corner
    c exactly when the squared gap sum D2 of max(k-c, c-k-1, 0) is at most
    4^s.  D2 does not depend on the radius, so in d >= 2 each (center, cell)
    pair is measured once, ``BALL_PAIRS`` pairs at a time: the pair's
    smallest s with D2 <= 4^s is binned per center by ``_radius_bins``, and
    the cumulative bins count every radius at once.  D2 is exact in int64
    only while d (2^level - 1)^2 fits, and in d = 1 the reach c + 2^level
    only up to ``MAX_CELL_LEVEL``, so deeper levels raise ``ValueError``; so
    do cells outside the cube, such as a composite set's, whose D2 would
    wrap int64.

    D2 is at most the squared sum of the cells' spans along the axes, the
    reach that picks the binning, and is measured in int32 while that bound
    is below 2^31, otherwise in int64.  The pairs go through one set of work
    arrays per call, so the kernel's speed does not depend on what the
    process freed before.
    """
    stride = max(1, -(-cells.shape[0] // MAX_CENTERS))
    centers = cells[::stride]
    d = cells.shape[1]
    _check_ball_level(d, level)
    if d == 1:
        flat = np.sort(cells[:, 0])
        c = centers[:, 0]
        return np.array([
            (np.searchsorted(flat, c + r, side="right") - np.searchsorted(flat, c - r - 1, side="left")).max()
            for r in (1 << s for s in range(level + 1))
        ])
    reach = sum(int(x) ** 2 for x in cells.max(axis=0) - cells.min(axis=0))
    if reach >= 1 << 63:
        raise ValueError(f"ball counts of cells this far apart wrap int64 at level {level}")
    dtype = np.int32 if reach < 1 << 31 else np.int64
    sign = 8 * np.dtype(dtype).itemsize - 1
    # the counts do not depend on the order of the cells, and taken 64 apart in
    # lexicographic order, neighbours rarely share a bin: bincount increments
    # unlike bins about twice as fast as a run of one bin
    order = np.argsort(np.arange(cells.shape[0]) % 64, kind="stable")
    axes = np.ascontiguousarray(cells[order].T, dtype=dtype)
    centers = centers.astype(dtype)
    # one bin per radius, a last one for the cells beyond every radius, and
    # room for the bins past it that the largest D2 reaches
    width = max(level + 2, (max(reach - 1, 0).bit_length() + 3) // 2)
    best = np.zeros(level + 1, dtype=np.int64)
    chunk = max(1, BALL_PAIRS // cells.shape[0])
    # every chunk writes into row prefixes of these
    shape = (min(chunk, centers.shape[0]), cells.shape[0])
    gap_work, shift_work, d2_work = (np.empty(shape, dtype=dtype) for _ in range(3))
    float_type = _bin_float(reach)
    float_work = None if float_type is None else np.empty(shape, dtype=float_type)
    for start in range(0, centers.shape[0], chunk):
        c = centers[start:start + chunk]
        n = c.shape[0]
        gap, shift, d2 = gap_work[:n], shift_work[:n], d2_work[:n]
        for q in range(d):
            # the gap max(k - c, c - k - 1) is delta or ~delta, whichever is not negative
            np.subtract(axes[q], c[:, q, None], out=gap)
            gap ^= np.right_shift(gap, sign, out=shift)
            if q:
                gap *= gap
                d2 += gap
            else:
                np.multiply(gap, gap, out=d2)
        s = _radius_bins(d2, reach, None if float_work is None else float_work[:n])
        s += width * np.arange(n, dtype=s.dtype)[:, None]
        bins = np.bincount(s.ravel(), minlength=n * width)
        counts = np.cumsum(bins.reshape(n, width)[:, :level + 1], axis=1)
        np.maximum(best, counts.max(axis=0), out=best)
    return best


def _cells_by_level(obj, top: int):
    """Distinct cells of levels top, top - 1, ..., 0, finest first.

    The set is asked for its cells once, at ``top``; each coarser level is the
    distinct parents, one shift, of the level above.  That holds for point
    samples, and for trees and composite sets, every cube of which has a child.
    """
    cells = obj.cells_at_level(top)
    yield cells
    for _ in range(top):
        cells = unique_rows(cells >> 1)
        yield cells


def empirical_branching(obj, top: int) -> CoverageGrid:
    """Measure the two-scale branching grid of a materialized set up to level ``top``.

    A dyadic set fixes beta only at integer levels, so the counts, taken in
    one pass over the levels, fill the grid on ``GridSpec(top, 1.0)``; a
    caller comparing it with a finer lattice interpolates it there.  The
    measured values are checked against the branching axioms with slack
    2 + d (ball/cell discrepancy plus the covering product constant); the
    report is attached, not raised.  The metadata records the distinct cells
    of every level 0..top as ``cells_per_level``, the whole-set profile of
    the sample, and the centers the ball counts measured over all levels as
    ``centers_sampled``.
    """
    d = obj.dimension
    if top > obj.depth:
        raise ValueError(f"top level {top} exceeds usable depth {obj.depth}")
    first_bad = _deepest_ball_level(d) + 1
    if top >= first_bad:
        # the error of the shallowest failing level: its cells, then its ball count
        obj.cells_at_level(first_bad)
        _check_ball_level(d, first_bad)
    table = np.zeros((top + 1, top + 1))
    counts = np.zeros(top + 1, dtype=np.int64)
    for u, cells in zip(range(top, -1, -1), _cells_by_level(obj, top)):
        counts[u] = cells.shape[0]
        table[u, :u] = np.log2(_max_ball_count(cells, u)[u:0:-1])
    grid = TwoScaleGrid(GridSpec(float(top), 1.0), table)
    report = validate_branching(grid, np.inf, tol=2.0 + d)
    strides = -(-counts // MAX_CENTERS)
    meta = {
        "cells_per_level": counts.tolist(),
        "centers_sampled": int((-(-counts // strides)).sum()),
        "center_stride": int(strides.max()),
    }
    return CoverageGrid(grid, meta, report)


def box_dims(us, values, window: tuple[float, float]) -> tuple[float, float]:
    """Finite-scale lower/upper box dimension surrogates.

    Returns (min, max) of value/u over samples with u in the window.  For
    piecewise-linear data whose breakpoints are included among the samples the
    extrema are exact.
    """
    us = np.asarray(us, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy u_lo < u_hi")
    keep = (us >= lo) & (us <= hi) & (us > 0)
    if not np.any(keep):
        raise ValueError("window contains no samples")
    ratios = values[keep] / us[keep]
    return float(ratios.min()), float(ratios.max())
