"""Empirical covering statistics of materialized dyadic sets.

Any object exposing ``dimension``, ``max_covering_level`` and
``cells_at_level(u) -> (m, d) int array`` can be measured: trees and
composite sets count their materialized cubes, point samples count occupied
cells after flooring.  Covering numbers use dyadic cells rather than minimal
ball covers; the discrepancy is a dimension-dependent additive constant that
every downstream quantity normalizes away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import EXACT_TOL, GridSpec, TwoScaleGrid, ValidationReport, unique_rows, validate_branching
from .operators import (
    DEFAULT_THETA_STEP,
    AssouadSpectrum,
    assouad_spectrum,
    scaling_limit,
)

MAX_CENTERS = 100_000


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite point sample in [0, 1]^d measured through its occupied cells.

    ``depth`` is the finest level whose cell counts the sample resolves.
    Coordinates may leave the cube by ``EXACT_TOL``, the rounding slack of
    float attractor images; anything further out is rejected.
    """

    points: np.ndarray
    depth: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must be nonempty")
        if not np.all((pts >= -EXACT_TOL) & (pts <= 1.0 + EXACT_TOL)):
            raise ValueError("points must lie in the unit cube [0, 1]^d")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def max_covering_level(self) -> int:
        return self.depth

    def cells_at_level(self, level: int) -> np.ndarray:
        if not 0 <= level <= self.max_covering_level:
            raise ValueError(f"level {level} exceeds usable depth {self.max_covering_level}")
        return occupied_cells(self.points, level)


def occupied_cells(points: np.ndarray, level: int) -> np.ndarray:
    """Distinct level-``level`` cells of points in the closed unit cube.

    The top face x = 1 belongs to the last cell, so counts of sets touching
    the boundary stay at the geometric value; points within the rounding
    slack outside the cube count in the boundary cell they touch.
    """
    cells = np.floor(points * np.exp2(level)).astype(np.int64)
    cells = np.clip(cells, 0, (1 << level) - 1)
    return unique_rows(cells)


@dataclass(frozen=True, eq=False)
class CoverageGrid:
    """Empirical branching grid plus measurement metadata and its membership report."""

    grid: TwoScaleGrid
    metadata: dict = field(default_factory=dict)
    membership: ValidationReport | None = None


def cell_count(obj, level: int) -> int:
    """Number of level-``level`` dyadic cells meeting the set."""
    return int(obj.cells_at_level(level).shape[0])


def local_covering(obj, u: int, v: int) -> int:
    """Worst-case number of level-u cells of the set near one of its points.

    Centers run over the set's level-u cell corners (uniformly strided above
    ``MAX_CENTERS``); for each center the level-u cells meeting the closed
    ball of radius 2^-v around it are counted, and the maximum is returned.
    At u == v the count is pinned to one cell, the scale-matched convention
    that keeps empirical grids inside the branching class.
    """
    if not 0 <= v <= u:
        raise ValueError("need 0 <= v <= u")
    if u > obj.max_covering_level:
        raise ValueError(f"level {u} exceeds usable depth {obj.max_covering_level}")
    if u == v:
        return 1
    cells = obj.cells_at_level(u)
    return _max_ball_count(cells, cells, 1 << (u - v), MAX_CENTERS)


def _max_ball_count(cells: np.ndarray, centers: np.ndarray, radius: int, max_centers: int) -> int:
    """Max over centers of cells with closed-box/closed-ball intersection.

    All geometry is integral: a cell [k, k+1] meets the ball of integer radius
    R around corner c exactly when every coordinate gap max(k-c, c-k-1, 0)
    keeps the squared distance within R^2.
    """
    stride = max(1, -(-centers.shape[0] // max_centers))
    centers = centers[::stride]
    d = cells.shape[1]
    if d == 1:
        flat = np.sort(cells[:, 0])
        c = centers[:, 0]
        lo = np.searchsorted(flat, c - radius - 1, side="left")
        hi = np.searchsorted(flat, c + radius, side="right")
        return int((hi - lo).max())
    order = np.argsort(cells[:, 0], kind="stable")
    cells = cells[order]
    first = cells[:, 0]
    best = 0
    r2 = radius * radius
    for c in centers:
        a = np.searchsorted(first, c[0] - radius - 1, side="left")
        b = np.searchsorted(first, c[0] + radius, side="right")
        block = cells[a:b]
        gaps = np.maximum(np.maximum(block - c, c - block - 1), 0)
        best = max(best, int(np.count_nonzero(np.sum(gaps * gaps, axis=1) <= r2)))
    return best


def empirical_branching(obj, spec: GridSpec) -> CoverageGrid:
    """Measure the two-scale branching grid of a materialized set.

    Counts are taken on the integer level sublattice and interpolated onto
    ``spec``.  The result is checked against the branching axioms with slack
    2 + d (ball/cell discrepancy plus the covering product constant); the
    report is attached, not raised.
    """
    d = obj.dimension
    top = int(np.ceil(spec.u_max - 1e-9))
    if top > obj.max_covering_level:
        raise ValueError(
            f"spec.u_max {spec.u_max} exceeds usable depth {obj.max_covering_level}"
        )
    table = np.zeros((top + 1, top + 1))
    total_centers = 0
    max_stride = 1
    for u in range(top + 1):
        cells = obj.cells_at_level(u)
        total_centers += cells.shape[0]
        max_stride = max(max_stride, -(-cells.shape[0] // MAX_CENTERS))
        for v in range(u):
            table[u, v] = np.log2(_max_ball_count(cells, cells, 1 << (u - v), MAX_CENTERS))
    integer_grid = TwoScaleGrid(GridSpec(float(top), 1.0), table)
    coords = spec.coords
    uu, vv = np.meshgrid(coords, coords, indexing="ij")
    # the upper triangle evaluates the mirrored point; the grid drops it
    grid = TwoScaleGrid(spec, integer_grid.evaluate(np.maximum(uu, vv), np.minimum(vv, uu)))
    slack = 2.0 + d
    report = validate_branching(grid, np.inf, tol=slack)
    meta = {
        "depth_used": int(obj.max_covering_level),
        "centers_sampled": int(total_centers),
        "center_cap": MAX_CENTERS,
        "center_stride": int(max_stride),
        "membership_slack": slack,
    }
    return CoverageGrid(grid, meta, report)


def average_profile(obj, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Whole-set branching profile: levels u and log2 cell counts."""
    top = obj.max_covering_level if top is None else top
    us = np.arange(top + 1)
    counts = np.array([cell_count(obj, int(u)) for u in us], dtype=float)
    return us.astype(float), np.log2(counts)


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


def spectrum_estimate(
    coverage: CoverageGrid,
    u_min: float,
    theta_step: float = DEFAULT_THETA_STEP,
) -> AssouadSpectrum:
    """Assouad-spectrum estimate from an empirical branching grid.

    The windowed scaling limit is transformed by 1/(1 - theta); the window
    [u_min, u_max] governs the finite-scale bias and belongs in any report
    built from the result.
    """
    return assouad_spectrum(scaling_limit(coverage.grid, u_min, theta_step))
