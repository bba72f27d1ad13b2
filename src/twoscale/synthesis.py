"""Dyadic subdivision sets realizing a prescribed branching grid.

Sets are unions of grid-aligned dyadic cubes in [0, 1]^d, built level by
level: a level either subdivides every cube fully or keeps only the child at
the bottom-left corner, following an integer step quantization of a target
branching profile.  A composite set strings one such tree per anchor offset
along the first coordinate, with geometrically decaying translates, and adds
the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covering import MAX_CELL_LEVEL
from .grids import CapExceeded, EXACT_TOL, PiecewiseLinear, TwoScaleGrid, unique_rows

DEFAULT_CUBE_CAP = 2_500_000

# Composite parts sit at 4 * 2^-b along coordinate 0, so the ambient box is
# [0, 5]^d; exports divide by 8 to land in the unit cube.
PART_OFFSET_NUM = 4
EXPORT_RESCALE_EXP = 3
# A composite's own level-depth cells reach 5 * 2^depth, which int64 holds up to depth 60.
MAX_DEPTH = 60


# ---------------------------------------------------------------------------
# Dyadic trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DyadicTree:
    """The subdivision tree in [0, 1]^d held as its split mask.

    Level n + 1 splits every level-n cube into its 2^d children where
    ``splits[n]`` holds, and otherwise keeps only the child at its bottom-left
    corner.  So the level-n cubes are S x ... x S (d factors) for one sorted
    set S of axis coordinates, ``levels[n]``, which doubles at each split.
    Coordinates are int64, so the depth is at most ``MAX_CELL_LEVEL``.
    """

    dimension: int
    splits: np.ndarray
    levels: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        splits = np.array(self.splits, dtype=bool)
        # levels are grown from the mask once, so it may not change after
        splits.flags.writeable = False
        if splits.ndim != 1 or splits.size > MAX_CELL_LEVEL:
            raise ValueError(f"splits must hold one flag per level, at most {MAX_CELL_LEVEL}: "
                             "the tree's coordinates are 64-bit integers")
        levels = [np.zeros(1, dtype=np.int64)]
        for split in splits:
            prev = levels[-1] << 1
            levels.append((prev[:, None] + np.arange(2)).ravel() if split else prev)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "levels", levels)

    @property
    def depth(self) -> int:
        return self.splits.size

    def cells_at_level(self, level: int) -> np.ndarray:
        """Corners of the level-``level`` cubes, the d-th power of ``levels[level]``, in lexicographic order."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        axis = self.levels[level]
        cells = np.empty((axis.size ** self.dimension, self.dimension), dtype=np.int64)
        _write_power(cells, axis)
        return cells


def _write_power(rows: np.ndarray, axis: np.ndarray) -> None:
    """Fill the contiguous rows (s^d, d) with the d-th Cartesian power of ``axis`` (s,), in lexicographic order."""
    d = rows.shape[1]
    power = rows.reshape((axis.size,) * d + (d,))
    for q in range(d):
        power[..., q] = axis.reshape((-1,) + (1,) * (d - 1 - q))


def _quantize_rows(g: np.ndarray, step_size: float) -> tuple[np.ndarray, np.ndarray]:
    """The quantization eta of each row of ``g`` (rows, levels), one level at a time for all
    rows, and which rows leave the bracket g - step_size < eta <= g, each side to EXACT_TOL."""
    eta = np.zeros(g.shape)
    for n in range(1, g.shape[1]):
        prev = eta[:, n - 1]
        eta[:, n] = np.where(g[:, n] - prev >= step_size - EXACT_TOL, prev + step_size, prev)
    return eta, ((eta <= g - step_size - EXACT_TOL) | (eta > g + EXACT_TOL)).any(axis=1)


def subdivision_tree(profile: PiecewiseLinear, dimension: int, depth: int) -> DyadicTree:
    """The subdivision tree of an increasing profile g, to level ``depth``.

    g is quantized in steps of ``dimension``: eta(n + 1) = eta(n) + dimension
    exactly when g(n + 1) - eta(n) >= dimension, which keeps
    g(n) - dimension < eta(n) <= g(n) at every level n <= depth as long as g
    moves by at most ``dimension`` per unit step.  The tree splits every cube
    where eta steps, so its level-n cube count is exactly 2^eta(n).  This is
    the one-row case of the quantizer that ``synthesize_set`` runs on all
    offsets.
    """
    if dimension < 1 or depth < 0:
        raise ValueError(f"need dimension >= 1 and depth >= 0, got dimension {dimension} and depth {depth}")
    if not profile.is_increasing():
        raise ValueError("profile must be increasing")
    eta, outside = _quantize_rows(profile.evaluate(np.arange(depth + 1, dtype=float))[None], float(dimension))
    if outside[0]:
        raise ValueError("quantizer bracket failed: profile moves faster than step_size")
    return DyadicTree(dimension, np.diff(eta[0]) > EXACT_TOL)


# ---------------------------------------------------------------------------
# Composite sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeDyadicSet:
    """Origin point plus one anchored tree per offset b, translated along axis 0.

    Part b splits nowhere above level b, so it lies in [0, 2^-b]^d, and it is
    shifted by 4 * 2^-b, so distinct parts are more than 2^-b apart (b the
    smaller offset) and the whole set lies in [0, 5] x [0, 1]^(d-1).
    """

    dimension: int
    depth: int
    parts: list  # [(offset b, DyadicTree)]

    def __post_init__(self):
        for b, tree in self.parts:
            if tree.dimension != self.dimension or tree.depth != self.depth:
                raise ValueError("parts must share dimension and depth")
            if b < 0:
                raise ValueError("offsets must be nonnegative")
            if tree.splits[:b].any():
                raise ValueError(f"part {b} must lie in [0, 2^-{b}]^d")
        if len({b for b, _ in self.parts}) < len(self.parts):
            raise ValueError("offsets must be distinct")

    def cells_at_level(self, level: int) -> np.ndarray:
        """Distinct ambient level-``level`` cell coordinates hit by the set, in lexicographic order.

        Row 0 is the origin cell, which holds every part with b - 2 > level.
        The other parts follow by decreasing b, each the power of its axis
        coordinates shifted along axis 0: part b spans [4, 5) * 2^(level - b)
        there, or the one cell 4 >> (b - level) below level b, so the parts'
        spans increase and meet neither one another nor the origin, and the
        table is sorted and distinct as written.
        """
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        d = self.dimension
        placed = sorted(((b, tree.levels[level]) for b, tree in self.parts if level >= b - 2), key=lambda p: -p[0])
        cells = np.zeros((1 + sum(axis.size ** d for _, axis in placed), d), dtype=np.int64)
        start = 1
        for b, axis in placed:
            rows = cells[start:start + axis.size ** d]
            _write_power(rows, axis)
            rows[:, 0] += PART_OFFSET_NUM << (level - b) if level >= b else PART_OFFSET_NUM >> (b - level)
            start += len(rows)
        return cells


def synthesize_set(
    grid: TwoScaleGrid,
    dimension: int,
    depth: int,
    cube_cap: int = DEFAULT_CUBE_CAP,
) -> CompositeDyadicSet:
    """Compact dyadic set whose empirical branching tracks ``grid``.

    For each integer offset b < depth the one-variable profile u -> value(u, b)
    (zero below b) is step-quantized and materialized as an anchored
    subdivision tree; parts are translated by 4 * 2^-b along coordinate 0 and
    the origin is adjoined.  Requires the grid's slope bound to stay within
    ``dimension`` and depth <= min(u_max, MAX_DEPTH).

    One pass quantizes all offsets: one ``grid.evaluate`` over the (b, level)
    table, then, on all rows at once, the float operations of the one-offset
    ``subdivision_tree(PiecewiseLinear.from_samples(levels, running maximum))``,
    whose trees it gives bit for bit.  A grid is zero on its
    diagonal and finite and nonnegative below it, so every profile starts at
    0, increases and vanishes through its offset.  The first offset b that
    leaves the quantizer bracket, or whose cubes 2^eta(n), summed over its
    levels and the offsets before it, pass ``cube_cap``, raises, the bracket
    first.
    """
    if not isinstance(grid, TwoScaleGrid):
        raise TypeError(f"the target must be a TwoScaleGrid, not {type(grid).__name__}")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if depth < 1 or depth > grid.spec.u_max + EXACT_TOL:
        raise ValueError("depth must lie within the grid's scale range")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be at most {MAX_DEPTH}, got {depth}: "
                         f"the set's level-depth cells reach 5 * 2^depth, beyond 64-bit integers")
    slope = grid.lipschitz_bound()
    if slope > dimension + 1e-6:
        raise ValueError(f"grid slope bound {slope:.4g} exceeds the ambient dimension {dimension}")
    ns = np.arange(depth + 1, dtype=float)
    bs = ns[:-1, None]
    samples = np.where(ns >= bs, grid.evaluate(np.maximum(ns, bs), bs), 0.0)
    ys = np.maximum.accumulate(np.maximum(samples, 0.0), axis=1)
    g = np.hstack([np.zeros((depth, 1)), np.cumsum(np.diff(ys, axis=1), axis=1)])
    eta, outside = _quantize_rows(g, float(dimension))
    cubes = np.exp2(eta).sum(axis=1)
    splits = np.diff(eta, axis=1) > EXACT_TOL
    parts, total = [], 0
    for b in range(depth):
        if outside[b]:
            raise ValueError("quantizer bracket failed: profile moves faster than step_size")
        total += int(cubes[b])
        if total > cube_cap:
            raise CapExceeded(f"the set needs more than {cube_cap} cubes, the synthesis cube cap: reduce the depth")
        parts.append((b, DyadicTree(dimension, splits[b])))
    return CompositeDyadicSet(dimension, depth, parts)


# ---------------------------------------------------------------------------
# Point export
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExportedPoints:
    """Exact dyadic points: numerators (m, d), one exponent per point."""

    numerators: np.ndarray
    exponents: np.ndarray
    rescale_exponent: int = 0


def export_points(composite: CompositeDyadicSet, level: int) -> ExportedPoints:
    """The level-``level`` cells of a composite set, as exact dyadic rationals in lexicographic order.

    The set is divided by 8 into the unit cube (recorded in
    ``rescale_exponent``) and gives the distinct level-``level`` cells it
    meets there: its own level-``level - 3`` cells, each numerator over
    2^level.  Every row has the exponent ``level``.
    """
    if not isinstance(composite, CompositeDyadicSet):
        raise TypeError(f"cannot export points from {type(composite).__name__}")
    if not 0 <= level <= composite.depth:
        raise ValueError(f"level {level} exceeds materialized depth {composite.depth}")
    if level >= EXPORT_RESCALE_EXP:
        nums = composite.cells_at_level(level - EXPORT_RESCALE_EXP)
    else:
        nums = unique_rows(composite.cells_at_level(0) >> EXPORT_RESCALE_EXP - level)
    return ExportedPoints(nums, np.full(nums.shape[0], level, dtype=np.int64), EXPORT_RESCALE_EXP)
