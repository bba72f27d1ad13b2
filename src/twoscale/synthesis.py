"""Dyadic subdivision sets realizing a prescribed branching grid.

Sets are unions of grid-aligned dyadic cubes in [0, 1]^d, built level by
level: a level either subdivides every cube fully or keeps only the child at
the bottom-left corner, following an integer step quantization of a target
branching profile.  A composite set strings one such tree per anchor offset
along the first coordinate, with geometrically decaying translates, and adds
the origin.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .grids import CapExceeded, EXACT_TOL, PiecewiseLinear, TwoScaleGrid, unique_rows

DEFAULT_CUBE_CAP = 2_500_000

# Composite parts sit at 4 * 2^-b along coordinate 0, so the ambient box is
# [0, 5]^d; exports divide by 8 to land in the unit cube.
PART_OFFSET_NUM = 4
EXPORT_RESCALE_EXP = 3
# A composite's own level-depth cells reach 5 * 2^depth, which int64 holds up to depth 60.
MAX_DEPTH = 60


# ---------------------------------------------------------------------------
# Step quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepFunction:
    """Integer-lattice step function with increments in {0, step_size}."""

    step_size: float
    cumulative: np.ndarray

    def __post_init__(self):
        cum = np.asarray(self.cumulative, dtype=float)
        if cum.ndim != 1 or cum.size == 0 or cum[0] != 0.0:
            raise ValueError("cumulative values must start at 0")
        inc = np.diff(cum)
        ok = (np.abs(inc) < EXACT_TOL) | (np.abs(inc - self.step_size) < EXACT_TOL)
        if not np.all(ok):
            raise ValueError("increments must be 0 or step_size")
        cum.flags.writeable = False
        object.__setattr__(self, "cumulative", cum)

    @property
    def increments(self) -> np.ndarray:
        return np.abs(np.diff(self.cumulative)) > EXACT_TOL

    def __len__(self) -> int:
        return self.cumulative.size - 1


def step_quantize(profile: PiecewiseLinear, step_size: float, depth: int) -> StepFunction:
    """Quantize an increasing profile into steps of a fixed size.

    eta(n+1) = eta(n) + step_size exactly when g(n+1) - eta(n) >= step_size.
    Guarantees g(n) - step_size < eta(n) <= g(n) at every integer n <= depth,
    which requires g to move by at most step_size per unit step.  This is the
    one-row case of the quantizer that ``synthesize_set`` runs on all offsets.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if not profile.is_increasing():
        raise ValueError("profile must be increasing")
    eta, outside = _quantize_rows(profile.evaluate(np.arange(depth + 1, dtype=float))[None], step_size)
    if outside[0]:
        raise ValueError("quantizer bracket failed: profile moves faster than step_size")
    return StepFunction(step_size, eta[0])


def _quantize_rows(g: np.ndarray, step_size: float) -> tuple[np.ndarray, np.ndarray]:
    """The quantization eta of each row of ``g`` (rows, levels), one level at a time for all
    rows, and which rows leave the bracket g - step_size < eta <= g, each side to EXACT_TOL."""
    eta = np.zeros(g.shape)
    for n in range(1, g.shape[1]):
        prev = eta[:, n - 1]
        eta[:, n] = np.where(g[:, n] - prev >= step_size - EXACT_TOL, prev + step_size, prev)
    return eta, ((eta <= g - step_size - EXACT_TOL) | (eta > g + EXACT_TOL)).any(axis=1)


# ---------------------------------------------------------------------------
# Dyadic trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DyadicTree:
    """Level-indexed dyadic cube addresses in [0, 1]^d.

    levels[n] holds sorted distinct integer codes; a code packs n child
    indices (d bits each), root-first.  Every level-(n+1) code extends a
    level-n code by construction.  The constructor checks the root, then all
    levels' order in one pass over their codes, and names the first bad level.
    """

    dimension: int
    depth: int
    levels: list = field(default_factory=list)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        _check_code_bits(self.dimension, self.depth)
        if len(self.levels) != self.depth + 1:
            raise ValueError("need one code array per level 0..depth")
        self.levels[:] = [np.asarray(codes, dtype=np.int64) for codes in self.levels]
        if self.levels[0].size != 1 or self.levels[0][0] != 0:
            raise ValueError("level 0 must be the single root cube")
        codes = np.concatenate(self.levels)
        ends = list(itertools.accumulate(level.size for level in self.levels))
        down = codes[1:] <= codes[:-1]
        down[[end - 1 for end in ends[:-1] if end < codes.size]] = False  # steps into the next level
        if down.any():  # named by the level of the second code of the first pair out of order
            raise ValueError(f"level {bisect.bisect_right(ends, int(down.argmax()) + 1)} "
                             f"addresses must be sorted and distinct")

    def corner_ints(self, level: int) -> np.ndarray:
        """Integer corner coordinates (count, d) at resolution 2^-level.

        Bit d i + q of a code is bit i of coordinate q.  Each gather from
        ``_digit_table`` decodes 12 // d digits, or, when d > 12, 12 axes of
        one digit; the columns it decodes past the last axis are dropped.
        """
        codes, d = self.levels[level], self.dimension
        digits, axes = max(1, 12 // d), min(d, 12)
        out = np.zeros((codes.size, d), dtype=np.int64)
        for i, q in itertools.product(range(0, level, digits), range(0, d, axes)):
            run = (codes >> d * i + q) & ((1 << digits * axes) - 1)
            out[:, q:q + axes] |= _digit_table(digits, axes).take(run, axis=0)[:, :d - q] << i
        return out

    def cells_at_level(self, level: int) -> np.ndarray:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        return self.corner_ints(level)


def _check_code_bits(dimension: int, depth: int) -> None:
    """Refuse a tree whose packed codes, ``dimension`` bits per level, would pass 62 bits."""
    if dimension * depth > 62:
        raise ValueError(f"depth {depth} in d = {dimension} needs {dimension * depth}-bit cube codes, "
                         f"more than 62: the depth may be at most {62 // dimension}")


@functools.cache
def _digit_table(digits: int, axes: int) -> np.ndarray:
    """Coordinates (2^(digits axes), axes) of every run of ``digits`` digits of
    ``axes`` bits, whose bit r axes + q is bit r of coordinate q."""
    bits = (np.arange(1 << digits * axes)[:, None] >> np.arange(digits * axes)) & 1
    table = (bits.reshape(-1, digits, axes) << np.arange(digits)[:, None]).sum(axis=1)
    # cached and shared by every call, so none may write to it
    table.flags.writeable = False
    return table


def subdivision_tree(eta: StepFunction, dimension: int, offset: int = 0) -> DyadicTree:
    """Materialize the subdivision set driven by a step function.

    A zero increment keeps only the child sharing the bottom-left corner; a
    full increment (of size ``dimension``) keeps all 2^d children.  The
    level-n cube count is exactly 2^eta(n), and when eta vanishes through
    level ``offset`` the set lies in [0, 2^-offset]^d.
    """
    d = dimension
    if abs(eta.step_size - d) > EXACT_TOL:
        raise ValueError("step function increments must equal the dimension")
    _check_code_bits(d, len(eta))
    if offset < 0 or offset > len(eta):
        raise ValueError("offset out of range")
    if np.any(np.abs(eta.cumulative[: offset + 1]) > EXACT_TOL):
        raise ValueError("step function must vanish through the offset level")
    return DyadicTree(d, len(eta), _grown_levels(eta.increments, d))


def _grown_levels(splits: np.ndarray, d: int) -> list:
    """Every level's codes of the tree that splits each cube into its 2^d children where ``splits`` holds."""
    levels = [np.zeros(1, dtype=np.int64)]
    children = np.arange(1 << d, dtype=np.int64)
    for split in splits:
        prev = levels[-1] << d
        levels.append((prev[:, None] | children).ravel() if split else prev)
    return levels


# ---------------------------------------------------------------------------
# Composite sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeDyadicSet:
    """Origin point plus one anchored tree per offset b, translated along axis 0.

    Part b is built inside [0, 2^-b]^d and shifted by 4 * 2^-b, so distinct
    parts are more than 2^-b apart (b the smaller offset) and the whole set
    lies in [0, 5] x [0, 1]^(d-1).
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
            # inside [0, 2^-b]^d, the one level-b cube is the corner cube, code 0
            if tree.levels[min(b, self.depth)].tolist() != [0]:
                raise ValueError(f"part {b} must lie in [0, 2^-{b}]^d")
        if len({b for b, _ in self.parts}) < len(self.parts):
            raise ValueError("offsets must be distinct")

    def cells_at_level(self, level: int) -> np.ndarray:
        """Distinct ambient level-``level`` cell coordinates hit by the set."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        # one table filled part by part, so the sort in unique_rows sees the only
        # full-size copy; row 0 is the origin cell, which holds every part with b - 2 > level
        placed = [(b, tree) for b, tree in self.parts if level >= b - 2]
        cells = np.zeros((1 + sum(tree.levels[level].size for _, tree in placed), self.dimension), dtype=np.int64)
        start = 1
        for b, tree in placed:
            rows = cells[start:start + tree.levels[level].size]
            rows[...] = tree.cells_at_level(level)
            rows[:, 0] += PART_OFFSET_NUM << (level - b) if level >= b else PART_OFFSET_NUM >> (b - level)
            start += len(rows)
        return unique_rows(cells)


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
    ``dimension``, depth <= min(u_max, MAX_DEPTH) and dimension * depth <= 62.

    One pass quantizes all offsets: one ``grid.evaluate`` over the (b, level)
    table, then, on all rows at once, the float operations of the one-offset
    ``step_quantize(PiecewiseLinear.from_samples(levels, running maximum))``,
    whose step functions it gives bit for bit.  The first offset b failing a
    check raises the first it fails, in this order: samples start at (0, 0),
    profile increasing, quantizer bracket, increments 0 or d (true by
    construction), running cube total within ``cube_cap``, eta vanishing
    through level b; an offset failing a one-offset check is re-run to raise it.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if depth < 1 or depth > grid.spec.u_max + EXACT_TOL:
        raise ValueError("depth must lie within the grid's scale range")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be at most {MAX_DEPTH}, got {depth}: "
                         f"the set's level-depth cells reach 5 * 2^depth, beyond 64-bit integers")
    _check_code_bits(dimension, depth)
    slope = grid.lipschitz_bound()
    if slope > dimension + 1e-6:
        raise ValueError(f"grid slope bound {slope:.4g} exceeds the ambient dimension {dimension}")
    step = float(dimension)
    ns = np.arange(depth + 1, dtype=float)
    bs = ns[:-1, None]
    samples = np.where(ns >= bs, grid.evaluate(np.maximum(ns, bs), bs), 0.0)
    ys = np.maximum.accumulate(np.maximum(samples, 0.0), axis=1)
    slopes = np.diff(ys, axis=1) / np.diff(ns)
    g = np.hstack([np.zeros((depth, 1)), np.cumsum(slopes * np.diff(ns), axis=1)])
    eta, outside = _quantize_rows(g, step)
    unquantized = (np.abs(ys[:, 0]) > EXACT_TOL) | ~(slopes >= -EXACT_TOL).all(axis=1) | outside
    unanchored = np.tril(np.abs(eta) > EXACT_TOL).any(axis=1)
    cubes = np.exp2(eta).sum(axis=1)
    splits = np.abs(np.diff(eta, axis=1)) > EXACT_TOL
    parts, total = [], 0
    for b in range(depth):
        if unquantized[b]:  # the one-offset path raises the check that this offset fails
            step_quantize(PiecewiseLinear.from_samples(ns, ys[b]), step, depth)
        total += int(cubes[b])
        if total > cube_cap:
            raise CapExceeded(f"materialization needs more than {cube_cap} cubes; reduce depth or raise the cap")
        if unanchored[b]:  # as does the tree's vanishing check
            subdivision_tree(StepFunction(step, eta[b]), dimension, offset=b)
        parts.append((b, DyadicTree(dimension, depth, _grown_levels(splits[b], dimension))))
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


def export_points(obj, level: int) -> ExportedPoints:
    """The level-``level`` cells of a set, as exact dyadic rationals in lexicographic order.

    A tree gives the bottom-left corner of every level-``level`` cube.  A
    composite set is divided by 8 into the unit cube (recorded in
    ``rescale_exponent``) and gives the distinct level-``level`` cells it
    meets there: its own level-``level - 3`` cells, each numerator over
    2^level.  Every row has the exponent ``level``.
    """
    if isinstance(obj, DyadicTree):
        nums = obj.cells_at_level(level)
        nums = nums[np.lexsort(nums.T[::-1])]
        return ExportedPoints(nums, np.full(nums.shape[0], level, dtype=np.int64))
    if isinstance(obj, CompositeDyadicSet):
        if not 0 <= level <= obj.depth:
            raise ValueError(f"level {level} exceeds materialized depth {obj.depth}")
        if level >= EXPORT_RESCALE_EXP:
            nums = obj.cells_at_level(level - EXPORT_RESCALE_EXP)
        else:
            nums = unique_rows(obj.cells_at_level(0) >> EXPORT_RESCALE_EXP - level)
        return ExportedPoints(nums, np.full(nums.shape[0], level, dtype=np.int64), EXPORT_RESCALE_EXP)
    raise TypeError(f"cannot export points from {type(obj).__name__}")
