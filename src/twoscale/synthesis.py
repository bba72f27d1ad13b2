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

from .grids import CapExceeded, EXACT_TOL, PiecewiseLinear, TwoScaleGrid

DEFAULT_CUBE_CAP = 2_500_000

# Composite parts sit at 4 * 2^-b along coordinate 0, so the ambient box is
# [0, 5]^d; exports divide by 8 to land in the unit cube.
PART_OFFSET_NUM = 4
EXPORT_RESCALE_EXP = 3


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
    which requires g to move by at most step_size per unit step.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if not profile.is_increasing():
        raise ValueError("profile must be increasing")
    g = profile.evaluate(np.arange(depth + 1, dtype=float))
    eta = np.zeros(depth + 1)
    acc = 0.0
    for n in range(1, depth + 1):
        if g[n] - acc >= step_size - EXACT_TOL:
            acc += step_size
        eta[n] = acc
    low = g - step_size
    if np.any(eta <= low - EXACT_TOL) or np.any(eta > g + EXACT_TOL):
        raise ValueError("quantizer bracket failed: profile moves faster than step_size")
    return StepFunction(step_size, eta)


# ---------------------------------------------------------------------------
# Dyadic trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DyadicTree:
    """Level-indexed dyadic cube addresses in [0, 1]^d.

    levels[n] holds sorted distinct integer codes; a code packs n child
    indices (d bits each), root-first.  Every level-(n+1) code extends a
    level-n code by construction.
    """

    dimension: int
    depth: int
    levels: list = field(default_factory=list)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.dimension * self.depth > 62:
            raise ValueError("depth * dimension must stay below 63 bits")
        if len(self.levels) != self.depth + 1:
            raise ValueError("need one code array per level 0..depth")
        for n, codes in enumerate(self.levels):
            codes = np.asarray(codes, dtype=np.int64)
            if n == 0 and (codes.size != 1 or codes[0] != 0):
                raise ValueError("level 0 must be the single root cube")
            if np.any(np.diff(codes) <= 0):
                raise ValueError(f"level {n} addresses must be sorted and distinct")
            self.levels[n] = codes

    @property
    def max_covering_level(self) -> int:
        return self.depth

    def corner_ints(self, level: int) -> np.ndarray:
        """Integer corner coordinates (count, d) at resolution 2^-level."""
        codes = self.levels[level]
        d = self.dimension
        out = np.zeros((codes.size, d), dtype=np.int64)
        for depth_pos in range(1, level + 1):
            digit = (codes >> (d * (level - depth_pos))) & ((1 << d) - 1)
            for q in range(d):
                out[:, q] |= ((digit >> q) & 1) << (level - depth_pos)
        return out

    def cells_at_level(self, level: int) -> np.ndarray:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        return self.corner_ints(level)


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
    if d * len(eta) > 62:
        raise ValueError("depth * dimension must stay below 63 bits")
    if offset < 0 or offset > len(eta):
        raise ValueError("offset out of range")
    if np.any(np.abs(eta.cumulative[: offset + 1]) > EXACT_TOL):
        raise ValueError("step function must vanish through the offset level")
    depth = len(eta)
    levels = [np.zeros(1, dtype=np.int64)]
    children = np.arange(1 << d, dtype=np.int64)
    for n, split in enumerate(eta.increments):
        prev = levels[n]
        if split:
            nxt = ((prev << d)[:, None] | children[None, :]).ravel()
        else:
            nxt = prev << d
        levels.append(nxt)
    return DyadicTree(d, depth, levels)


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

    @property
    def max_covering_level(self) -> int:
        return self.depth

    def cells_at_level(self, level: int) -> np.ndarray:
        """Distinct ambient level-``level`` cell coordinates hit by the set."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} exceeds materialized depth {self.depth}")
        d = self.dimension
        chunks = [np.zeros((1, d), dtype=np.int64)]  # origin cell
        for b, tree in self.parts:
            if level >= b - 2:
                cells = tree.cells_at_level(level).copy()
                cells[:, 0] += PART_OFFSET_NUM << (level - b) if level >= b else PART_OFFSET_NUM >> (b - level)
                chunks.append(cells)
            # else: the whole part sits in the origin cell already counted
        return np.unique(np.concatenate(chunks, axis=0), axis=0)


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
    ``dimension`` and depth <= u_max.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if depth < 1 or depth > grid.spec.u_max + EXACT_TOL:
        raise ValueError("depth must lie within the grid's scale range")
    slope = grid.lipschitz_bound()
    if slope > dimension + 1e-6:
        raise ValueError(
            f"grid slope bound {slope:.4g} exceeds the ambient dimension {dimension}"
        )
    ns = np.arange(depth + 1, dtype=float)
    parts = []
    total = 0
    for b in range(depth):
        samples = np.where(ns >= b, grid.evaluate(np.maximum(ns, b), float(b)), 0.0)
        samples = np.maximum(samples, 0.0)
        profile = PiecewiseLinear.from_samples(ns, np.maximum.accumulate(samples))
        eta = step_quantize(profile, float(dimension), depth)
        total += int(np.sum(np.exp2(eta.cumulative)))
        if total > cube_cap:
            raise CapExceeded(
                f"materialization needs more than {cube_cap} cubes; "
                f"reduce depth or raise the cap"
            )
        parts.append((b, subdivision_tree(eta, dimension, offset=b)))
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

    def as_floats(self) -> np.ndarray:
        return self.numerators / np.exp2(self.exponents)[:, None]


def export_points(obj, level: int) -> ExportedPoints:
    """Bottom-left corner of every level-``level`` cube, as exact dyadic rationals.

    Composite sets are rescaled into the unit cube by dividing by 8 (recorded
    in ``rescale_exponent``); trees are already inside [0, 1]^d.  Points come
    out in lexicographic coordinate order.
    """
    if isinstance(obj, DyadicTree):
        nums = obj.corner_ints(level)
        exps = np.full(nums.shape[0], level, dtype=np.int64)
        return _sorted_points(nums, exps, 0)
    if isinstance(obj, CompositeDyadicSet):
        if not 0 <= level <= obj.depth:
            raise ValueError(f"level {level} exceeds materialized depth {obj.depth}")
        d = obj.dimension
        nums_list = [np.zeros((1, d), dtype=np.int64)]
        exps_list = [np.zeros(1, dtype=np.int64)]
        for b, tree in obj.parts:
            corners = tree.corner_ints(level)
            e = max(level, b - 2)  # keeps the 2^-(b-2) translate integral
            corners = corners << (e - level)
            corners[:, 0] += (PART_OFFSET_NUM << e) >> b
            nums_list.append(corners)
            exps_list.append(np.full(corners.shape[0], e, dtype=np.int64))
        nums = np.concatenate(nums_list, axis=0)
        exps = np.concatenate(exps_list)
        return _sorted_points(nums, exps + EXPORT_RESCALE_EXP, EXPORT_RESCALE_EXP)
    raise TypeError(f"cannot export points from {type(obj).__name__}")


def _sorted_points(nums: np.ndarray, exps: np.ndarray, rescale: int) -> ExportedPoints:
    floats = nums / np.exp2(exps)[:, None]
    order = np.lexsort(tuple(floats[:, q] for q in range(floats.shape[1] - 1, -1, -1)))
    return ExportedPoints(nums[order], exps[order], rescale)
