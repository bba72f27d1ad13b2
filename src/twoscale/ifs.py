"""Similarity iterated function systems and inhomogeneous attractor machinery.

Maps act as x -> r * x + t on [0, 1]^d.  The word weight is the negated log
contraction, which is exactly additive for similarities, so resolution
families and critical exponents are exact when the ratios are dyadic.
Attractors with a condensation set are sampled by breadth-first word
expansion down to a scale cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numpy as np

from .covering import CoverageGrid, PointSet, empirical_branching
from .grids import CapExceeded, DEFAULT_GRID_STEP, EXACT_TOL, GridSpec, PiecewiseLinear, TwoScaleGrid, unique_rows
from .operators import monotone_envelope
from .synthesis import DyadicTree

DEFAULT_WORD_CAP = 2_000_000
MORAN_TOL = 1e-9

# ---------------------------------------------------------------------------
# System definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimilarityIFS:
    """Finite family of contracting similarities plus a condensation point set.

    ``condensation`` defaults to the maps' fixed points; fixed points are in
    any case adjoined wherever the attractor is sampled, which changes nothing
    geometrically since they already lie in the homogeneous attractor.
    """

    dimension: int
    ratios: np.ndarray
    translations: np.ndarray
    condensation: np.ndarray | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        r = np.asarray(self.ratios, dtype=float)
        t = np.atleast_2d(np.asarray(self.translations, dtype=float))
        if r.ndim != 1 or r.size == 0:
            raise ValueError("need at least one map")
        # written so that NaN fails every bound
        if not np.all((r > 0) & (r < 1)):
            raise ValueError("ratios must lie in (0, 1)")
        if t.shape != (r.size, self.dimension):
            raise ValueError("translations must be (n_maps, dimension)")
        if not np.all((t >= -EXACT_TOL) & (t + r[:, None] <= 1 + EXACT_TOL)):
            raise ValueError("map images must stay inside the unit cube")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "translations", t)
        if self.condensation is not None:
            F = np.atleast_2d(np.asarray(self.condensation, dtype=float))
            if F.shape[1] != self.dimension:
                raise ValueError(f"condensation points have dimension {F.shape[1]}, the maps {self.dimension}")
            if not np.all((F >= -EXACT_TOL) & (F <= 1 + EXACT_TOL)):
                raise ValueError("condensation points must lie in the unit cube")
            F.flags.writeable = False
            object.__setattr__(self, "condensation", F)

    @property
    def n_maps(self) -> int:
        return int(self.ratios.size)

    @property
    def weights(self) -> np.ndarray:
        """Per-map word weight -log2(ratio)."""
        return -np.log2(self.ratios)

    @property
    def fixed_points(self) -> np.ndarray:
        return self.translations / (1.0 - self.ratios[:, None])

    @property
    def strongly_separated(self) -> bool:
        """Pairwise positive distance between map images of the unit cube."""
        lo = self.translations
        hi = self.translations + self.ratios[:, None]
        for a in range(self.n_maps):
            for b in range(a + 1, self.n_maps):
                gap = np.maximum(np.maximum(lo[a] - hi[b], lo[b] - hi[a]), 0.0)
                if float(np.sqrt(np.sum(gap * gap))) <= 0.0:
                    return False
        return True


# ---------------------------------------------------------------------------
# Resolution families
# ---------------------------------------------------------------------------

def count_words_at_resolution(ifs: SimilarityIFS, u: float, cap: int = DEFAULT_WORD_CAP) -> int:
    """Size of the resolution family, counted by weight without listing its words.

    The family holds every word whose weight reaches ``u`` while its parent's
    stays below; every sufficiently long word has exactly one such prefix.
    Words are expanded level by level as a frontier {weight: number of words}:
    each level adds every map's weight to every frontier weight, counts the
    children that reach ``u`` and groups the rest by weight.  Weights are
    summed map by map from the empty word outward, so words of bitwise-equal
    weight have bitwise-equal children and grouping them changes no count.
    Weights within 1e-9 of integers >= 1 (dyadic ratios) are snapped to them;
    such families are exact at any size and ``cap`` does not bound them (a
    full binary system has 4,194,304 words at u = 22).  Otherwise the
    expansion raises ``CapExceeded`` once the counted plus frontier words
    exceed ``cap``, which also ends it if a map weight is below float
    resolution at ``u``.
    """
    if u <= EXACT_TOL:
        raise ValueError("resolution must be positive")
    w = ifs.weights
    k = np.rint(w)
    dyadic = bool(np.all(np.abs(w - k) < 1e-9) and np.all(k >= 1))
    steps = (k if dyadic else w).tolist()
    reach = u - EXACT_TOL
    total, frontier = 0, {0.0: 1}
    while frontier:
        children: dict[float, int] = {}
        for rho, n in frontier.items():
            for step in steps:
                child = rho + step
                if child >= reach:
                    total += n
                else:
                    children[child] = children.get(child, 0) + n
        frontier = children
        if not dyadic and total + sum(frontier.values()) > cap:
            raise CapExceeded(f"resolution family exceeds {cap} words")
    return total


def critical_exponent(
    ifs: SimilarityIFS,
    method: str = "moran",
    *,
    resolution: float = 24.0,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Growth exponent of the resolution families.

    method="moran" solves sum r_i^h = 1 by bisection to ``MORAN_TOL``;
    method="counting" returns log2(#family(resolution)) / resolution.  The two
    agree in the limit, with a gap shrinking in the resolution.
    """
    if method == "counting":
        return math.log2(count_words_at_resolution(ifs, resolution, cap)) / resolution
    if method != "moran":
        raise ValueError(f"unknown method {method!r}")
    r = ifs.ratios

    def deficit(h: float) -> float:
        return float(np.sum(r**h)) - 1.0

    lo, hi = 0.0, 1.0
    if deficit(lo) <= 0.0:
        return 0.0
    while deficit(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("moran bisection failed to bracket")
    while hi - lo > MORAN_TOL:
        mid = 0.5 * (lo + hi)
        if deficit(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Attractor sampling
# ---------------------------------------------------------------------------

class _CondensationSampler:
    """Point batches for a condensation set, resolved no finer than needed.

    Tree sets are resolved once per requested level; a word of weight rho only
    needs resolution depth - rho before its image drops below the target
    scale.
    """

    def __init__(self, F, ifs: SimilarityIFS):
        self.tree = F if isinstance(F, DyadicTree) else None
        self.ifs = ifs
        self._cache: dict[int, np.ndarray] = {}
        if self.tree is None:
            if F is None:
                F = ifs.fixed_points if ifs.condensation is None else ifs.condensation
            self.flat = unique_rows(np.vstack([np.atleast_2d(np.asarray(F, dtype=float)), ifs.fixed_points]))
        else:
            self.flat = None

    def groups(self, budgets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | slice]]:
        """(points, selector) pairs that give every word its batch for its budget."""
        if self.tree is None:
            return [(self.flat, slice(None))]
        levels = np.minimum(self.tree.depth, np.maximum(0, np.ceil(budgets - 1e-9))).astype(np.int64)
        return [(self._at_level(int(lv)), levels == lv) for lv in np.unique(levels)]

    def _at_level(self, level: int) -> np.ndarray:
        if level not in self._cache:
            pts = self.tree.cells_at_level(level) / np.exp2(level)
            self._cache[level] = np.vstack([pts, self.ifs.fixed_points])
        return self._cache[level]


def generate_attractor(
    ifs: SimilarityIFS,
    condensation=None,
    depth: float = 20.0,
    cap: int = DEFAULT_WORD_CAP,
) -> PointSet:
    """Union of word images of the condensation set down to weight ``depth``.

    Words are expanded level by level: a level holds the weights and ratios
    of its n words as arrays and their translations coordinate-major, as a
    (d, n) array, so every elementwise operation runs along the words.  Its
    images are F * r + t per condensation batch, written through a
    transposed view into an (n, |F|, d) array, so the raw points run word by
    word.  Its children are built for every map-word pair as (d, m, n)
    arrays and compressed by the one flattened mask of the pairs whose weight
    stays within ``depth``; the expansion stops at the first level whose mask
    is empty.  A level's words thus run map by map.  Their order changes no
    output: every translation is a sum onto the empty word's +0.0, so no
    image is -0.0 and the rows that ``unique_rows`` merges are bitwise equal.
    Fixed points are adjoined to the condensation set.  Tree condensation
    sets are sampled adaptively: a word of weight rho only needs the tree
    resolved to depth - rho before its image drops below the target scale,
    so a level is grouped by that tree level.  The cap on words (and on
    4 * cap raw points) is checked before a level's images are built, and
    the error names the bound exceeded.  The result is within 2^-depth
    Hausdorff distance of the attractor, so its covering statistics are valid
    one level short of the depth, where the neighbourhood slack stays below a
    cell.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    d = ifs.dimension
    # per-map columns, broadcast against a level's n words
    w, ratios, T = ifs.weights[:, None], ifs.ratios[:, None], ifs.translations.T[:, :, None]
    sampler = _CondensationSampler(condensation, ifs)
    batches: list[np.ndarray] = []
    n_words = 0
    n_points = 0
    rho, r, t = np.zeros(1), np.ones(1), np.zeros((d, 1))
    while True:
        groups = sampler.groups(depth - rho)
        n_words += rho.size
        n_points += sum(F.shape[0] * r[sel].size for F, sel in groups)
        if n_words > cap:
            raise CapExceeded(f"attractor sample exceeds the cap: {n_words} words, more than {cap}")
        if n_points > 4 * cap:
            raise CapExceeded(f"attractor sample exceeds the raw-point bound: "
                              f"{n_points} points, more than 4 * cap = {4 * cap}")
        for F, sel in groups:
            rs = r[sel]
            images = np.empty((rs.size, F.shape[0], d))
            view = images.transpose(2, 1, 0)
            np.multiply(F.T[:, :, None], rs, out=view)
            np.add(view, t[:, None, sel], out=view)
            batches.append(images.reshape(-1, d))
        crho = (rho + w).ravel()
        keep = crho <= depth + EXACT_TOL
        if not keep.any():
            break
        rho = crho[keep]
        t = np.compress(keep, (t[:, None, :] + r * T).reshape(d, -1), axis=1)
        r = (r * ratios).ravel()[keep]
    del rho, r, t, crho, keep  # the last level's words: free them before the dedup
    points = unique_rows(np.concatenate(batches))
    return PointSet(
        points,
        int(np.floor(depth + 1e-9)) - 1,
        {"word_count": n_words, "raw_points": n_points, "fixed_points_adjoined": True},
    )


# ---------------------------------------------------------------------------
# Dimension formula and box-dimension corollaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaReport:
    """Measured gap between an attractor's branching grid and its prediction."""

    normalized_deviation: float
    raw_deviation: float
    witness: tuple
    window: tuple
    growth: float
    coverage: CoverageGrid
    prediction: TwoScaleGrid


def verify_dimension_formula(
    ifs: SimilarityIFS,
    condensation,
    psi_condensation: TwoScaleGrid,
    depth: float,
    spec: GridSpec,
    u_min: float,
    cap: int = DEFAULT_WORD_CAP,
) -> FormulaReport:
    """Compare an attractor's empirical branching against its projection formula.

    The prediction is the monotone envelope of the condensation grid with
    growth equal to the Moran exponent.  Deviations are normalized by u and
    maximized over the window [u_min, u_max]; the window is part of the
    report since the formula's error term is asymptotic.
    """
    if not ifs.strongly_separated:
        raise ValueError("dimension formula verification requires strong separation")
    growth = critical_exponent(ifs, "moran")
    sample = generate_attractor(ifs, condensation, depth, cap)
    coverage = empirical_branching(sample, spec)
    prediction = monotone_envelope(psi_condensation, growth)
    coords = spec.coords
    dev = np.abs(coverage.grid.values - prediction.values)
    norm = dev / np.maximum(1.0, coords)[:, None]
    rows = coords >= u_min - EXACT_TOL
    norm_win = np.where(rows[:, None], norm, 0.0)
    i, j = np.unravel_index(int(np.argmax(norm_win)), norm.shape)
    return FormulaReport(
        normalized_deviation=float(norm_win[i, j]),
        raw_deviation=float(dev[rows].max()),
        witness=(float(coords[i]), float(coords[j])),
        window=(float(u_min), float(spec.u_max)),
        growth=growth,
        coverage=coverage,
        prediction=prediction,
    )


def lower_box_profile(
    profile: PiecewiseLinear, growth: float, u_max: float, step: float = DEFAULT_GRID_STEP
) -> PiecewiseLinear:
    """Whole-set profile of an attractor: sup over z of g(z) + growth * (u - z).

    The supremum over a piecewise-linear profile is attained at a breakpoint
    or at z = u, so sampling at the union of breakpoints and a uniform lattice
    is exact there.  growth = 0 returns the profile; a zero profile returns
    the ray growth * u.
    """
    if growth < 0:
        raise ValueError("growth must be nonnegative")
    if not profile.is_increasing():
        raise ValueError("profile must be increasing")
    knots = profile.breakpoints[profile.breakpoints <= u_max + EXACT_TOL]
    us = np.unique(np.concatenate([np.arange(0.0, u_max + step / 2, step), knots, [u_max]]))
    kv = profile.evaluate(knots)
    cand = kv[None, :] + growth * (us[:, None] - knots[None, :])
    cand = np.where(knots[None, :] <= us[:, None] + EXACT_TOL, cand, -np.inf)
    vals = np.maximum(cand.max(axis=1), profile.evaluate(us))
    return PiecewiseLinear.from_samples(us, vals)


def dimension_range(growth: float, lower: float, upper: float, lipschitz: float) -> tuple[float, float]:
    """Attainable lower box dimensions of attractors with the given profile data, as (lo, hi).

    Degenerate at ``growth`` when the condensation's upper dimension does not
    exceed it; otherwise a closed interval from max(growth, lower) to an
    explicit rational-in-parameters endpoint.
    """
    if not 0 <= lower <= upper <= lipschitz:
        raise ValueError("need 0 <= lower <= upper <= lipschitz")
    if not 0 <= growth <= lipschitz:
        raise ValueError("need 0 <= growth <= lipschitz")
    if upper <= growth:
        return growth, growth
    hi = growth + (upper - growth) * (lipschitz - growth) * lower / (
        lipschitz * upper - growth * lower
    )
    return max(growth, lower), hi
