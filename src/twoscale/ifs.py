"""Similarity iterated function systems and inhomogeneous attractor machinery.

Maps act as x -> r * x + t on [0, 1]^d.  The word weight is the negated log
contraction, which is exactly additive for similarities, so resolution
families, critical exponents, and cylinder geometry are all exact when the
ratios are dyadic.  Attractors with a condensation set are sampled by
breadth-first word expansion down to a scale cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .covering import CoverageGrid, PointSet, empirical_branching
from .grids import CapExceeded, EXACT_TOL, GridSpec, PiecewiseLinear, TwoScaleGrid, unique_rows
from .operators import monotone_envelope
from .synthesis import DyadicTree

DEFAULT_WORD_CAP = 2_000_000
MORAN_TOL = 1e-9

Word = tuple  # sequence of map indices; () is the identity


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
            if F.shape[1] != self.dimension or np.any(F < -EXACT_TOL) or np.any(F > 1 + EXACT_TOL):
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

    def base_points(self) -> np.ndarray:
        F = self.fixed_points if self.condensation is None else self.condensation
        return unique_rows(np.vstack([F, self.fixed_points]))

    def apply_word(self, word: Iterable[int]) -> tuple[float, np.ndarray]:
        """Composite similarity (ratio, translation) of a word, leftmost outermost."""
        r, t = 1.0, np.zeros(self.dimension)
        for i in word:
            if not 0 <= i < self.n_maps:
                raise ValueError(f"map index {i} out of range")
            # f_i after the accumulated prefix: prefix o f_i
            t = t + r * self.translations[i]
            r = r * self.ratios[i]
        return r, t


def log_contraction(ifs: SimilarityIFS, word: Iterable[int]) -> float:
    """Word weight: -log2 of the contraction along the word; exactly additive."""
    w = ifs.weights
    total = 0.0
    for i in word:
        if not 0 <= i < ifs.n_maps:
            raise ValueError(f"map index {i} out of range")
        total += w[i]
    return total


# ---------------------------------------------------------------------------
# Resolution families
# ---------------------------------------------------------------------------

def words_at_resolution(
    ifs: SimilarityIFS, u: float, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """All words whose weight first reaches ``u``.

    A word qualifies when its own weight is >= u while its parent's stays
    below; every sufficiently long word has exactly one such prefix.
    """
    if u <= 0:
        raise ValueError("resolution must be positive")
    w = ifs.weights
    out: list[Word] = []
    frontier: list[tuple[Word, float]] = [((), 0.0)]
    while frontier:
        nxt: list[tuple[Word, float]] = []
        for word, rho in frontier:
            for i in range(ifs.n_maps):
                child = word + (i,)
                crho = rho + w[i]
                if crho >= u - EXACT_TOL:
                    out.append(child)
                else:
                    nxt.append((child, crho))
                if len(out) + len(nxt) > cap:
                    raise CapExceeded(f"resolution family exceeds {cap} words")
        frontier = nxt
    return out


def _integer_weights(ifs: SimilarityIFS) -> np.ndarray | None:
    w = ifs.weights
    k = np.rint(w)
    return k.astype(np.int64) if np.all(np.abs(w - k) < 1e-9) and np.all(k >= 1) else None


def count_words_at_resolution(ifs: SimilarityIFS, u: float, cap: int = DEFAULT_WORD_CAP) -> int:
    """Size of the resolution family, counted without listing its words.

    For dyadic ratios the weights are integers and word counts by weight obey
    c[j] = sum_i c[j - k_i], an exact integer recursion.  Otherwise the words
    are expanded level by level as an array of weights only: each level adds
    every map's weight to every frontier weight, counts the children that
    reach ``u`` and keeps the rest as the next frontier.  The sums are the
    ones ``words_at_resolution`` forms, so the count is the same, and
    ``CapExceeded`` is raised at the same peak of counted plus frontier words.
    """
    if u <= 0:
        raise ValueError("resolution must be positive")
    ks = _integer_weights(ifs)
    if ks is None:
        w = ifs.weights
        total = 0
        rho = np.zeros(1)
        while rho.size:
            crho = (rho[:, None] + w[None, :]).ravel()
            done = crho >= u - EXACT_TOL
            total += int(np.count_nonzero(done))
            rho = crho[~done]
            if total + rho.size > cap:
                raise CapExceeded(f"resolution family exceeds {cap} words")
        return total
    top = int(np.ceil(u - 1e-9))
    counts = [0] * top
    if top > 0:
        counts[0] = 1  # empty word
    total = 0
    for j in range(top):
        if j > 0:
            counts[j] = sum(counts[j - k] for k in ks if k <= j)
        c = counts[j]
        if c:
            total += c * int(np.sum(j + ks >= u - 1e-9))
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
        n = count_words_at_resolution(ifs, resolution, cap)
        return float(np.log2(n) / resolution)
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

    Tree sets are decoded once per requested level; a word of weight rho only
    needs resolution depth - rho before its image drops below the target
    scale.
    """

    def __init__(self, F, ifs: SimilarityIFS):
        self.tree = F if isinstance(F, DyadicTree) else None
        self.ifs = ifs
        self._cache: dict[int, np.ndarray] = {}
        if self.tree is None:
            pts = ifs.base_points() if F is None else np.atleast_2d(np.asarray(F, dtype=float))
            self.flat = unique_rows(np.vstack([pts, ifs.fixed_points]))
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
            pts = self.tree.corner_ints(level) / np.exp2(level)
            self._cache[level] = np.vstack([pts, self.ifs.fixed_points])
        return self._cache[level]


def generate_attractor(
    ifs: SimilarityIFS,
    condensation=None,
    depth: float = 20.0,
    cap: int = DEFAULT_WORD_CAP,
) -> PointSet:
    """Union of word images of the condensation set down to weight ``depth``.

    Words are expanded level by level: a level holds the weights, ratios and
    translations of all its words as arrays, its images are one broadcast
    F * r + t per condensation batch, and its children are every word-map
    pair whose weight stays within ``depth``.  Fixed points are adjoined to
    the condensation set.  Tree condensation sets are sampled adaptively: a
    word of weight rho only needs the tree resolved to depth - rho before its
    image drops below the target scale, so a level is grouped by that tree
    level.  The cap on words (and on 4 * cap raw points) is checked before a
    level's images are built.  The result is within 2^-depth Hausdorff
    distance of the attractor, so its covering statistics are valid one level
    short of the depth, where the neighbourhood slack stays below a cell.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    w = ifs.weights
    sampler = _CondensationSampler(condensation, ifs)
    batches: list[np.ndarray] = []
    n_words = 0
    n_points = 0
    rho, r, t = np.zeros(1), np.ones(1), np.zeros((1, ifs.dimension))
    while rho.size:
        groups = sampler.groups(depth - rho)
        n_words += rho.size
        n_points += sum(F.shape[0] * r[sel].size for F, sel in groups)
        if n_words > cap or n_points > 4 * cap:
            raise CapExceeded(f"attractor sample exceeds the cap ({cap} words)")
        for F, sel in groups:
            batches.append((F[None] * r[sel, None, None] + t[sel, None, :]).reshape(-1, ifs.dimension))
        crho = rho[:, None] + w[None, :]
        idx, i = np.nonzero(crho <= depth + EXACT_TOL)
        rho, r, t = crho[idx, i], r[idx] * ifs.ratios[i], t[idx] + r[idx, None] * ifs.translations[i]
    points = unique_rows(np.concatenate(batches))
    return PointSet(
        points,
        int(np.floor(depth + 1e-9)) - 1,
        {"word_count": n_words, "raw_points": n_points, "fixed_points_adjoined": True},
    )


# ---------------------------------------------------------------------------
# Cylinder geometry
# ---------------------------------------------------------------------------

def _word_boxes(ifs: SimilarityIFS, words: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
    """Bounding boxes (lo, hi) of the word images of the condensation set."""
    F = ifs.base_points()
    fmin, fmax = F.min(axis=0), F.max(axis=0)
    lo = np.empty((len(words), ifs.dimension))
    hi = np.empty_like(lo)
    for k, word in enumerate(words):
        r, t = ifs.apply_word(word)
        lo[k] = r * fmin + t
        hi[k] = r * fmax + t
    return lo, hi


def cylinder_hits(
    ifs: SimilarityIFS,
    v: float,
    z: float,
    x,
    cap: int = DEFAULT_WORD_CAP,
) -> int:
    """Number of resolution-z cylinders whose condensation image meets B(x, 2^-v).

    Exact enumeration against bounding boxes of the word images; grows like
    the critical exponent times (z - v) once z exceeds v.
    """
    if v < 0 or z < 0:
        raise ValueError("scales must be nonnegative")
    x = np.asarray(x, dtype=float).reshape(ifs.dimension)
    words = words_at_resolution(ifs, z, cap) if z > 0 else [()]
    lo, hi = _word_boxes(ifs, words)
    gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    dist2 = np.sum(gap * gap, axis=1)
    return int(np.count_nonzero(dist2 <= (2.0 ** (-v)) ** 2 + EXACT_TOL))


@dataclass(frozen=True)
class SelectionResult:
    selected: list
    log2_ratio: float


def separated_subfamily(
    ifs: SimilarityIFS, words: Sequence[Word], u: float
) -> SelectionResult:
    """Greedy large subfamily whose images no single 2^-u ball can pair up.

    Walks the words in order, keeping one and deleting every word whose image
    box comes within (2 + diam F) * 2^-u of the kept word's marker point; the
    margin makes the pairwise ball-disjointness exact at finite scale.  The
    log2 size ratio against the input is reported.
    """
    words = list(words)
    if not words:
        return SelectionResult([], 0.0)
    F = ifs.base_points()
    diam = float(np.sqrt(np.sum((F.max(axis=0) - F.min(axis=0)) ** 2)))
    radius = (2.0 + diam) * 2.0 ** (-u)
    lo, hi = _word_boxes(ifs, words)
    first = np.array([ifs.apply_word(wd)[1] + ifs.apply_word(wd)[0] * F[0] for wd in words])
    alive = np.ones(len(words), dtype=bool)
    selected = []
    for k in range(len(words)):
        if not alive[k]:
            continue
        selected.append(words[k])
        gap = np.maximum(np.maximum(lo - first[k], first[k] - hi), 0.0)
        near = np.sum(gap * gap, axis=1) <= radius * radius + EXACT_TOL
        alive &= ~near
    return SelectionResult(selected, float(np.log2(len(selected) / len(words))))


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
    u_min: float | None = None,
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
    lo = (depth - 4.0) if u_min is None else u_min
    rows = coords >= lo - EXACT_TOL
    norm_win = np.where(rows[:, None], norm, 0.0)
    i, j = np.unravel_index(int(np.argmax(norm_win)), norm.shape)
    return FormulaReport(
        normalized_deviation=float(norm_win[i, j]),
        raw_deviation=float(dev[rows].max()),
        witness=(float(coords[i]), float(coords[j])),
        window=(float(lo), float(spec.u_max)),
        growth=growth,
        coverage=coverage,
        prediction=prediction,
    )


def lower_box_profile(profile: PiecewiseLinear, growth: float, u_max: float, step: float = 0.25) -> PiecewiseLinear:
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


@dataclass(frozen=True)
class DimensionRange:
    lo: float
    hi: float

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def dimension_range(growth: float, lower: float, upper: float, lipschitz: float) -> DimensionRange:
    """Attainable lower box dimensions of attractors with the given profile data.

    Degenerate at ``growth`` when the condensation's upper dimension does not
    exceed it; otherwise a closed interval from max(growth, lower) to an
    explicit rational-in-parameters endpoint.
    """
    if not 0 <= lower <= upper <= lipschitz:
        raise ValueError("need 0 <= lower <= upper <= lipschitz")
    if not 0 <= growth <= lipschitz:
        raise ValueError("need 0 <= growth <= lipschitz")
    if upper <= growth:
        return DimensionRange(growth, growth)
    hi = growth + (upper - growth) * (lipschitz - growth) * lower / (
        lipschitz * upper - growth * lower
    )
    return DimensionRange(max(growth, lower), hi)
