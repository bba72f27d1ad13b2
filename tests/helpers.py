"""Test-side constructors and comparisons of grids and curves, a reader of the
profile CSV that the CLI writes but never reads back, a one-offset-at-a-time
reference of the synthesis's step quantization, a packed-code reference of
the cells of subdivision trees and composite sets, a word-major reference of
the attractor's word expansion, a strategy of random split masks, and
``outcome``, which compares a raised error
with a reference's by type and message."""

import numpy as np
from hypothesis import strategies as st

from twoscale import PiecewiseLinear, PointSet, TwoScaleGrid, synthesis
from twoscale import ifs as ifs_module
from twoscale.grids import CapExceeded, EXACT_TOL, unique_rows
from twoscale.ifs import _CondensationSampler
from twoscale.operators import _curve_weights


def grid_from_function(spec, fn) -> TwoScaleGrid:
    """The grid of fn(u, v) at every lattice point of ``spec``."""
    uu, vv = np.meshgrid(spec.coords, spec.coords, indexing="ij")
    return TwoScaleGrid(spec, np.asarray(fn(uu, vv), dtype=float))


def curve_evaluate(curve, theta):
    """A curve interpolated linearly at ``theta`` in [0, 1], with the package's kernels."""
    return curve._gather(_curve_weights(curve.m, theta))


def values_close(a, b, tol: float) -> bool:
    """Two grids on one lattice, or two curves of one theta step, whose values differ by at most ``tol``."""
    same = a.spec == b.spec if isinstance(a, TwoScaleGrid) else a.theta_step == b.theta_step
    return same and bool(np.max(np.abs(a.values - b.values)) <= tol)


def profile_from_csv(text: str) -> PiecewiseLinear:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "breakpoint,slope":
        raise ValueError("expected header breakpoint,slope")
    bps, slopes = [], []
    for ln in lines[1:]:
        if not ln:
            continue
        b, _, s = ln.partition(",")
        bps.append(float(b))
        if s.strip():
            slopes.append(float(s))
    return PiecewiseLinear(np.array(bps), np.array(slopes))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, CapExceeded) as exc:
        return type(exc), str(exc)


def reference_step_quantize(profile: PiecewiseLinear, step_size: float, depth: int) -> np.ndarray:
    """The quantizer as a loop over levels: eta(n+1) = eta(n) + step_size exactly
    when g(n+1) - eta(n) >= step_size - EXACT_TOL, then the bracket check."""
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
    return eta


def offset_profile(grid, b: int, depth: int) -> PiecewiseLinear:
    """The profile of offset b: the running maximum of u -> value(u, b), zero
    below b, sampled at the levels n <= depth."""
    ns = np.arange(depth + 1, dtype=float)
    samples = np.maximum(np.where(ns >= b, grid.evaluate(np.maximum(ns, b), float(b)), 0.0), 0.0)
    return PiecewiseLinear.from_samples(ns, np.maximum.accumulate(samples))


def reference_offset_steps(grid, dimension: int, depth: int) -> list:
    """The quantization eta of every offset b < depth, one offset at a time, as
    ``synthesize_set`` makes it after its argument checks.

    Offset b quantizes its ``offset_profile`` and adds its cubes to a running
    total against ``synthesis.CUBE_CAP``, read at the call, so the first
    offset that fails a check raises that check's error.  Its eta vanishes
    through level b, so its tree lies in [0, 2^-b]^d.
    """
    etas, total, cube_cap = [], 0, synthesis.CUBE_CAP
    for b in range(depth):
        eta = reference_step_quantize(offset_profile(grid, b, depth), float(dimension), depth)
        assert not eta[: b + 1].any()
        total += int(np.sum(np.exp2(eta)))
        if total > cube_cap:
            raise CapExceeded(f"the set needs more than {cube_cap} cubes, the synthesis cube cap: reduce the depth")
        etas.append(eta)
    return etas


def reference_grown_levels(splits, d: int) -> list:
    """Every level's packed cube codes of the tree that splits each cube into
    its 2^d children where ``splits`` holds: a level-n code packs n d-bit child
    indices, root-first, and each level is sorted by code."""
    levels = [np.zeros(1, dtype=np.int64)]
    children = np.arange(1 << d, dtype=np.int64)
    for split in splits:
        prev = levels[-1] << d
        levels.append((prev[:, None] | children).ravel() if split else prev)
    return levels


def ref_corner_ints(codes, d: int, level: int) -> np.ndarray:
    """Corner coordinates of level-``level`` codes, one base-2^d digit and one axis
    at a time: bit q of the digit at depth position p is bit level - p of axis q."""
    out = np.zeros((codes.size, d), dtype=np.int64)
    for depth_pos in range(1, level + 1):
        digit = (codes >> (d * (level - depth_pos))) & ((1 << d) - 1)
        for q in range(d):
            out[:, q] |= ((digit >> q) & 1) << (level - depth_pos)
    return out


def reference_tree_cells(splits, d: int, level: int) -> np.ndarray:
    """The level-``level`` corners of the tree of ``splits``, decoded from its packed codes in code order."""
    return ref_corner_ints(reference_grown_levels(splits, d)[level], d, level)


def reference_composite_cells(d: int, parts, level: int) -> np.ndarray:
    """The distinct level-``level`` cells of the origin and the parts ``[(b, splits)]``.

    Part b is placed once ``level >= b - 2``, shifted along axis 0 by 4 * 2^-b
    in units of 2^-level (rounded down below level b), and the rows of the
    origin and every placed part are deduplicated by ``unique_rows``.
    """
    rows = [np.zeros((1, d), dtype=np.int64)]
    for b, splits in parts:
        if level >= b - 2:
            cells = reference_tree_cells(splits, d, level)
            cells[:, 0] += 4 << (level - b) if level >= b else 4 >> (b - level)
            rows.append(cells)
    return unique_rows(np.vstack(rows))


@st.composite
def split_masks(draw, dims=(1, 2, 3, 4)):
    """(d, depth, [(b, splits)]): parts at distinct offsets b < depth that split
    nowhere above level b, each with at most 14 // d splits; d * depth <= 62
    keeps the packed-code reference in int64."""
    d = draw(st.sampled_from(dims))
    depth = draw(st.integers(0, min(14, 62 // d)))
    parts = []
    for b in sorted(draw(st.sets(st.integers(0, max(depth - 1, 0)), max_size=4))) if depth else []:
        splits = np.array([False] * b + draw(st.lists(st.booleans(), min_size=depth - b, max_size=depth - b)))
        splits[np.flatnonzero(splits)[14 // d:]] = False
        parts.append((b, splits))
    return d, depth, parts


def reference_attractor(ifs, depth: float) -> PointSet:
    """``generate_attractor`` with word-major arrays, the reference it must match,
    under the ``ifs.WORD_CAP`` of the call.

    A level holds its words' weights, ratios and (words, d) translations; its
    images are F * r + t per condensation batch, and its children are gathered
    at the ``np.nonzero`` of the weight mask, word by word and map by map.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    w, cap = ifs.weights, ifs_module.WORD_CAP
    sampler = _CondensationSampler(ifs)
    batches: list[np.ndarray] = []
    n_words = 0
    n_points = 0
    rho, r, t = np.zeros(1), np.ones(1), np.zeros((1, ifs.dimension))
    while rho.size:
        groups = sampler.groups(depth - rho)
        n_words += rho.size
        n_points += sum(F.shape[0] * r[sel].size for F, sel in groups)
        if n_words > cap:
            raise CapExceeded(f"attractor sample exceeds the cap: {n_words} words, more than {cap}")
        if n_points > 4 * cap:
            raise CapExceeded(f"attractor sample exceeds the raw-point bound: "
                              f"{n_points} points, more than 4 * cap = {4 * cap}")
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
