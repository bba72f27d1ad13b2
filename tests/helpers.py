"""Test-side constructors and comparisons of grids and curves, a reader of the
profile CSV that the CLI writes but never reads back, a one-offset-at-a-time
reference of the synthesis's step quantization, a word-major reference of
the attractor's word expansion, and ``outcome``, which compares a raised error
with a reference's by type and message."""

import numpy as np

from twoscale import PiecewiseLinear, PointSet, StepFunction, TwoScaleGrid, subdivision_tree
from twoscale.grids import CapExceeded, EXACT_TOL, unique_rows
from twoscale.ifs import DEFAULT_WORD_CAP, _CondensationSampler
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


def reference_step_quantize(profile: PiecewiseLinear, step_size: float, depth: int) -> StepFunction:
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
    return StepFunction(step_size, eta)


def reference_offset_steps(grid, dimension: int, depth: int, cube_cap: int) -> list:
    """The step function and tree of every offset b < depth, one offset at a
    time, as ``synthesize_set`` makes them after its argument checks.

    Offset b samples u -> value(u, b) at the levels n (zero below b), takes its
    running maximum as a piecewise-linear profile, quantizes it, adds its cubes
    to a running total against ``cube_cap`` and builds its tree, so the first
    offset that fails a check raises that check's error.
    """
    ns = np.arange(depth + 1, dtype=float)
    steps, total = [], 0
    for b in range(depth):
        samples = np.where(ns >= b, grid.evaluate(np.maximum(ns, b), float(b)), 0.0)
        samples = np.maximum(samples, 0.0)
        profile = PiecewiseLinear.from_samples(ns, np.maximum.accumulate(samples))
        eta = reference_step_quantize(profile, float(dimension), depth)
        total += int(np.sum(np.exp2(eta.cumulative)))
        if total > cube_cap:
            raise CapExceeded(f"materialization needs more than {cube_cap} cubes; "
                              f"reduce depth or raise the cap")
        steps.append((eta.cumulative, subdivision_tree(eta, dimension, offset=b)))
    return steps


def reference_attractor(ifs, condensation=None, depth: float = 20.0, cap: int = DEFAULT_WORD_CAP) -> PointSet:
    """``generate_attractor`` with word-major arrays, the reference it must match.

    A level holds its words' weights, ratios and (words, d) translations; its
    images are F * r + t per condensation batch, and its children are gathered
    at the ``np.nonzero`` of the weight mask, word by word and map by map.
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
