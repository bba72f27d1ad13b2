"""Seeded random families of grids and curves for the verification suites.

Everything here is constructive: curves come from increasing-ratio sampling
or maxima of plateau curves, grids from homogeneous lifts and anchored
profile bumps, so class membership holds by construction rather than by
rejection.  A curve is built as one table of its plateau components, one
row each, and one ``SpectrumGrid`` of the table's maximum; the
random draws come in one array per curve, scaled by hand the way
``Generator.uniform`` scales them, so the stream and the values are those of
one ``uniform`` call per parameter.
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec, PiecewiseLinear, TwoScaleGrid, pointwise_max, profile_extension
from .operators import DEFAULT_THETA_STEP, SpectrumGrid, cone_extension

# Plateau components per random curve, and the bump sizes of the grids.
KINKS = 3
BUMP_HEIGHT = 0.3
STEEPNESS = 3.0
MAX_HEIGHT = 1.5


def _check_class(lipschitz: float, growth: float = 0.0) -> None:
    if not 0 <= growth <= lipschitz < np.inf:
        raise ValueError(f"need 0 <= growth <= lipschitz < inf, got growth {growth}, lipschitz {lipschitz}")


def _plateau_maximum(heights: np.ndarray, kinks: np.ndarray) -> SpectrumGrid:
    """Maximum of the plateau curves height * (1 - max(theta, kink)), one per pair.

    Finite heights >= 0 and kinks in [0, 1] give finite, nonnegative values,
    so the curve skips the constructor's checks; + 0.0 turns the -0.0 of a
    height -0.0 into the 0.0 the constructor's clamp would hold.
    """
    m = round(1.0 / DEFAULT_THETA_STEP)
    th = np.arange(m + 1) * DEFAULT_THETA_STEP
    table = heights[:, None] * (1.0 - np.maximum(th, kinks[:, None]))
    return SpectrumGrid._adopt(DEFAULT_THETA_STEP, table.max(axis=0) + 0.0)


def random_monotone_limit_curve(
    rng: np.random.Generator,
    lipschitz: float,
    growth: float,
) -> SpectrumGrid:
    """Random monotone-class curve via increasing-ratio sampling.

    The spectrum ratio is sampled nondecreasing while the curve itself stays
    decreasing and lipschitz-bounded; the value at 0 is at least ``growth``.
    """
    _check_class(lipschitz, growth)
    theta_step = DEFAULT_THETA_STEP
    m = round(1.0 / theta_step)
    vals = [0.0] * (m + 1)
    ratio_prev = vals[0] = rng.uniform(growth, lipschitz)
    for k, draw in enumerate(rng.random(m - 1).tolist(), start=1):
        prev = vals[k - 1]
        rest = 1.0 - k * theta_step
        hi = min(prev / rest, lipschitz)
        lo = max(ratio_prev, (prev - lipschitz * theta_step) / rest)
        lo = min(lo, hi)
        ratio_prev = lo + (hi - lo) * draw
        vals[k] = ratio_prev * rest
    return SpectrumGrid(theta_step, vals)


def random_limit_curve(rng: np.random.Generator, lipschitz: float) -> SpectrumGrid:
    """Random limit-class curve as a maximum of plateau curves."""
    _check_class(lipschitz)
    draws = rng.random((KINKS, 2))
    return _plateau_maximum((0.1 + (1.0 - 0.1) * draws[:, 0]) * lipschitz, draws[:, 1])


def random_bounded_bump(
    rng: np.random.Generator,
    spec: GridSpec,
    max_slope: float,
    max_height: float,
) -> TwoScaleGrid:
    """Anchored profile extension with a bounded ramp, a bounded branching grid."""
    anchor = float(rng.integers(0, spec.n // 2)) * spec.step
    slope = rng.uniform(0.2, 1.0) * max_slope
    height = rng.uniform(0.2, 1.0) * max_height
    run = max(height / slope, spec.step)
    if anchor > 0:
        ramp = PiecewiseLinear(np.array([0.0, anchor, anchor + run]), np.array([0.0, slope]))
    else:
        ramp = PiecewiseLinear(np.array([0.0, run]), np.array([slope]))
    return profile_extension(ramp, anchor, spec)


def random_branching_grid(rng: np.random.Generator, spec: GridSpec, lipschitz: float) -> TwoScaleGrid:
    """Random lipschitz-bounded branching grid.

    A maximum of one or two homogeneous lifts of random limit curves plus up
    to two small anchored bumps; bump slopes stay within the lipschitz bound
    so the class is preserved, and bump heights stay small so finite-window
    limits remain sharp.
    """
    parts = [
        cone_extension(random_limit_curve(rng, lipschitz * rng.uniform(0.4, 1.0)), spec)
        for _ in range(int(rng.integers(1, 3)))
    ]
    for _ in range(int(rng.integers(0, 3))):
        parts.append(random_bounded_bump(rng, spec, lipschitz, BUMP_HEIGHT))
    return pointwise_max(parts)


def random_perturbed_branching(rng: np.random.Generator, spec: GridSpec, lipschitz: float) -> TwoScaleGrid:
    """Branching grid that exceeds the lipschitz bound on a bounded region.

    The base grid is lipschitz-bounded; adding steeper anchored bumps keeps
    all branching axioms (they hold termwise under sums) while violating the
    slope bound by a bounded amount, the regime the approximation operator is
    made for.
    """
    vals = random_branching_grid(rng, spec, lipschitz).values
    for _ in range(int(rng.integers(1, 4))):
        bump = random_bounded_bump(rng, spec, STEEPNESS * lipschitz, MAX_HEIGHT)
        vals = vals + bump.values
    # a sum of branching grids peaks at (u_max, 0), so an overflow shows there
    if not vals[-1, 0] < np.inf:
        raise ValueError("values must be finite on the lattice")
    return TwoScaleGrid._adopt(spec, vals)


def random_monotone_majorant_curve(
    rng: np.random.Generator, lipschitz: float, growth: float
) -> SpectrumGrid:
    """Random monotone-class curve dominating every lipschitz-bounded curve.

    Includes the full line lipschitz * (1 - theta) and the floor
    growth * (1 - theta) among its plateau components, so it majorizes any
    curve in the lipschitz class and any grid's normalized values.
    """
    _check_class(lipschitz, growth)
    draws = rng.random((KINKS, 2))
    heights = np.concatenate(([lipschitz, growth], growth + (lipschitz - growth) * draws[:, 0]))
    kinks = np.concatenate(([0.0, 0.0], draws[:, 1]))
    return _plateau_maximum(heights, kinks)
