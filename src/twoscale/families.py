"""Seeded random families of grids and curves for the verification suites.

Everything here is constructive: curves come from increasing-ratio sampling
or maxima of plateau curves, grids from homogeneous lifts and anchored
profile bumps, so class membership holds by construction rather than by
rejection.
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec, PiecewiseLinear, TwoScaleGrid, pointwise_max, profile_extension
from .operators import (
    DEFAULT_THETA_STEP,
    SpectrumGrid,
    cone_extension,
    plateau_curve,
)

# Plateau components per random curve, and the bump sizes of the grids.
KINKS = 3
BUMP_HEIGHT = 0.3
STEEPNESS = 3.0
MAX_HEIGHT = 1.5


def random_monotone_limit_curve(
    rng: np.random.Generator,
    lipschitz: float,
    growth: float = 0.0,
) -> SpectrumGrid:
    """Random monotone-class curve via increasing-ratio sampling.

    The spectrum ratio is sampled nondecreasing while the curve itself stays
    decreasing and lipschitz-bounded; the value at 0 is at least ``growth``.
    """
    theta_step = DEFAULT_THETA_STEP
    m = round(1.0 / theta_step)
    th = np.arange(m + 1) * theta_step
    vals = np.empty(m + 1)
    ratio_prev = rng.uniform(growth, max(growth, lipschitz))
    vals[0] = ratio_prev
    for k in range(1, m):
        prev = vals[k - 1]
        rest = 1.0 - th[k]
        hi = min(prev / rest, lipschitz)
        lo = max(ratio_prev, (prev - lipschitz * theta_step) / rest)
        lo = min(lo, hi)
        ratio_prev = rng.uniform(lo, hi)
        vals[k] = ratio_prev * rest
    vals[m] = 0.0
    return SpectrumGrid(theta_step, vals)


def random_limit_curve(rng: np.random.Generator, lipschitz: float) -> SpectrumGrid:
    """Random limit-class curve as a maximum of plateau curves."""
    pieces = [
        plateau_curve(rng.uniform(0.1, 1.0) * lipschitz, rng.uniform(0.0, 1.0))
        for _ in range(KINKS)
    ]
    return SpectrumGrid(DEFAULT_THETA_STEP, np.maximum.reduce([p.values for p in pieces]))


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
    base = random_branching_grid(rng, spec, lipschitz)
    vals = base.values.copy()
    for _ in range(int(rng.integers(1, 4))):
        bump = random_bounded_bump(rng, spec, STEEPNESS * lipschitz, MAX_HEIGHT)
        vals = vals + bump.values
    return TwoScaleGrid(spec, vals)


def random_monotone_majorant_curve(
    rng: np.random.Generator, lipschitz: float, growth: float
) -> SpectrumGrid:
    """Random monotone-class curve dominating every lipschitz-bounded curve.

    Includes the full line lipschitz * (1 - theta) and the floor
    growth * (1 - theta) among its plateau components, so it majorizes any
    curve in the lipschitz class and any grid's normalized values.
    """
    comps = [plateau_curve(lipschitz, 0.0), plateau_curve(growth, 0.0)]
    for _ in range(KINKS):
        comps.append(plateau_curve(rng.uniform(growth, lipschitz), rng.uniform(0.0, 1.0)))
    return SpectrumGrid(DEFAULT_THETA_STEP, np.maximum.reduce([c.values for c in comps]))


def random_monotone_majorant_grid(
    rng: np.random.Generator, spec: GridSpec, lipschitz: float, growth: float
) -> TwoScaleGrid:
    """Homogeneous lift of a majorant curve: a monotone-class grid above the class."""
    return cone_extension(random_monotone_majorant_curve(rng, lipschitz, growth), spec)
