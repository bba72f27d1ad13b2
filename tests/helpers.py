"""Test-side constructors and comparisons of grids and curves, and a reader of the
profile CSV that the CLI writes but never reads back."""

import numpy as np

from twoscale import PiecewiseLinear, TwoScaleGrid
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
