"""Test-side constructors and comparisons of grids and curves, and readers of the
profile CSV and tree files that the CLI writes but never reads back."""

import numpy as np

from twoscale import DyadicTree, PiecewiseLinear, TwoScaleGrid
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


def tree_from_text(text: str, dimension: int) -> list[tuple[int, DyadicTree]]:
    """The ``(b, DyadicTree)`` parts of a tree file in the form ``synth`` writes:
    a ``# part b`` header per part, each followed by its tree's ``tree_to_text``
    lines.  Offsets b are nonnegative, every part has a level header, and an
    address has one base-2^d digit per level."""
    if not 1 <= dimension <= 3:
        raise ValueError("tree files use single-digit children (d <= 3)")
    parts: list[tuple[int, list]] = []
    for ln in filter(None, map(str.strip, text.splitlines())):
        if ln.startswith("# part"):
            parts.append((int(ln[len("# part"):]), []))
            if parts[-1][0] < 0:
                raise ValueError(f"negative part offset in {ln!r}")
            continue
        if not parts:
            raise ValueError("tree file must start with a # part header")
        levels = parts[-1][1]
        if ln.startswith("# level"):
            levels.append([])
        elif not levels:
            raise ValueError("address before any level header")
        else:
            n = len(levels) - 1
            if (ln != "-") if n == 0 else (not ln.isdigit() or len(ln) != n):
                raise ValueError(f"bad address {ln!r} at level {n}")
            levels[-1].append(int(ln, 1 << dimension) if n else 0)
    if any(not levels for _, levels in parts):
        raise ValueError("part without a level header")
    return [(b, DyadicTree(dimension, len(levels) - 1, [np.array(sorted(c), dtype=np.int64) for c in levels]))
            for b, levels in parts]
