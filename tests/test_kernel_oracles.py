"""Grid, curve and cube-address kernels against their per-index loop formulations.

Each ``ref_*`` function below is the straightforward loop (or per-call
index-array) form of a kernel in ``grids.py``, ``operators.py`` or
``synthesis.py``, or the per-draw, per-component form of a random family in
``families.py``.  The
kernels must agree with them exactly: equal values including the sign of
zero, equal error messages, and equal ``repr`` of validation reports, which
also pins the order of the witnesses kept under ``MAX_WITNESSES``.
"""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import curve_evaluate, grid_from_function
from twoscale import (
    DyadicTree,
    GridSpec,
    SpectrumGrid,
    TwoScaleGrid,
    commuting_deviation,
    cone_extension,
    lipschitz_approximation,
    monotone_envelope,
    plateau_curve,
    pointwise_max,
    scaling_limit,
    spectrum_envelope,
    validate_branching,
    validate_limit_curve,
    validate_monotone_grid,
)
from twoscale.families import (
    KINKS,
    _plateau_maximum,
    random_branching_grid,
    random_limit_curve,
    random_monotone_limit_curve,
    random_monotone_majorant_curve,
    random_perturbed_branching,
)
from twoscale.grids import (
    EXACT_TOL,
    MAX_WITNESSES,
    ValidationReport,
    Violation,
    _clean_triangle,
)
from twoscale.operators import DEFAULT_THETA_STEP, _cone_triangle, _monotone_envelopes

# ---------------------------------------------------------------------------
# Reference formulations
# ---------------------------------------------------------------------------


class RefCollector:
    def __init__(self):
        self.violations = []
        self.counts = {}

    def add_array(self, prop, mask, magnitudes, witness_fn):
        k = int(np.count_nonzero(mask))
        if k == 0:
            return
        self.counts[prop] = self.counts.get(prop, 0) + k
        room = MAX_WITNESSES - sum(1 for v in self.violations if v.prop == prop)
        if room <= 0:
            return
        idx = np.argwhere(mask)
        order = np.argsort(-np.asarray(magnitudes)[mask])
        for flat in order[:room]:
            w = tuple(idx[flat])
            witness = tuple(map(float, witness_fn(*w)))
            self.violations.append(Violation(prop, witness, float(np.asarray(magnitudes)[mask][flat])))

    def report(self):
        return ValidationReport(tuple(self.violations), dict(self.counts))


def ref_clean_triangle(n, values):
    vals = np.array(values, dtype=float)
    if vals.shape != (n + 1, n + 1):
        raise ValueError(f"values must have shape {(n + 1, n + 1)}, got {vals.shape}")
    ii, jj = np.tril_indices(n + 1)
    tri = vals[ii, jj]
    if not np.all(np.isfinite(tri)):
        raise ValueError("values must be finite on the lattice")
    if np.any(tri < -EXACT_TOL):
        raise ValueError("values must be nonnegative on the lattice")
    vals[ii, jj] = np.maximum(tri, 0.0)
    diag = np.diagonal(vals)
    if np.any(np.abs(diag) > EXACT_TOL):
        raise ValueError("diagonal values (u, u) must be zero")
    np.fill_diagonal(vals, 0.0)
    vals[np.triu_indices(n + 1, k=1)] = 0.0
    return vals


def ref_anchored_minorant(h, cap):
    if not np.isfinite(cap):
        out = h.copy()
        out[0] = 0.0
        return out
    steps = cap * np.arange(h.size)
    c = h - steps
    c[0] = 0.0 - steps[0]
    return np.minimum.accumulate(c) + steps


def ref_lipschitz_approximation(grid, lipschitz):
    V = grid.values
    n = grid.spec.n
    cap = lipschitz * grid.spec.step
    out = np.zeros_like(V)
    g = np.empty(n + 1)
    for b in range(n + 1):
        g[:b] = 0.0
        g[b:] = ref_anchored_minorant(V[b:, b], cap)
        np.maximum(out, g[:, None] - g[None, :], out=out)
    return ref_clean_triangle(n, out)


def ref_validate_branching(grid, lipschitz=np.inf, tol=EXACT_TOL):
    V = grid.values
    n = grid.spec.n
    coords = grid.spec.coords
    col = RefCollector()

    diag = np.abs(np.diagonal(V))
    col.add_array("diagonal_zero", diag > tol, diag, lambda i: (coords[i],))

    ii, jj = np.tril_indices(n + 1)
    mask_lower = np.zeros_like(V, dtype=bool)
    mask_lower[ii, jj] = True

    gap = V[:-1, :] - V[1:, :]
    bad = (gap > tol) & mask_lower[:-1, :]
    col.add_array("increasing_u", bad, gap, lambda i, j: (coords[i + 1], coords[j]))

    gap = V[:, 1:] - V[:, :-1]
    bad = (gap > tol) & mask_lower[:, 1:]
    col.add_array("decreasing_v", bad, gap, lambda i, j: (coords[i], coords[j + 1]))

    if np.isfinite(lipschitz):
        uu, vv = np.meshgrid(coords, coords, indexing="ij")
        gap = V - lipschitz * (uu - vv)
        bad = (gap > tol) & mask_lower
        col.add_array("lipschitz_bound", bad, gap, lambda i, j: (coords[i], coords[j]))

    for k in range(n + 1):
        i = np.arange(k, n + 1)
        j = np.arange(0, k + 1)
        gap = V[np.ix_(i, j)] - (V[i, k][:, None] + V[k, j][None, :])
        bad = gap > tol
        if bad.any():
            col.add_array(
                "subadditivity",
                bad,
                gap,
                lambda a, b, k=k: (coords[a + k], coords[k], coords[b]),
            )
    return col.report()


def ref_monotone_envelope(grid, growth):
    V = grid.values
    n = grid.spec.n
    step = grid.spec.step
    out = np.zeros_like(V)
    ramp = np.maximum.accumulate(V[:, 0] - growth * step * np.arange(n + 1))
    for d in range(n + 1):
        idx = np.arange(0, n + 1 - d)
        diag = np.maximum.accumulate(V[idx + d, idx])
        out[idx + d, idx] = np.maximum(diag, growth * step * d + ramp[d])
    return ref_clean_triangle(n, out)


def ref_validate_monotone_grid(grid, lipschitz, growth, tol=EXACT_TOL):
    """The per-diagonal loop: one witness batch per diagonal, in diagonal order."""
    base = ref_validate_branching(grid, lipschitz, tol)
    V = grid.values
    n = grid.spec.n
    coords = grid.spec.coords
    col = RefCollector()
    col.violations.extend(base.violations)
    col.counts.update(base.counts)
    for d in range(1, n + 1):
        idx = np.arange(0, n + 1 - d)
        diag = V[idx + d, idx]
        drop = -np.diff(diag)
        col.add_array(
            "diagonal_monotone",
            drop > tol,
            drop,
            lambda k, d=d: (coords[k + 1 + d], coords[k + 1]),
        )
    first = V[:, 0]
    gap = growth * (coords[:, None] - coords[None, :]) - (first[:, None] - first[None, :])
    bad = (gap > tol) & (coords[None, :] < coords[:, None])
    col.add_array("column_growth", bad, gap, lambda a, b: (coords[a], coords[b]))
    return col.report()


def ref_curve_evaluate(curve, theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -EXACT_TOL) or np.any(theta > 1 + EXACT_TOL):
        raise ValueError("theta must lie in [0, 1]")
    x = np.clip(theta, 0.0, 1.0) * curve.m
    x = np.where(np.abs(x - np.rint(x)) < 1e-9, np.rint(x), x)
    i = np.minimum(np.floor(x), curve.m - 1).astype(np.int64)
    frac = x - i
    out = (1 - frac) * curve.values[i] + frac * curve.values[i + 1]
    return out if out.shape else float(out)


def ref_validate_limit_curve(curve, lipschitz=np.inf, tol=EXACT_TOL):
    v = curve.values
    th = curve.thetas
    col = RefCollector()

    end = np.array([abs(v[-1])])
    col.add_array("endpoint_zero", end > tol, end, lambda i: (1.0,))

    inc = np.diff(v)
    col.add_array("decreasing", inc > tol, inc, lambda i: (th[i + 1],))

    if np.isfinite(lipschitz):
        drop = -np.diff(v) - lipschitz * curve.theta_step
        col.add_array("lipschitz", drop > tol, drop, lambda i: (th[i + 1],))

    lam, theta = np.meshgrid(th, th, indexing="ij")
    gap = ref_curve_evaluate(curve, lam * theta) - (
        ref_curve_evaluate(curve, theta) + theta * ref_curve_evaluate(curve, lam)
    )
    col.add_array("subadditivity", gap > tol, gap, lambda a, b: (th[a], th[b]))
    return col.report()


def ref_cone_extension(curve, spec):
    report = ref_validate_limit_curve(curve, np.inf, tol=1e-7)
    if not report.passed:
        raise ValueError(f"invalid limit curve: {report.summary()}")
    coords = spec.coords
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = coords[None, :] / coords[:, None]
    ratio[0, :] = 1.0
    ratio = np.clip(ratio, 0.0, 1.0)
    vals = coords[:, None] * ref_curve_evaluate(curve, ratio)
    np.fill_diagonal(vals, 0.0)
    return ref_clean_triangle(spec.n, vals)


def ref_grid_evaluate(grid, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(v < -EXACT_TOL) or np.any(v > u + EXACT_TOL) or np.any(u > grid.spec.u_max + EXACT_TOL):
        raise ValueError("point outside the domain 0 <= v <= u <= u_max")
    n = grid.spec.n
    s = u / grid.spec.step
    t = v / grid.spec.step
    s = np.where(np.abs(s - np.rint(s)) < 1e-9, np.rint(s), s)
    t = np.where(np.abs(t - np.rint(t)) < 1e-9, np.rint(t), t)
    t = np.minimum(t, s)
    i = np.minimum(np.floor(s), n - 1).astype(np.int64)
    j = np.minimum(np.floor(t), n - 1).astype(np.int64)
    i = np.maximum(i, 0)
    j = np.maximum(j, 0)
    ls = s - i
    lt = t - j
    V = grid.values
    lower = lt <= ls
    out = np.where(
        lower,
        (1.0 - ls) * V[i, j] + (ls - lt) * V[np.minimum(i + 1, n), j] + lt * V[np.minimum(i + 1, n), np.minimum(j + 1, n)],
        (1.0 - lt) * V[i, j] + (lt - ls) * V[i, np.minimum(j + 1, n)] + ls * V[np.minimum(i + 1, n), np.minimum(j + 1, n)],
    )
    return out if out.shape else float(out)


def ref_scaling_limit(grid, u_min, theta_step):
    top = grid.spec.u_max
    coords = grid.spec.coords
    us = coords[(coords >= u_min - EXACT_TOL) & (coords <= top + EXACT_TOL) & (coords > 0)]
    m = round(1.0 / theta_step)
    thetas = np.arange(m + 1) * theta_step
    uu = np.repeat(us, m + 1)
    tt = np.tile(thetas, us.size)
    vals = ref_grid_evaluate(grid, uu, tt * uu).reshape(us.size, m + 1)
    return np.maximum((vals / us[:, None]).max(axis=0), 0.0)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


STEPS = [0.25, 0.5, 1.0, 0.125, 0.1, 0.3]
LIPSCHITZ = [0.0, 0.4, 1.0, 2.5, np.inf]


def grid_kind(rng, spec, kind):
    """A branching grid, a slope-breaking one, or arbitrary nonnegative data."""
    if spec.n < 2:  # the random bumps need an anchor below n / 2
        kind = "noise"
    if kind == "branching":
        return random_branching_grid(rng, spec, 1.0)
    if kind == "perturbed":
        return random_perturbed_branching(rng, spec, 1.0)
    vals = np.tril(rng.uniform(0.0, 3.0, (spec.n + 1, spec.n + 1)), -1)
    vals[rng.random(vals.shape) < 0.2] = 0.0
    return TwoScaleGrid(spec, np.tril(vals, -1))


grids = st.tuples(
    st.integers(1, 14),
    st.sampled_from(STEPS),
    st.sampled_from(["branching", "perturbed", "noise"]),
    st.integers(0, 2**32 - 1),
)


def make_grid(params):
    n, step, kind, seed = params
    spec = GridSpec(n * step, step)
    return grid_kind(np.random.default_rng(seed), spec, kind)


def big_grids():
    rng = np.random.default_rng(11)
    spec = GridSpec(64.0, 0.25)
    assert spec.n == 256
    return [grid_kind(rng, spec, kind) for kind in ("branching", "perturbed", "noise")]


# ---------------------------------------------------------------------------
# TwoScaleGrid construction
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["nan_lower", "nan_upper", "inf_upper", "negative", "tiny_negative",
                              "minus_zero", "diagonal", "tiny_diagonal", "shape"]), max_size=3),
)
def test_grid_construction_matches_index_array_cleaning(n, seed, faults):
    rng = np.random.default_rng(seed)
    spec = GridSpec(max(n, 1) * 0.5, 0.5)
    n = spec.n
    vals = rng.uniform(-1.0, 3.0, (n + 1, n + 1))
    vals[np.tril_indices(n + 1)] = np.abs(vals[np.tril_indices(n + 1)])
    np.fill_diagonal(vals, 0.0)
    for fault in faults:
        i = int(rng.integers(0, n + 1))
        j = int(rng.integers(0, i + 1))
        if fault == "nan_lower":
            vals[i, j] = np.nan
        elif fault == "nan_upper" and j < i:
            vals[j, i] = np.nan
        elif fault == "inf_upper" and j < i:
            vals[j, i] = -np.inf
        elif fault == "negative":
            vals[i, j] = -0.5
        elif fault == "tiny_negative":
            vals[i, j] = -EXACT_TOL / 2
        elif fault == "minus_zero":
            vals[i, j] = -0.0
        elif fault == "diagonal":
            vals[i, i] = 0.25
        elif fault == "tiny_diagonal":
            vals[i, i] = EXACT_TOL / 2
    if "shape" in faults:
        vals = vals[:, :-1]
    expected = outcome(ref_clean_triangle, n, vals)
    got = outcome(lambda: TwoScaleGrid(spec, vals).values)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert same_bits(got, expected)
        assert not got.flags.writeable


def test_grid_construction_pins_nan_in_the_unused_upper_triangle():
    spec = GridSpec(2.0, 1.0)
    vals = np.array([[0.0, np.nan, np.nan], [1.0, 0.0, np.inf], [2.0, 1.0, 0.0]])
    grid = TwoScaleGrid(spec, vals)
    assert same_bits(grid.values, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]]))
    assert np.isnan(vals[0, 1])  # the input is not modified


def test_grid_construction_accepts_nested_lists():
    grid = TwoScaleGrid(GridSpec(1.0, 1.0), [[0, 0], [1, 0]])
    assert same_bits(grid.values, np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# lipschitz_approximation
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(grids, st.sampled_from(LIPSCHITZ + [-0.0]))
def test_lipschitz_approximation_matches_anchor_loop(params, lipschitz):
    grid = make_grid(params)
    expected = outcome(ref_lipschitz_approximation, grid, lipschitz)
    got = outcome(lambda: lipschitz_approximation(grid, lipschitz, check=False).values)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert same_bits(got, expected)


@pytest.mark.parametrize("lipschitz", [0.0, 1.0, np.inf])
def test_lipschitz_approximation_matches_anchor_loop_at_n_256(lipschitz):
    for grid in big_grids():
        got = lipschitz_approximation(grid, lipschitz, check=False).values
        assert same_bits(got, ref_lipschitz_approximation(grid, lipschitz))


# ---------------------------------------------------------------------------
# validate_branching
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(grids, st.sampled_from(LIPSCHITZ), st.sampled_from([EXACT_TOL, 0.05, 0.25]))
def test_validate_branching_matches_triple_loop(params, lipschitz, tol):
    grid = make_grid(params)
    assert repr(validate_branching(grid, lipschitz, tol)) == repr(ref_validate_branching(grid, lipschitz, tol))


def test_validate_branching_matches_triple_loop_at_n_256():
    for grid in big_grids():
        for lipschitz in (1.0, np.inf):
            got = validate_branching(grid, lipschitz, EXACT_TOL)
            assert repr(got) == repr(ref_validate_branching(grid, lipschitz, EXACT_TOL))
    # the noise grid breaks subadditivity far beyond the witness cap
    assert got.counts["subadditivity"] > 100 * MAX_WITNESSES
    assert sum(v.prop == "subadditivity" for v in got.violations) == MAX_WITNESSES


# ---------------------------------------------------------------------------
# monotone_envelope
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(grids, st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5]))
def test_monotone_envelope_matches_diagonal_loop(params, growth):
    grid = make_grid(params)
    assert same_bits(monotone_envelope(grid, growth).values, ref_monotone_envelope(grid, growth))


def test_monotone_envelope_matches_diagonal_loop_at_n_256():
    for grid in big_grids():
        for growth in (0.0, 0.3, 1.0):
            assert same_bits(monotone_envelope(grid, growth).values, ref_monotone_envelope(grid, growth))


# ---------------------------------------------------------------------------
# validate_monotone_grid
# ---------------------------------------------------------------------------


def planted_monotone_grid(params, growth, plant):
    """A grid as drawn, its monotone envelope, or that envelope with some entries lowered.

    Lowering an entry below its diagonal predecessor plants a diagonal drop.
    """
    grid = make_grid(params)
    if plant == "raw":
        return grid
    env = monotone_envelope(grid, growth)
    if plant == "envelope":
        return env
    rng = np.random.default_rng(params[-1] + 1)
    vals = env.values.copy()
    hit = rng.random(vals.shape) < 0.15
    vals[hit] *= rng.uniform(0.0, 1.0, vals.shape)[hit]
    return TwoScaleGrid(env.spec, vals)


def largest_drop(grid, tol):
    """The largest step down along any diagonal u - v = d >= 1, if it exceeds ``tol``."""
    V, n = grid.values, grid.spec.n
    drops = [V[k + d, k] - V[k + 1 + d, k + 1] for d in range(1, n + 1) for k in range(n - d)]
    return max((x for x in drops if x > tol), default=0.0)


def witnesses(report, prop):
    return sorted((v.witness, v.magnitude) for v in report.violations if v.prop == prop)


def assert_same_monotone_report(got, ref, grid, tol):
    """Equal outcome and counts; equal witnesses for every property within the
    cap; and the worst diagonal drop reported, however many drops there are."""
    assert got.worst("diagonal_monotone") == largest_drop(grid, tol)
    assert got.passed == ref.passed
    assert got.counts == ref.counts
    for prop, count in ref.counts.items():
        if count <= MAX_WITNESSES:
            assert witnesses(got, prop) == witnesses(ref, prop), prop


# the class is checked at the envelope's growth, or above it, which plants
# first-column growth failures
@settings(max_examples=150, deadline=None)
@given(grids, st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5]), st.sampled_from([0.0, 0.5]),
       st.sampled_from(["raw", "envelope", "drops"]), st.sampled_from(LIPSCHITZ),
       st.sampled_from([EXACT_TOL, 0.05]))
def test_validate_monotone_grid_matches_diagonal_loop(params, growth, extra, plant, lipschitz, tol):
    grid = planted_monotone_grid(params, growth, plant)
    got = validate_monotone_grid(grid, lipschitz, growth + extra, tol)
    ref = ref_validate_monotone_grid(grid, lipschitz, growth + extra, tol)
    assert_same_monotone_report(got, ref, grid, tol)


def test_validate_monotone_grid_matches_diagonal_loop_on_the_criterion_2_lattice():
    rng = np.random.default_rng(12)
    spec = GridSpec(32.0, 0.25)
    for plant in ("raw", "envelope", "drops"):
        for growth in (0.0, 0.3, 0.7, 1.0):
            params = (spec.n, spec.step, "branching", int(rng.integers(2**32)))
            grid = planted_monotone_grid(params, growth, plant)
            for extra in (0.0, 0.5):
                got = validate_monotone_grid(grid, 1.0, growth + extra, EXACT_TOL)
                ref = ref_validate_monotone_grid(grid, 1.0, growth + extra, EXACT_TOL)
                assert_same_monotone_report(got, ref, grid, EXACT_TOL)


def test_validate_monotone_grid_reports_a_late_drop_beyond_the_witness_cap():
    # 40 small drops on diagonal 1 fill the witness slots; a larger drop on
    # diagonal 10 must still be the worst one reported
    spec = GridSpec(80.0, 1.0)
    vals = 0.5 * np.subtract.outer(spec.coords, spec.coords)
    vals[np.arange(2, 81, 2), np.arange(1, 80, 2)] = 0.4
    vals[30, 20] -= 0.3
    grid = TwoScaleGrid(spec, np.tril(vals))
    got = validate_monotone_grid(grid, np.inf, 0.0, EXACT_TOL)
    assert got.counts["diagonal_monotone"] == 41
    assert got.worst("diagonal_monotone") == pytest.approx(0.3)
    assert (30.0, 20.0) in [v.witness for v in got.violations]
    ref = ref_validate_monotone_grid(grid, np.inf, 0.0, EXACT_TOL)
    assert ref.worst("diagonal_monotone") == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Curves: evaluate, validate_limit_curve, cone_extension
# ---------------------------------------------------------------------------

# 1/m equals the step for the first group; the nudged steps still round to m
# but hold different bits, so their lattices differ from 1/m's
THETA_STEPS = [1 / 64, 1 / 8, 1 / 3, 1.0, 0.1] + [float(np.nextafter(1 / m, 1.0)) for m in (3, 10, 64)]


def random_curve(rng, theta_step, kind):
    m = round(1.0 / theta_step)
    th = np.arange(m + 1) * theta_step
    if kind == "plateaus":
        height = rng.uniform(0.0, 2.0, 3)
        kink = rng.choice(th, 3)
        vals = np.max(height[:, None] * (1.0 - np.maximum(th[None, :], kink[:, None])), axis=0)
    elif kind == "decreasing":
        vals = np.sort(rng.uniform(0.0, 2.0, m + 1))[::-1].copy()
        vals[-1] = 0.0
    else:
        vals = rng.uniform(0.0, 2.0, m + 1)
        vals[rng.random(m + 1) < 0.3] = 0.0
    return SpectrumGrid(theta_step, vals)


curves = st.tuples(
    st.sampled_from(THETA_STEPS),
    st.sampled_from(["plateaus", "decreasing", "noise"]),
    st.integers(0, 2**32 - 1),
)


def make_curve(params):
    theta_step, kind, seed = params
    return random_curve(np.random.default_rng(seed), theta_step, kind)


def test_nudged_theta_steps_differ_from_one_over_m():
    for theta_step in THETA_STEPS[-3:]:
        m = round(1.0 / theta_step)
        assert theta_step != 1.0 / m
        assert np.any(np.arange(m + 1) * theta_step != np.arange(m + 1) * (1.0 / m))


@settings(max_examples=150, deadline=None)
@given(curves, st.integers(0, 2**32 - 1))
def test_curve_evaluate_matches_reference(params, seed):
    curve = make_curve(params)
    rng = np.random.default_rng(seed)
    th = curve.thetas
    queries = [
        rng.uniform(0.0, 1.0, 50),
        th,
        th + rng.uniform(-1e-10, 1e-10, th.size),
        np.outer(th, th),
        np.array([0.0, 1.0, 1.0 + EXACT_TOL / 2, -EXACT_TOL / 2]),
        0.5,
        1.0,
        np.array([1.0 + 1e-6]),
        -1e-6,
    ]
    for q in queries:
        expected = outcome(ref_curve_evaluate, curve, q)
        got = outcome(curve_evaluate, curve, q)
        if isinstance(expected, str):
            assert got == expected
        elif isinstance(expected, float):
            assert isinstance(got, float) and same_bits(got, expected)
        else:
            assert same_bits(got, expected)


@settings(max_examples=150, deadline=None)
@given(curves, st.sampled_from([np.inf, 0.5, 2.0]), st.sampled_from([EXACT_TOL, 1e-7, 0.05]))
def test_validate_limit_curve_matches_reference(params, lipschitz, tol):
    curve = make_curve(params)
    assert repr(validate_limit_curve(curve, lipschitz, tol)) == repr(ref_validate_limit_curve(curve, lipschitz, tol))


def test_validate_limit_curve_matches_reference_beyond_the_witness_cap():
    rng = np.random.default_rng(5)
    curve = random_curve(rng, 1 / 64, "noise")
    got = validate_limit_curve(curve)
    assert got.counts["subadditivity"] > MAX_WITNESSES
    assert repr(got) == repr(ref_validate_limit_curve(curve))
    for _ in range(50):
        curve = random_monotone_limit_curve(rng, rng.uniform(0.2, 2.0), 0.1)
        assert repr(validate_limit_curve(curve, 1.0, 0.03)) == repr(ref_validate_limit_curve(curve, 1.0, 0.03))


@settings(max_examples=120, deadline=None)
@given(curves, st.integers(1, 40), st.sampled_from(STEPS))
def test_cone_extension_matches_reference(params, n, step):
    curve = make_curve(params)
    spec = GridSpec(n * step, step)
    expected = outcome(ref_cone_extension, curve, spec)
    got = outcome(lambda: cone_extension(curve, spec).values)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert same_bits(got, expected)


@settings(max_examples=120, deadline=None)
@given(curves, st.integers(1, 40), st.sampled_from(STEPS))
def test_cone_triangle_is_the_lower_triangle_of_cone_extension(params, n, step):
    curve = make_curve(params)
    spec = GridSpec(n * step, step)
    lower = np.tril_indices(n + 1)
    expected = outcome(lambda: cone_extension(curve, spec).values[lower])
    got = outcome(_cone_triangle, curve, spec)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert same_bits(got, expected)
        assert same_bits(got, ref_cone_extension(curve, spec)[lower])


def test_cone_extension_matches_reference_at_n_256():
    rng = np.random.default_rng(6)
    spec = GridSpec(64.0, 0.25)
    for _ in range(5):
        curve = random_limit_curve(rng, rng.uniform(0.4, 1.0))
        assert same_bits(cone_extension(curve, spec).values, ref_cone_extension(curve, spec))


# ---------------------------------------------------------------------------
# scaling_limit (TwoScaleGrid.evaluate on the window lattice)
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(grids, st.sampled_from(THETA_STEPS), st.floats(0.05, 0.95))
def test_scaling_limit_matches_reference(params, theta_step, frac):
    grid = make_grid(params)
    u_min = frac * grid.spec.u_max
    got = scaling_limit(grid, u_min, theta_step)
    assert same_bits(got.values, ref_scaling_limit(grid, u_min, theta_step))


@settings(max_examples=100, deadline=None)
@given(grids, st.integers(0, 2**32 - 1))
def test_grid_evaluate_matches_reference(params, seed):
    grid = make_grid(params)
    rng = np.random.default_rng(seed)
    top = grid.spec.u_max
    u = rng.uniform(0.0, top, 40)
    v = u * rng.uniform(0.0, 1.0, 40)
    coords = grid.spec.coords
    for q in [(u, v), (coords, coords / 2), (top, 0.0), (top, top), (top + 1.0, 0.0), (1.0, -1.0)]:
        expected = outcome(ref_grid_evaluate, grid, *q)
        got = outcome(grid.evaluate, *q)
        if isinstance(expected, str) or isinstance(expected, float):
            assert got == expected
        else:
            assert same_bits(got, expected)


# ---------------------------------------------------------------------------
# Random families against their per-component formulations
# ---------------------------------------------------------------------------


def ref_random_monotone_limit_curve(rng, lipschitz, growth=0.0):
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


def ref_random_limit_curve(rng, lipschitz):
    pieces = [
        plateau_curve(rng.uniform(0.1, 1.0) * lipschitz, rng.uniform(0.0, 1.0))
        for _ in range(KINKS)
    ]
    return SpectrumGrid(DEFAULT_THETA_STEP, np.maximum.reduce([p.values for p in pieces]))


def ref_random_monotone_majorant_curve(rng, lipschitz, growth):
    comps = [plateau_curve(lipschitz, 0.0), plateau_curve(growth, 0.0)]
    for _ in range(KINKS):
        comps.append(plateau_curve(rng.uniform(growth, lipschitz), rng.uniform(0.0, 1.0)))
    return SpectrumGrid(DEFAULT_THETA_STEP, np.maximum.reduce([c.values for c in comps]))


# lipschitz, then growth as a share of it: the endpoints 0 and 1 are drawn
# often, so growth == 0 and growth == lipschitz are both exercised
class_params = st.tuples(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)


def class_bounds(params):
    lipschitz, share = params
    growth = lipschitz if share == 1.0 else share * lipschitz
    return lipschitz, growth


def assert_same_draws(family, reference, seed, *args):
    """Equal curves, sign of zero included, and the same stream position after.

    Returns the last curve drawn.
    """
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got, expected = family(rng, *args), reference(ref_rng, *args)
        assert got.theta_step == expected.theta_step
        assert same_bits(got.values, expected.values)
    assert rng.random() == ref_rng.random()
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), class_params)
def test_random_monotone_limit_curve_matches_per_draw_loop(seed, params):
    lipschitz, growth = class_bounds(params)
    assert_same_draws(random_monotone_limit_curve, ref_random_monotone_limit_curve, seed, lipschitz, growth)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), class_params)
def test_random_monotone_majorant_curve_matches_plateau_maximum(seed, params):
    lipschitz, growth = class_bounds(params)
    curve = assert_same_draws(
        random_monotone_majorant_curve, ref_random_monotone_majorant_curve, seed, lipschitz, growth
    )
    # criterion 2 checks the majorant's lift through the triangle kernel
    spec = GridSpec(32.0, 0.25)
    expected = cone_extension(curve, spec).values[np.tril_indices(spec.n + 1)]
    assert same_bits(_cone_triangle(curve, spec), expected)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 4.0)))
def test_random_limit_curve_matches_plateau_maximum(seed, lipschitz):
    assert_same_draws(random_limit_curve, ref_random_limit_curve, seed, lipschitz)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1e300)),
                          st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))), min_size=1, max_size=6))
def test_plateau_maximum_matches_the_public_constructor(pairs):
    heights, kinks = (np.array(column) for column in zip(*pairs))
    th = np.arange(round(1.0 / DEFAULT_THETA_STEP) + 1) * DEFAULT_THETA_STEP
    table = heights[:, None] * (1.0 - np.maximum(th, kinks[:, None]))
    got = _plateau_maximum(heights, kinks)
    expected = SpectrumGrid(DEFAULT_THETA_STEP, table.max(axis=0))
    assert got.theta_step == expected.theta_step
    assert same_bits(got.values, expected.values)
    assert not got.values.flags.writeable


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, -0.0, 1.0]), st.sampled_from([0.0, -0.0]))
def test_random_plateau_curves_hold_what_the_public_constructor_holds(seed, lipschitz, growth):
    # a lipschitz or growth of -0.0 gives heights of -0.0; the curves hold 0.0
    for curve in (random_limit_curve(np.random.default_rng(seed), lipschitz),
                  random_monotone_majorant_curve(np.random.default_rng(seed), lipschitz, growth)):
        assert same_bits(curve.values, SpectrumGrid(curve.theta_step, curve.values).values)


def test_random_families_match_their_loops_on_the_verify_draws():
    """The parameter draws of criteria 2 and 10, and of the branching grids."""
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for growth in (0.0, 0.3, 0.7, 1.0):
            for _ in range(20):
                assert same_bits(
                    random_monotone_majorant_curve(rng, 1.0, growth).values,
                    ref_random_monotone_majorant_curve(ref_rng, 1.0, growth).values,
                )
        for _ in range(50):
            lips = rng.uniform(0.2, 2.0)
            assert lips == ref_rng.uniform(0.2, 2.0)
            growth = rng.uniform(0.0, lips)
            assert growth == ref_rng.uniform(0.0, lips)
            assert same_bits(
                random_monotone_limit_curve(rng, lips, growth).values,
                ref_random_monotone_limit_curve(ref_rng, lips, growth).values,
            )
            scale = rng.uniform(0.4, 1.0)
            assert scale == ref_rng.uniform(0.4, 1.0)
            assert same_bits(random_limit_curve(rng, scale).values, ref_random_limit_curve(ref_rng, scale).values)
        assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# The private construction path of operator outputs
# ---------------------------------------------------------------------------


def assert_clean_grid(grid):
    """The grid's table is what public construction makes of it, contiguous and read-only."""
    assert same_bits(_clean_triangle(grid.spec, grid.values), grid.values)
    assert grid.values.flags.c_contiguous and not grid.values.flags.writeable


def assert_clean_curve(curve):
    """The curve's samples are what public construction makes of them, contiguous and read-only."""
    assert same_bits(SpectrumGrid(curve.theta_step, curve.values).values, curve.values)
    assert curve.values.flags.c_contiguous and not curve.values.flags.writeable


GROWTHS = [0.0, -0.0, 0.3, 0.7, 1.0, 2.5]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.sampled_from(STEPS),
       st.lists(st.tuples(st.sampled_from(["branching", "perturbed", "noise"]), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=3))
def test_pointwise_max_output_is_clean(n, step, members):
    spec = GridSpec(n * step, step)
    family = [grid_kind(np.random.default_rng(seed), spec, kind) for kind, seed in members]
    out = pointwise_max(family)
    assert_clean_grid(out)
    assert all(out.values is not g.values for g in family)


@settings(max_examples=100, deadline=None)
@given(curves, st.integers(1, 40), st.sampled_from(STEPS))
def test_cone_extension_output_is_clean(params, n, step):
    theta_step, _, seed = params
    curve = make_curve((theta_step, "plateaus", seed))
    assert_clean_grid(cone_extension(curve, GridSpec(n * step, step)))


@settings(max_examples=100, deadline=None)
@given(grids, st.sampled_from(GROWTHS))
def test_monotone_envelope_output_is_clean(params, growth):
    assert_clean_grid(monotone_envelope(make_grid(params), growth))


@settings(max_examples=100, deadline=None)
@given(grids, st.sampled_from(LIPSCHITZ + [-0.0]))
def test_lipschitz_approximation_output_is_clean(params, lipschitz):
    assert_clean_grid(lipschitz_approximation(make_grid(params), lipschitz, check=False))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 14), st.sampled_from(STEPS), st.sampled_from([0.4, 1.0, 2.5]), st.integers(0, 2**32 - 1))
def test_random_perturbed_branching_output_is_clean(n, step, lipschitz, seed):
    spec = GridSpec(n * step, step)
    assert_clean_grid(random_perturbed_branching(np.random.default_rng(seed), spec, lipschitz))


@settings(max_examples=100, deadline=None)
@given(grids, st.sampled_from(THETA_STEPS), st.floats(0.05, 0.95))
def test_scaling_limit_output_is_clean(params, theta_step, frac):
    grid = make_grid(params)
    assert_clean_curve(scaling_limit(grid, frac * grid.spec.u_max, theta_step))


@settings(max_examples=100, deadline=None)
@given(curves, st.sampled_from(GROWTHS))
def test_spectrum_envelope_output_is_clean(params, growth):
    assert_clean_curve(spectrum_envelope(make_curve(params), growth))


def test_outputs_at_n_256_are_clean():
    for grid in big_grids():
        assert_clean_grid(lipschitz_approximation(grid, 1.0, check=False))
        assert_clean_grid(monotone_envelope(grid, 0.3))
        assert_clean_curve(spectrum_envelope(scaling_limit(grid, 16.0), 0.3))
    assert_clean_grid(pointwise_max(big_grids()))


def test_operators_refuse_what_their_output_checks_refused():
    """Overflows that public construction found in an operator's output are found before it."""
    spec = GridSpec(2.0, 0.25)
    grid = make_grid((spec.n, spec.step, "branching", 3))
    with np.errstate(over="ignore", invalid="ignore"):  # the overflows are the point
        # the lipschitz steps overflow: the anchor scan puts NaN in the output
        message = outcome(lipschitz_approximation, grid, 1e308, False)
        assert message == outcome(ref_lipschitz_approximation, grid, 1e308)
        assert message == "ValueError: values must be finite on the lattice"
        # the growth ramp overflows
        assert outcome(ref_monotone_envelope, grid, 1e308) == message
        assert outcome(monotone_envelope, grid, 1e308) == message
        # huge finite values overflow the window's ratios and the spectrum ratio
        huge = grid_from_function(spec, lambda u, v: 1.7e308 * (u > v))
        assert outcome(scaling_limit, huge, 0.25) == "ValueError: curve values must be finite"
        steep = SpectrumGrid(0.25, [1e308, 1e308, 1e308, 1e308, 0.0])
        assert outcome(spectrum_envelope, steep, 0.0) == "ValueError: curve values must be finite"
    for growth in (np.inf, np.nan, -0.5):
        for operator, arg in ((monotone_envelope, grid), (spectrum_envelope, plateau_curve(1.0, 0.5))):
            message = outcome(operator, arg, growth)
            assert message == f"ValueError: growth must be nonnegative and finite, got {growth}"


def ref_commuting_deviation(grid, growth, u_min):
    """The one-growth composition: limit of the projection against projection of the limit."""
    envelope = TwoScaleGrid(grid.spec, ref_monotone_envelope(grid, growth))
    via_grid = scaling_limit(envelope, u_min)
    via_curve = spectrum_envelope(scaling_limit(grid, u_min), growth)
    gap = np.abs(via_grid.values - via_curve.values)
    k = int(np.argmax(gap))
    return float(gap[k]), float(via_grid.thetas[k])


@settings(max_examples=100, deadline=None)
@given(grids, st.lists(st.sampled_from(GROWTHS), min_size=1, max_size=5), st.floats(0.05, 0.95))
def test_several_growths_share_one_path_with_one_growth(params, growths, frac):
    grid = make_grid(params)
    u_min = frac * grid.spec.u_max
    envelopes = list(_monotone_envelopes(grid, growths))
    reports = commuting_deviation(grid, growths, u_min)
    assert len(envelopes) == len(reports) == len(growths)
    for growth, envelope, report in zip(growths, envelopes, reports):
        assert same_bits(envelope.values, monotone_envelope(grid, growth).values)
        assert same_bits(envelope.values, ref_monotone_envelope(grid, growth))
        assert_clean_grid(envelope)
        assert [report] == commuting_deviation(grid, [growth], u_min)
        assert (report.sup_deviation, report.witness_theta) == ref_commuting_deviation(grid, growth, u_min)
        assert report.window == (u_min, grid.spec.u_max)


def test_several_growths_share_one_path_on_the_criterion_3_draws():
    rng = np.random.default_rng(3)
    spec = GridSpec(64.0, 0.25)
    growths = (0.0, 0.3, 0.7, 1.0)
    for _ in range(3):
        psi = random_branching_grid(rng, spec, 1.0)
        got = [(r.sup_deviation, r.witness_theta) for r in commuting_deviation(psi, growths, 16.0)]
        assert got == [ref_commuting_deviation(psi, growth, 16.0) for growth in growths]


def test_envelopes_keep_no_table_once_yielded():
    grid = big_grids()[0]
    envelopes = _monotone_envelopes(grid, (0.0, 0.5, 1.0))
    first = next(envelopes)
    table = weakref.ref(first.values.base)
    del first
    second = next(envelopes)
    assert table() is None
    assert second.values.base is not None


# ---------------------------------------------------------------------------
# Cube addresses
# ---------------------------------------------------------------------------

def ref_tree_cells(splits, d, level):
    """Axis coordinates and cell corners of a tree level, one split bit and one cell at a time.

    A split at level k + 1 sets bit ``level - 1 - k`` of a coordinate freely;
    every other bit of it is 0.  The cells are the d-tuples of coordinates.
    """
    bits = [level - 1 - k for k in range(level) if splits[k]]
    choices = itertools.product((0, 1), repeat=len(bits))
    coords = sorted(sum(c << bit for c, bit in zip(choice, bits)) for choice in choices)
    cells = np.array(list(itertools.product(coords, repeat=d)), dtype=np.int64).reshape(-1, d)
    return np.array(coords, dtype=np.int64), cells


@st.composite
def sparse_masks(draw, dims, depth_max=62, cell_bits=12):
    """(d, splits): a mask of up to ``depth_max`` levels whose deepest level holds at most 2^cell_bits cells."""
    d = draw(st.sampled_from(dims))
    depth = draw(st.integers(0, depth_max))
    where = draw(st.lists(st.integers(0, max(depth - 1, 0)), max_size=cell_bits // d, unique=True)) if depth else []
    splits = np.zeros(depth, dtype=bool)
    splits[where] = True
    return d, splits


def assert_tree_matches_product_loop(d, splits):
    tree = DyadicTree(d, splits)
    for level in range(tree.depth + 1):
        coords, cells = ref_tree_cells(splits, d, level)
        assert np.array_equal(tree.levels[level], coords)
        assert np.array_equal(tree.cells_at_level(level), cells)


@settings(max_examples=200, deadline=None)
@given(sparse_masks([1, 2, 3], depth_max=20))
def test_cells_at_level_match_the_product_loop(case):
    assert_tree_matches_product_loop(*case)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cells_at_level_match_the_product_loop_at_every_level(d):
    # 62 levels, so the highest coordinate bit is used, with 12 // d splits drawn among them
    rng = np.random.default_rng(d)
    for _ in range(5):
        splits = np.zeros(62, dtype=bool)
        splits[rng.choice(62, size=12 // d, replace=False)] = True
        splits[0] = True
        assert_tree_matches_product_loop(d, splits)


@settings(max_examples=100, deadline=None)
@given(sparse_masks([4, 5, 7, 12, 13, 20, 31, 62]))
def test_cells_at_level_match_the_product_loop_in_high_dimension(case):
    assert_tree_matches_product_loop(*case)
