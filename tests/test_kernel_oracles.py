"""Grid and curve kernels against their per-index loop formulations.

Each ``ref_*`` function below is the straightforward loop (or per-call
index-array) form of a kernel in ``grids.py`` or ``operators.py``.  The
kernels must agree with them exactly: equal values including the sign of
zero, equal error messages, and equal ``repr`` of validation reports, which
also pins the order of the witnesses kept under ``MAX_WITNESSES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    GridSpec,
    SpectrumGrid,
    TwoScaleGrid,
    cone_extension,
    lipschitz_approximation,
    monotone_envelope,
    scaling_limit,
    validate_branching,
    validate_limit_curve,
)
from twoscale.families import (
    random_branching_grid,
    random_limit_curve,
    random_monotone_limit_curve,
    random_perturbed_branching,
)
from twoscale.grids import (
    EXACT_TOL,
    MAX_WITNESSES,
    SUBADD_EXHAUSTIVE_LIMIT,
    ValidationReport,
    Violation,
)

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
            self.violations.append(Violation(prop, witness_fn(*w), float(np.asarray(magnitudes)[mask][flat])))

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

    assert n <= SUBADD_EXHAUSTIVE_LIMIT
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
        got = outcome(curve.evaluate, q)
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
