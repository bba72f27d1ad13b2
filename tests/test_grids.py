import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import grid_from_function, values_close
from twoscale import (
    GridSpec,
    PiecewiseLinear,
    TwoScaleGrid,
    excess_bound,
    lipschitz_approximation,
    pointwise_max,
    profile_extension,
    validate_branching,
)
from twoscale.grids import _snap_dust, unique_rows


def linear_grid(spec, slope=1.0):
    return grid_from_function(spec, lambda u, v: slope * (u - v))


# ---------------------------------------------------------------------------
# GridSpec / TwoScaleGrid basics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
def test_spec_refuses_steps_that_are_not_positive_and_finite(step):
    with pytest.raises(ValueError, match="positive and finite"):
        GridSpec(14.0, step)


def test_spec_requires_divisible_step():
    GridSpec(4.0, 0.25)
    with pytest.raises(ValueError):
        GridSpec(4.0, 0.3)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 0.25)


def test_grid_rejects_negative_values():
    spec = GridSpec(2.0, 1.0)
    vals = np.zeros((3, 3))
    vals[2, 1] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        TwoScaleGrid(spec, vals)


def test_grid_rejects_nonzero_diagonal():
    spec = GridSpec(2.0, 1.0)
    vals = np.zeros((3, 3))
    vals[1, 1] = 0.2
    with pytest.raises(ValueError, match="diagonal"):
        TwoScaleGrid(spec, vals)


def test_evaluate_reproduces_linear_functions():
    g = linear_grid(GridSpec(8.0, 0.25))
    assert g.evaluate(2.3, 1.1) == pytest.approx(1.2, abs=1e-12)
    assert g.evaluate(7.9, 0.05) == pytest.approx(7.85, abs=1e-12)


def test_evaluate_diagonal_is_exactly_zero():
    rng = np.random.default_rng(0)
    spec = GridSpec(4.0, 0.5)
    vals = np.tril(rng.uniform(0.0, 3.0, (spec.n + 1, spec.n + 1)), -1)
    g = TwoScaleGrid(spec, vals)
    for u in [0.0, 0.3, 1.7, 4.0]:
        assert g.evaluate(u, u) == 0.0


def test_evaluate_exact_at_lattice_points():
    rng = np.random.default_rng(1)
    spec = GridSpec(3.0, 0.5)
    vals = np.tril(rng.uniform(0.0, 2.0, (spec.n + 1, spec.n + 1)), -1)
    g = TwoScaleGrid(spec, vals)
    for i in range(spec.n + 1):
        for j in range(i + 1):
            assert g.evaluate(i * 0.5, j * 0.5) == vals[i, j]


def test_evaluate_cell_center_averages_diagonal_corners():
    rng = np.random.default_rng(2)
    spec = GridSpec(3.0, 1.0)
    vals = np.tril(rng.uniform(0.0, 2.0, (4, 4)), -1)
    g = TwoScaleGrid(spec, vals)
    # center of the cell [(2,0), (3,1)] lies on the split line
    expected = 0.5 * (vals[2, 0] + vals[3, 1])
    assert g.evaluate(2.5, 0.5) == pytest.approx(expected, abs=1e-12)


def test_evaluate_domain_errors():
    g = linear_grid(GridSpec(2.0, 1.0))
    with pytest.raises(ValueError):
        g.evaluate(1.0, 1.5)
    with pytest.raises(ValueError):
        g.evaluate(2.5, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(0.0, 1.0), st.floats(0.1, 2.0))
@example(u=1e-05, frac=1e-05, slope=1.0)  # v is 4e-10 steps, which snaps to 0
def test_evaluate_affine_reproduction_property(u, frac, slope):
    v = u * frac
    g = linear_grid(GridSpec(4.0, 0.25), slope)
    # affine data are reproduced at the query with its float dust snapped away
    su, sv = 0.25 * _snap_dust(np.array([u, v]) / 0.25)
    assert g.evaluate(u, v) == pytest.approx(slope * (su - sv), abs=1e-10)


# ---------------------------------------------------------------------------
# validate_branching
# ---------------------------------------------------------------------------

def test_validate_accepts_the_canonical_grid():
    assert validate_branching(linear_grid(GridSpec(4.0, 0.5)), 1.0, tol=0.0).passed


def test_validate_flags_superlinear_growth():
    spec = GridSpec(4.0, 1.0)
    g = grid_from_function(spec, lambda u, v: (u - v) ** 2)
    report = validate_branching(g, 1.0, tol=1e-9)
    assert not report.passed
    lip = [v for v in report.violations if v.prop == "lipschitz_bound"]
    assert lip and lip[0].witness == (4.0, 0.0) and lip[0].magnitude == pytest.approx(12.0)
    assert any(v.prop == "subadditivity" for v in report.violations)


def test_validate_flags_bad_monotonicity():
    spec = GridSpec(3.0, 1.0)
    vals = np.tril(np.ones((4, 4)), -1)
    vals[3, 0] = 0.1  # smaller than vals[2, 0]: not increasing in u
    report = validate_branching(TwoScaleGrid(spec, vals), np.inf, tol=1e-9)
    assert any(v.prop == "increasing_u" for v in report.violations)


# ---------------------------------------------------------------------------
# pointwise_max
# ---------------------------------------------------------------------------

def test_pointwise_max_singleton_and_domination():
    spec = GridSpec(4.0, 0.25)
    lin = linear_grid(spec)
    capped = grid_from_function(spec, lambda u, v: np.minimum(u, 1) - np.minimum(v, 1))
    assert values_close(pointwise_max([lin]), lin, tol=0.0)
    assert values_close(pointwise_max([lin, capped]), lin, tol=0.0)


def test_pointwise_max_preserves_validation():
    spec = GridSpec(4.0, 0.25)
    a = linear_grid(spec, 0.7)
    b = grid_from_function(spec, lambda u, v: np.minimum(u, 2) - np.minimum(v, 2))
    assert validate_branching(a, 1.0, 1e-9).passed
    assert validate_branching(b, 1.0, 1e-9).passed
    assert validate_branching(pointwise_max([a, b]), 1.0, 1e-9).passed


def test_pointwise_max_argument_errors():
    with pytest.raises(ValueError):
        pointwise_max([])
    with pytest.raises(ValueError):
        pointwise_max([linear_grid(GridSpec(2.0, 1.0)), linear_grid(GridSpec(2.0, 0.5))])


# ---------------------------------------------------------------------------
# profile_extension
# ---------------------------------------------------------------------------

def test_profile_extension_examples():
    spec = GridSpec(4.0, 0.5)
    g1 = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0]))  # min(u, 1)
    xi1 = profile_extension(g1, 0.0, spec)
    assert xi1.evaluate(3.0, 2.0) == 0.0

    g2 = PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 0.5]))  # 0.5*max(u-2, 0)
    xi2 = profile_extension(g2, 2.0, spec)
    assert xi2.evaluate(4.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diagonal(xi2.values) == 0.0)


def test_profile_extension_exact_subadditivity():
    spec = GridSpec(3.0, 0.5)
    g = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.8, 0.2, 0.5]))
    xi = profile_extension(g, 0.0, spec)
    V = xi.values
    n = spec.n
    for i in range(n + 1):
        for k in range(i + 1):
            for j in range(k + 1):
                assert V[i, j] == pytest.approx(V[i, k] + V[k, j], abs=1e-12)


def test_profile_extension_rejects_decreasing_profile():
    g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([-0.5]))
    with pytest.raises(ValueError):
        profile_extension(g, 0.0, GridSpec(2.0, 1.0))


def test_profile_extension_minimality_against_random_majorants():
    # whenever a branching grid's anchored-column differences dominate a
    # profile's differences, the grid dominates the profile's extension
    from twoscale.families import random_branching_grid

    rng = np.random.default_rng(3)
    spec = GridSpec(8.0, 0.5)
    ii, jj = np.tril_indices(spec.n + 1)
    for _ in range(200):
        beta = random_branching_grid(rng, spec, 1.0)
        b_idx = int(rng.integers(0, spec.n))
        anchor = b_idx * spec.step
        scale = rng.uniform(0.1, 1.0)
        g = PiecewiseLinear.from_samples(spec.coords, scale * beta.values[:, b_idx])
        xi = profile_extension(g, anchor, spec)
        assert np.all(beta.values[ii, jj] >= xi.values[ii, jj] - 1e-9)


# ---------------------------------------------------------------------------
# anchored minorants, the running minimum inside lipschitz_approximation
# ---------------------------------------------------------------------------

def brute_minorant(h, coords, lipschitz, anchor):
    out = np.zeros_like(h)
    for a, ua in enumerate(coords):
        if ua <= anchor:
            continue
        cands = [lipschitz * (ua - anchor)]
        for ap, uap in enumerate(coords):
            if anchor < uap <= ua:
                cands.append(h[ap] + lipschitz * (ua - uap))
        out[a] = max(0.0, min(cands))
    return out


def minorant_column(h, spec, lipschitz, anchor):
    """Column ``anchor`` of the approximation of the additive grid H(u) - H(v),
    H = h beyond the anchor and 0 up to it.  Columns 0..anchor all equal H, and
    every later anchor's minorant lies below this one's, so the column is the
    largest increasing lipschitz-bounded minorant of h vanishing on [0, anchor]."""
    H = np.where(spec.coords > anchor, h, 0.0)
    grid = TwoScaleGrid(spec, np.tril(H[:, None] - H[None, :]))
    return lipschitz_approximation(grid, lipschitz).values[:, spec.index_of(anchor, "anchor")]


def test_minorant_example_and_oracle():
    spec = GridSpec(4.0, 0.25)
    coords = spec.coords
    h = np.minimum(2 * coords, 1.0)
    g = minorant_column(h, spec, 1.0, 0.0)
    expected = np.minimum(coords, 1.0)
    assert np.allclose(g, expected, atol=1e-12)
    assert np.allclose(g, brute_minorant(h, coords, 1.0, 0.0), atol=1e-12)


def test_minorant_identity_and_zero():
    spec = GridSpec(4.0, 0.5)
    coords = spec.coords
    h = 0.6 * coords  # already increasing and 1-lipschitz
    assert np.allclose(minorant_column(h, spec, 1.0, 0.0), h, atol=1e-12)
    z = minorant_column(np.zeros_like(coords), spec, 1.0, 0.0)
    assert np.all(z == 0.0)


def test_minorant_random_against_oracle():
    rng = np.random.default_rng(4)
    spec = GridSpec(3.0, 0.25)
    coords = spec.coords
    for _ in range(25):
        h = np.maximum.accumulate(rng.uniform(0.0, 3.0, coords.size))
        lip = rng.uniform(0.2, 2.0)
        anchor = float(rng.integers(0, spec.n)) * spec.step
        h = np.where(coords >= anchor, h, 0.0)
        g = minorant_column(h, spec, lip, anchor)
        assert np.allclose(g, brute_minorant(h, coords, lip, anchor), atol=1e-10)


def test_minorant_rejects_decreasing_samples():
    spec = GridSpec(2.0, 1.0)
    falls = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="increasing_u"):
        lipschitz_approximation(TwoScaleGrid(spec, falls), 1.0)


# ---------------------------------------------------------------------------
# lipschitz_approximation
# ---------------------------------------------------------------------------

def test_approximation_capped_slope_example():
    spec = GridSpec(16.0, 0.25)
    beta = grid_from_function(spec, lambda u, v: 1.2 * np.minimum(u - v, 5.0))
    psi = lipschitz_approximation(beta, 1.0)
    coords = spec.coords
    assert np.allclose(psi.values[:, 0], np.minimum(coords, 6.0), atol=1e-9)
    assert validate_branching(psi, 1.0, tol=1e-9).passed
    eta = excess_bound(beta, 1.0)
    assert np.all(np.abs(psi.values - beta.values).max(axis=1) <= eta + 1e-9)


def test_approximation_fixes_members_and_zero():
    spec = GridSpec(8.0, 0.5)
    member = grid_from_function(spec, lambda u, v: 0.8 * (u - v))
    assert values_close(lipschitz_approximation(member, 1.0), member, tol=1e-9)
    zero = TwoScaleGrid(spec, np.zeros((spec.n + 1, spec.n + 1)))
    assert values_close(lipschitz_approximation(zero, 1.0), zero, tol=0.0)


def test_approximation_rejects_non_branching_input():
    spec = GridSpec(4.0, 1.0)
    bad = grid_from_function(spec, lambda u, v: (u - v) ** 2)
    with pytest.raises(ValueError, match="branching"):
        lipschitz_approximation(bad, 1.0)


def test_excess_bound_is_monotone_and_tight():
    spec = GridSpec(8.0, 0.5)
    beta = grid_from_function(spec, lambda u, v: 1.5 * np.minimum(u - v, 2.0))
    eta = excess_bound(beta, 1.0)
    assert np.all(np.diff(eta) >= 0.0)
    assert eta[-1] == pytest.approx(1.0)  # max excess 1.5*2 - 2


# ---------------------------------------------------------------------------
# row deduplication
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.int64, np.float64]), st.integers(1, 3), st.integers(0, 40),
       st.integers(0, 2**16))
def test_unique_rows_matches_numpy_unique(dtype, d, n, seed):
    rng = np.random.default_rng(seed)
    # few distinct values per column, so duplicates and ties on leading columns are common
    a = rng.integers(-3, 4, size=(n, d)).astype(dtype)
    if dtype is np.float64:
        a = a * 0.1 + rng.choice([0.0, 1e-17, 0.3], size=(n, d))
    a = np.vstack([a, a[: n // 2]])
    expected = np.unique(a, axis=0)
    got = unique_rows(a)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("widths", [(31, 31), (31, 32), (32, 32), (20, 21, 22), (1, 62)])
def test_unique_rows_of_nonnegative_columns_near_64_bits(widths):
    # columns whose bit widths sum to 62, 63 and 64: packed into one key only below 64
    rng = np.random.default_rng(sum(widths))
    cols = [rng.integers(0, 1 << w, size=500, dtype=np.int64) for w in widths]
    a = np.column_stack(cols)
    a[0] = [(1 << w) - 1 for w in widths]  # each column reaches its full width
    a[1] = 0
    a = np.vstack([a, a[::3]])
    a[-7:, 0] = a[0, 0]  # ties on the leading column
    expected = np.unique(a, axis=0)
    got = unique_rows(a)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_unique_rows_of_sorted_one_column_cells():
    rng = np.random.default_rng(7)
    cells = np.sort(rng.integers(-(1 << 40), 1 << 40, size=40_000) >> 28)[:, None]
    assert cells.shape == (40_000, 1) and np.unique(cells[:, 0]).size < 40_000
    expected = np.unique(cells, axis=0)
    got = unique_rows(cells)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
