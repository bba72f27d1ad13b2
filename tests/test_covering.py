import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    GridSpec,
    PointSet,
    StepFunction,
    box_dims,
    cell_count,
    cone_extension,
    empirical_branching,
    local_covering,
    plateau_curve,
    spectrum_estimate,
    subdivision_tree,
    synthesize_set,
    average_profile,
)


def full_interval_tree(depth):
    return subdivision_tree(StepFunction(1.0, np.arange(depth + 1, dtype=float)), 1)


# ---------------------------------------------------------------------------
# cell_count / local_covering
# ---------------------------------------------------------------------------

def test_cell_count_examples():
    tree = full_interval_tree(8)
    assert cell_count(tree, 3) == 8
    assert cell_count(tree, 8) == 256
    point = PointSet(np.array([[0.3]]), 10)
    assert all(cell_count(point, u) == 1 for u in range(11))


def test_cell_count_monotone_in_level():
    spec = GridSpec(8.0, 0.5)
    comp = synthesize_set(cone_extension(plateau_curve(0.8, 0.5), spec), 1, 8)
    counts = [cell_count(comp, u) for u in range(9)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_point_set_rejects_points_outside_the_unit_cube():
    for bad in ([[1.125]], [[-0.5]], [[0.5, 1.0 + 1e-6]], [[np.nan]]):
        with pytest.raises(ValueError, match="unit cube"):
            PointSet(np.array(bad), 8)
    # float rounding slack at the faces is accepted and counted in the face cell
    edge = PointSet(np.array([[1.0 + 1e-12], [-1e-12]]), 4)
    assert edge.cells_at_level(4).ravel().tolist() == [0, 15]


def test_cell_count_out_of_range():
    with pytest.raises(ValueError):
        cell_count(full_interval_tree(4), 9)


def brute_local_covering(cells, u, v):
    # direct distance scan, d = 1
    h = 2.0**-u
    r = 2.0**-v
    best = 0
    for c in cells[:, 0]:
        x = c * h
        hit = np.count_nonzero((cells[:, 0] * h <= x + r) & ((cells[:, 0] + 1) * h >= x - r))
        best = max(best, hit)
    return best


def test_local_covering_diagonal_and_interval():
    tree = full_interval_tree(10)
    assert local_covering(tree, 6, 6) == 1
    for u, v in [(6, 3), (8, 2), (10, 5)]:
        count = local_covering(tree, u, v)
        assert abs(np.log2(count) - (u - v)) <= 2.0
        assert count == brute_local_covering(tree.cells_at_level(u), u, v)


def test_local_covering_monotone_in_u():
    spec = GridSpec(8.0, 0.5)
    comp = synthesize_set(cone_extension(plateau_curve(0.8, 0.5), spec), 1, 8)
    for v in (0, 2, 4):
        counts = [local_covering(comp, u, v) for u in range(v, 9)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_local_covering_random_sets_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pts = PointSet(rng.random((40, 1)), 8)
        u = int(rng.integers(2, 8))
        v = int(rng.integers(0, u))
        cells = pts.cells_at_level(u)
        assert local_covering(pts, u, v) == brute_local_covering(cells, u, v)


def test_local_covering_two_dimensional():
    pts = PointSet(np.array([[0.1, 0.1], [0.4, 0.4], [0.9, 0.9]]), 8)
    # from the middle cell's corner the radius-1 ball reaches all three cells;
    # from a corner cell the opposite corner sits beyond euclidean distance 1
    assert local_covering(pts, 4, 0) == 3
    assert local_covering(pts, 4, 4) == 1
    cells = pts.cells_at_level(4)
    from twoscale.covering import _max_ball_count

    # cells (1, 1), (6, 6), (14, 14) in units of 1/16: from corner (6, 6) the squared gaps
    # are 32 and 128, so radius 8 reaches two cells and radius 16 all three
    assert _max_ball_count(cells, 4).tolist() == [1, 1, 1, 2, 3]


def exact_ball_count(cells, u, v):
    """Direct O(n^2) ball test in Python integers, in units of 2^-u.

    The closed ball of radius 2^(u-v) around a cell's corner c meets the cell
    [k, k+1]^d when the nearest point of that cell lies within the radius.
    """
    r2 = 4 ** (u - v)
    rows = [[int(x) for x in row] for row in cells]
    best = 0
    for c in rows:
        hits = 0
        for k in rows:
            dist2 = sum((min(max(x, a), a + 1) - x) ** 2 for a, x in zip(k, c))
            hits += dist2 <= r2
        best = max(best, hits)
    return best


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 12), st.integers(1, 12), st.data())
def test_local_covering_matches_exact_ball_oracle(d, spread, u, data):
    # points on the level-``spread`` lattice, so small sets still cluster
    side = 1 << spread
    rows = data.draw(st.lists(st.lists(st.integers(0, side), min_size=d, max_size=d),
                              min_size=1, max_size=12))
    pts = PointSet(np.array(rows, dtype=float) / side, 12)
    cells = pts.cells_at_level(u)
    grid = empirical_branching(pts, GridSpec(float(u), 1.0)).grid
    for v in range(u):
        count = exact_ball_count(cells, u, v)
        assert local_covering(pts, u, v) == count
        assert grid.values[u, v] == np.log2(count)


# ---------------------------------------------------------------------------
# empirical_branching
# ---------------------------------------------------------------------------

def test_empirical_single_point_is_flat():
    cov = empirical_branching(PointSet(np.array([[0.5]]), 12), GridSpec(10.0, 0.5))
    assert np.max(cov.grid.values) <= 1.0
    assert cov.membership.passed


def test_empirical_interval_tracks_linear_grid():
    cov = empirical_branching(full_interval_tree(12), GridSpec(11.0, 0.25))
    target = np.maximum(
        cov.grid.spec.coords[:, None] - cov.grid.spec.coords[None, :], 0.0
    )
    assert np.max(np.abs(cov.grid.values - np.tril(target))) <= 3.0
    assert cov.membership.passed
    assert cov.metadata["depth_used"] == 12


def test_empirical_depth_guard():
    with pytest.raises(ValueError, match="depth"):
        empirical_branching(full_interval_tree(6), GridSpec(10.0, 0.5))


# ---------------------------------------------------------------------------
# box_dims / profiles
# ---------------------------------------------------------------------------

def test_box_dims_linear_and_zero():
    us = np.arange(1, 65, dtype=float)
    assert box_dims(us, 0.4 * us, (4.0, 64.0)) == (pytest.approx(0.4), pytest.approx(0.4))
    lo, hi = box_dims(us, np.zeros_like(us), (4.0, 64.0))
    assert lo == 0.0 and hi == 0.0


def test_box_dims_alternating_blocks():
    # slope 1 on [4^k, 2*4^k], slope 0 on [2*4^k, 4^(k+1)]
    bps = [0.0, 1.0]
    slopes = [0.0]
    for k in range(7):
        bps.extend([2.0 * 4.0**k, 4.0 ** (k + 1)])
        slopes.extend([1.0, 0.0])
    from twoscale import PiecewiseLinear

    g = PiecewiseLinear(np.array(bps), np.array(slopes))
    lo, hi = box_dims(g.breakpoints, g.knot_values, (256.0, 16384.0))
    assert lo == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert hi == pytest.approx(2.0 / 3.0, abs=2e-3)


def test_box_dims_empty_window():
    with pytest.raises(ValueError):
        box_dims(np.array([1.0, 2.0]), np.array([1.0, 2.0]), (5.0, 6.0))
    with pytest.raises(ValueError):
        box_dims(np.array([1.0]), np.array([1.0]), (3.0, 2.0))


def test_average_profile_matches_cell_counts():
    tree = full_interval_tree(6)
    us, gs = average_profile(tree)
    assert np.allclose(gs, us)


# ---------------------------------------------------------------------------
# spectrum_estimate
# ---------------------------------------------------------------------------

def test_spectrum_estimate_point_is_tiny():
    cov = empirical_branching(PointSet(np.array([[0.25]]), 16), GridSpec(15.0, 0.25))
    est = spectrum_estimate(cov, 8.0)
    assert np.max(est.values) <= 0.1


def test_spectrum_estimate_interval_near_one_on_resolved_thetas():
    cov = empirical_branching(full_interval_tree(17), GridSpec(16.0, 0.25))
    est = spectrum_estimate(cov, 12.0)
    resolved = est.thetas <= 0.25
    assert np.max(np.abs(est.values[resolved] - 1.0)) <= 0.15
