import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import split_masks
from twoscale import (
    CompositeDyadicSet,
    DyadicTree,
    GridSpec,
    PointSet,
    assouad_spectrum,
    box_dims,
    cone_extension,
    empirical_branching,
    plateau_curve,
    scaling_limit,
    synthesize_set,
)
from twoscale import covering
from twoscale.grids import EXACT_TOL


def full_interval_tree(depth):
    return DyadicTree(1, np.ones(depth, dtype=bool))


def cell_count(obj, level):
    """Number of level-``level`` dyadic cells meeting the set."""
    return obj.cells_at_level(level).shape[0]


def local_covering(obj, u, v):
    """Worst-case number of level-u cells in a 2^-v ball around a cell corner, pinned to 1 at u = v."""
    return 1 if u == v else int(covering._max_ball_count(obj.cells_at_level(u), u)[u - v])


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


def test_point_set_rejects_cells_of_another_shape():
    with pytest.raises(ValueError, match="one row per point"):
        PointSet(np.array([[0.25], [0.5]]), 4, cells=np.array([[4]]))


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
    # cells (1, 1), (6, 6), (14, 14) in units of 1/16: from corner (6, 6) the squared gaps
    # are 32 and 128, so radius 8 reaches two cells and radius 16 all three
    assert covering._max_ball_count(cells, 4).tolist() == [1, 1, 1, 2, 3]


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


def probe_gaps(d, level):
    """Per-axis gaps whose squared sums sit on both sides of each radius bin 4^s.

    4^s - 1 is 7 mod 8 for s >= 2, so no two or three squares sum to it
    (Legendre); the largest sum below 4^s along the line of first gap 2^s - 1
    stands in for it.  Odd powers 2 * 4^s probe the other exponent parity.
    """
    pad = [0] * (d - 2)
    for s in range(level):
        side = 1 << s
        below = math.isqrt(2 * side - 2)
        yield [side - 1, below] + pad
        yield [side, 0] + pad
        yield [side, 1] + pad
        yield [side, side] + pad
        if d > 2:
            yield [side, side, 1] + pad[1:]


# the d >= 2 ball count picks its binning by the squared span sum: float32
# bits up to 2^26 - 2, float64 bits up to 2^54 - 1, then a sorted search; and
# it switches from int32 to int64 gaps where that sum reaches 2^31.  Opposite
# corners of the cube cross the float bounds after level 12 and after 26 in
# d = 2 and 3, and 2^31 after level 15 in d = 2 and 14 in d = 3.  The probes
# reach D2 = 4^(level - 1), which float32 would bin wrong from level 14 on and
# float64 from 28 on.  The last level of each dimension is the deepest exact one.
@pytest.mark.parametrize("d, level", [
    (2, 12), (2, 13), (2, 14), (2, 15), (2, 16), (2, 26), (2, 27), (2, 28), (2, 31),
    (3, 12), (3, 13), (3, 14), (3, 15), (3, 16), (3, 26), (3, 27), (3, 28), (3, 30),
])
def test_ball_count_matches_exact_ball_oracle_at_the_branch_boundaries(d, level):
    top = (1 << level) - 1
    for gaps in probe_gaps(d, level):
        # a center at the top corner cell sees the cell of these gaps nearer than
        # that cell's corner sees the top cell, so the pair's bin decides the count
        cells = np.array([[top - 1 - g for g in gaps], [top] * d], dtype=np.int64)
        assert sum(g * g for g in gaps) <= d * top**2
        counts = covering._max_ball_count(cells, level)
        assert counts.tolist() == [exact_ball_count(cells, level, level - s) for s in range(level + 1)]
    # opposite corners of the cube, the largest gaps: sqrt(d) (2^level - 2) is
    # beyond even the unit radius 2^level, so no ball holds both
    corners = np.array([[0] * d, [top] * d], dtype=np.int64)
    counts = covering._max_ball_count(corners, level)
    assert counts.tolist() == [exact_ball_count(corners, level, level - s) for s in range(level + 1)]
    assert counts.tolist() == [1] * (level + 1)


FLOAT32_BOUND, FLOAT64_BOUND = (1 << 26) - 2, (1 << 54) - 1


@pytest.mark.parametrize("bound", [FLOAT32_BOUND, FLOAT64_BOUND, (1 << 31) - 1])
def test_radius_bins_match_bit_length_around_each_binning_bound(bound):
    # every D2 in a window around the bound, binned with the reach at and past it:
    # smallest s >= 0 with D2 <= 4^s is ceil(bit_length(max(D2 - 1, 0)) / 2).  The window
    # holds the first D2 that each float would bin wrong, 2^26 - 1 and 2^54, so
    # neither float bound can be raised
    for reach in (bound, bound + (1 << 12)):
        dtype = np.int32 if reach < 1 << 31 else np.int64
        d2 = np.arange(bound - (1 << 12), reach + 1, dtype=np.int64)
        want = [(max(int(v) - 1, 0).bit_length() + 1) // 2 for v in d2]
        assert covering._radius_bins(d2.astype(dtype), reach).tolist() == want


@pytest.mark.parametrize("reach", [1 << 14, FLOAT64_BOUND, FLOAT64_BOUND + 1])
def test_radius_bins_match_bit_length_on_the_smallest_gaps(reach):
    d2 = np.arange(1 << 14, dtype=np.int32 if reach < 1 << 31 else np.int64)
    want = [(max(int(v) - 1, 0).bit_length() + 1) // 2 for v in d2]
    assert covering._radius_bins(d2, reach).tolist() == want


@pytest.mark.parametrize("d", [2, 3])
def test_ball_count_of_a_composite_set_matches_exact_ball_oracle(d):
    # the parts sit at 4 * 2^-b along axis 0, so the cells leave the cube
    comp = synthesize_set(cone_extension(plateau_curve(0.8, 0.5), GridSpec(8.0, 1.0)), d, 8)
    for level in range(9):
        cells = comp.cells_at_level(level)
        counts = covering._max_ball_count(cells, level)
        assert counts.tolist() == [exact_ball_count(cells, level, level - s) for s in range(level + 1)]
    grid = empirical_branching(comp, GridSpec(8.0, 1.0)).grid
    assert grid.values[8, 0] == np.log2(exact_ball_count(comp.cells_at_level(8), 8, 0))


@pytest.mark.parametrize("a, b", [(46340, 296), (46340, 297), (45000, 45000)])
def test_ball_count_is_exact_on_both_sides_of_a_squared_span_sum_of_2_31(a, b):
    # 46340^2 + 296^2 < 2^31 <= 46340^2 + 297^2; 2 * 45000^2 lies nearer 2^32, where
    # int32 would wrap to a smaller bin.  The cells sit off the cube along axis 0.
    level = 16
    cells = np.array([[0, 0], [a, 0], [0, b], [a, b], [a // 2, b // 2]], dtype=np.int64)
    cells[:, 0] += 4 << level
    counts = covering._max_ball_count(cells, level)
    assert counts.tolist() == [exact_ball_count(cells, level, level - s) for s in range(level + 1)]


def test_ball_count_rejects_cells_whose_squared_gaps_wrap_int64():
    far = np.array([[0, 0], [5 << 30, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="wrap int64 at level 30"):
        covering._max_ball_count(far, 30)


# ---------------------------------------------------------------------------
# Point-sample cells and counts against per-level flooring
# ---------------------------------------------------------------------------

def ref_occupied_cells(points, level):
    """Distinct level-``level`` cells of a point sample, floored directly at that level."""
    cells = np.floor(points * np.exp2(level)).astype(np.int64)
    return np.unique(np.clip(cells, 0, (1 << level) - 1), axis=0)


def ref_branching(points, top):
    """Ball-count table, cells per level, centers measured and center stride, counted level by level from 0."""
    table = np.zeros((top + 1, top + 1))
    counts = []
    for u in range(top + 1):
        cells = ref_occupied_cells(points, u)
        counts.append(cells.shape[0])
        table[u, :u] = np.log2(covering._max_ball_count(cells, u)[u:0:-1])
    strides = [-(-c // covering.MAX_CENTERS) for c in counts]
    centers = sum(len(range(0, c, s)) for c, s in zip(counts, strides))
    return table, counts, centers, max(strides)


@settings(max_examples=100, deadline=None)
@given(split_masks(dims=(1, 2, 3)), st.data())
def test_every_level_of_trees_and_composites_is_the_parents_of_the_next(case, data):
    # every cube of a subdivision tree has a child, so one shift gives each coarser level
    d, depth, parts = case
    comp = CompositeDyadicSet(d, depth, [(b, DyadicTree(d, splits)) for b, splits in parts])
    top = data.draw(st.integers(0, depth))
    for obj in [comp] + [tree for _, tree in comp.parts]:
        walked = list(covering._cells_by_level(obj, top))[::-1]
        assert len(walked) == top + 1
        assert all(np.array_equal(cells, obj.cells_at_level(u)) for u, cells in enumerate(walked))


def assert_matches_per_level_flooring(pts, top):
    for u in range(min(pts.depth, covering.MAX_CELL_LEVEL) + 1):
        got = pts.cells_at_level(u)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_occupied_cells(pts.points, u))
    table, counts, centers, stride = ref_branching(pts.points, top)
    walked = list(covering._cells_by_level(pts, top))[::-1]
    assert all(np.array_equal(a, ref_occupied_cells(pts.points, u)) for u, a in enumerate(walked))
    cov = empirical_branching(pts, GridSpec(float(top), 1.0))
    assert np.array_equal(cov.grid.values, table)
    assert cov.metadata["cells_per_level"] == counts
    assert cov.metadata["centers_sampled"] == centers
    assert cov.metadata["center_stride"] == stride


# the faces, the rounding slack just outside them, dyadic and arbitrary floats
SAMPLE_COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, -EXACT_TOL, -EXACT_TOL / 3, 1.0 + EXACT_TOL, 1.0 + EXACT_TOL / 3]),
    st.integers(0, 1 << 20).map(lambda k: k / (1 << 20)),
    st.floats(0.0, 1.0),
)
# deepest level with exact d >= 2 ball counts: d (2^u - 1)^2 must fit in int64
DEEPEST_BALL_LEVEL = {1: 62, 2: 31, 3: 30}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_point_cells_and_counts_match_per_level_flooring(d, data):
    rows = data.draw(st.lists(st.lists(SAMPLE_COORDS, min_size=d, max_size=d), min_size=1, max_size=12))
    top = data.draw(st.integers(1, DEEPEST_BALL_LEVEL[d]))
    depth = data.draw(st.integers(top, 70))
    assert_matches_per_level_flooring(PointSet(np.array(rows), depth), top)


@pytest.mark.parametrize("d, top", [(1, 9), (2, 8), (3, 6)])
def test_strided_centers_come_in_lexicographic_order(monkeypatch, d, top):
    # with at most 3 centers per level, most levels are strided, and the counts
    # depend on which cells the stride keeps
    monkeypatch.setattr(covering, "MAX_CENTERS", 3)
    rng = np.random.default_rng(40 + d)
    pts = PointSet(np.vstack([rng.random((30, d)) ** 3, np.eye(d)]), 12)
    assert_matches_per_level_flooring(pts, top)
    assert empirical_branching(pts, GridSpec(float(top), 1.0)).metadata["center_stride"] > 1


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


def test_cells_per_level_matches_cell_counts():
    tree = full_interval_tree(6)
    counts = empirical_branching(tree, GridSpec(6.0, 1.0)).metadata["cells_per_level"]
    assert counts == [cell_count(tree, u) for u in range(7)] == [2**u for u in range(7)]


# ---------------------------------------------------------------------------
# spectrum estimate: the Assouad spectrum of the windowed scaling limit
# ---------------------------------------------------------------------------

def test_spectrum_estimate_point_is_tiny():
    cov = empirical_branching(PointSet(np.array([[0.25]]), 16), GridSpec(15.0, 0.25))
    est = assouad_spectrum(scaling_limit(cov.grid, 8.0))
    assert np.max(est.values) <= 0.1


def test_spectrum_estimate_interval_near_one_on_resolved_thetas():
    cov = empirical_branching(full_interval_tree(17), GridSpec(16.0, 0.25))
    est = assouad_spectrum(scaling_limit(cov.grid, 12.0))
    resolved = est.thetas <= 0.25
    assert np.max(np.abs(est.values[resolved] - 1.0)) <= 0.15
