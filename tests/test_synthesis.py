from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    grid_from_function,
    offset_profile,
    outcome,
    reference_composite_cells,
    reference_offset_steps,
    reference_tree_cells,
    split_masks,
)
from twoscale import (
    CapExceeded,
    DyadicTree,
    GridSpec,
    PiecewiseLinear,
    TwoScaleGrid,
    cone_extension,
    export_points,
    plateau_curve,
    subdivision_tree,
    synthesis,
    synthesize_set,
)
from twoscale.grids import unique_rows
from twoscale.synthesis import CompositeDyadicSet


def constant_slope(slope):
    return PiecewiseLinear(np.array([0.0]), np.array([slope]))


def tree_eta(tree):
    """The step function eta of a tree: d times the number of splits above each level."""
    return tree.dimension * np.concatenate([[0.0], np.cumsum(tree.splits)])


# ---------------------------------------------------------------------------
# subdivision_tree
# ---------------------------------------------------------------------------

def test_quantizer_worked_example():
    tree = subdivision_tree(constant_slope(0.7), 1, 5)
    assert list(tree_eta(tree)) == [0.0, 0.0, 1.0, 2.0, 2.0, 3.0]


def test_quantizer_degenerate_profiles():
    assert not subdivision_tree(constant_slope(0.0), 1, 6).splits.any()
    # a profile that moves a full step of d at every level splits every level
    tree = subdivision_tree(constant_slope(2.0), 2, 6)
    assert tree.splits.all() and np.array_equal(tree_eta(tree), 2.0 * np.arange(7))


def test_quantizer_rejects_decreasing():
    bad = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, -0.2]))
    with pytest.raises(ValueError, match="^profile must be increasing$"):
        subdivision_tree(bad, 1, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quantizer_refuses_a_profile_faster_than_the_dimension(d):
    with pytest.raises(ValueError, match="^quantizer bracket failed: profile moves faster than step_size$"):
        subdivision_tree(constant_slope(2.0 * d), d, 4)
    assert subdivision_tree(constant_slope(float(d)), d, 4).splits.all()


@pytest.mark.parametrize("depth", [-1, -5])
def test_subdivision_tree_refuses_a_negative_depth(depth):
    # a negative depth would quantize no level and pass as a tree of depth 0
    with pytest.raises(ValueError, match=rf"^depth must be nonnegative, got {depth}$"):
        subdivision_tree(constant_slope(0.0), 1, depth)
    assert subdivision_tree(constant_slope(0.0), 1, 0).depth == 0


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.0, True, np.float64(1.0)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_tree_builder_refuses_a_dimension_that_is_not_a_positive_integer(bad, d):
    # a float or a bool used to pass the check and fail late, inside numpy, at a cell table
    grid = cone_extension(plateau_curve(0.5 * d, 0.3), GridSpec(4.0))
    message = rf"^dimension must be a positive integer, got {bad}$"
    for build in (lambda: DyadicTree(bad, [True, False]), lambda: subdivision_tree(constant_slope(0.5), bad, 4),
                  lambda: synthesize_set(grid, bad, 4)):
        with pytest.raises(ValueError, match=message):
            build()
    # numpy integers are integers
    assert DyadicTree(np.int64(d), [True, False]).cells_at_level(1).shape == (2**d, d)
    assert subdivision_tree(constant_slope(0.5 * d), np.int32(d), 4).cells_at_level(2).shape[1] == d
    assert synthesize_set(grid, np.int64(d), 4).cells_at_level(2).shape[1] == d


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12), st.integers(1, 3))
def test_quantizer_bracket_property(slopes, d):
    profile = PiecewiseLinear(np.arange(len(slopes) + 1, dtype=float), d * np.array(slopes + [0.0]))
    depth = len(slopes) + 2
    tree = subdivision_tree(profile, d, depth)
    eta = tree_eta(tree)
    g = profile.evaluate(np.arange(depth + 1, dtype=float))
    assert tree.depth == depth
    assert np.all(eta <= g + 1e-9)
    assert np.all(eta > g - d - 1e-9)
    # the level-n cube count is exactly 2^eta(n)
    for n in range(depth + 1):
        assert tree.cells_at_level(n).shape[0] == 2 ** int(eta[n])


# ---------------------------------------------------------------------------
# DyadicTree
# ---------------------------------------------------------------------------

def test_full_binary_tree_counts():
    tree = DyadicTree(1, np.ones(6, dtype=bool))
    for n in range(7):
        assert tree.levels[n].size == 2**n


def test_chain_tree_is_single_point():
    tree = DyadicTree(1, np.zeros(8, dtype=bool))
    assert all(tree.levels[n].size == 1 for n in range(9))
    assert tree.cells_at_level(8).tolist() == [[0]]


def test_tree_counts_match_step_function_exactly():
    rng = np.random.default_rng(6)
    for d in (1, 2):
        incs = rng.random(10) < 0.6
        tree = DyadicTree(d, incs)
        eta = tree_eta(tree)
        for n in range(11):
            assert tree.cells_at_level(n).shape[0] == 2 ** int(eta[n])
            # one axis coordinate per split above level n
            assert tree.levels[n].size == 2 ** int(eta[n] / d)


def test_prefix_count_inside_coarse_cube():
    tree = DyadicTree(1, [True, False, True, True])
    eta = tree_eta(tree)
    # level-3 cubes inside one fixed level-1 cube number 2^(eta(3)-eta(1))
    prefix = tree.levels[1][0]
    inside = np.sum(tree.levels[3] >> 2 == prefix)
    assert inside == 2 ** int(eta[3] - eta[1])


def test_tree_depth_is_bounded_where_its_coordinates_stay_64_bit():
    assert DyadicTree(3, np.zeros(62, dtype=bool)).depth == 62
    with pytest.raises(ValueError, match="^splits must hold one flag per level, at most 62: "):
        DyadicTree(3, np.zeros(63, dtype=bool))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("splits", [True, [[True, False]], np.zeros((3, 2), dtype=bool), np.ones(63, dtype=bool)],
                         ids=["scalar", "row", "table", "too-deep"])
def test_tree_refuses_splits_that_are_not_one_flag_per_level(d, splits):
    with pytest.raises(ValueError, match="^splits must hold one flag per level, at most 62: "):
        DyadicTree(d, splits)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tree_mask_is_read_only_and_its_own(d):
    mask = np.array([True, False, True, True])
    tree = DyadicTree(d, mask)
    # the levels were grown from the mask, so neither the caller's array nor the tree's may move them
    mask[1] = True
    assert tree.levels[2].tolist() == [0, 2] and not tree.splits[1]
    with pytest.raises(ValueError):
        tree.splits[1] = True


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("where", ["first", "last"])
def test_composite_names_the_part_that_splits_above_its_offset(d, b, where):
    splits = np.zeros(6, dtype=bool)
    splits[0 if where == "first" else b - 1] = True
    with pytest.raises(ValueError, match=rf"^part {b} must lie in \[0, 2\^-{b}\]\^d$"):
        CompositeDyadicSet(d, 6, [(b, DyadicTree(d, splits))])
    # a later part's defect is not the one named
    later = np.roll(splits, 1)
    with pytest.raises(ValueError, match=rf"^part {b} must"):
        CompositeDyadicSet(d, 6, [(b, DyadicTree(d, splits)), (b + 1, DyadicTree(d, later))])
    # the same split at level b keeps the part inside [0, 2^-b]^d
    inside = np.roll(splits, b - int(np.flatnonzero(splits)[0]))
    comp = CompositeDyadicSet(d, 6, [(b, DyadicTree(d, inside))])
    assert comp.parts[0][1].cells_at_level(6).max() < 1 << 6 - b


# ---------------------------------------------------------------------------
# synthesize_set
# ---------------------------------------------------------------------------

def test_synthesize_zero_grid_gives_point_chains():
    spec = GridSpec(10.0, 0.5)
    zero = TwoScaleGrid(spec, np.zeros((spec.n + 1, spec.n + 1)))
    comp = synthesize_set(zero, 1, 10)
    for b, tree in comp.parts:
        assert tree.levels[10].size == 1
    for u in range(11):
        assert comp.cells_at_level(u).shape[0] <= 2 * (u + 2)


def test_synthesize_part_separation():
    spec = GridSpec(8.0, 0.5)
    psi = cone_extension(plateau_curve(0.8, 0.5), spec)
    comp = synthesize_set(psi, 1, 8)
    # part b spans [4, 5] * 2^-b along coordinate 0 after translation
    for b, _ in comp.parts:
        for b2, _ in comp.parts:
            if b2 <= b:
                continue
            gap = 4.0 * 2.0**-b - 5.0 * 2.0**-b2
            assert gap > 2.0 ** -min(b, b2) - 1e-12


@pytest.mark.parametrize("depth, message", [(0, "^depth must be at least 1, got 0$"),
                                            (-3, "^depth must be at least 1, got -3$"),
                                            (61, "^depth must be at most 60, got 61: "),
                                            (9, "^depth must lie within the grid's scale range$")])
def test_synthesize_refuses_a_depth_outside_one_to_60_or_beyond_the_target(depth, message):
    # the bounds synth checks before it builds a target hold for the library call too
    grid = cone_extension(plateau_curve(0.05, 0.5), GridSpec(8.0 if depth == 9 else 64.0))
    with pytest.raises(ValueError, match=message):
        synthesize_set(grid, 1, depth)


def test_synthesize_rejects_steep_grids():
    spec = GridSpec(6.0, 0.5)
    steep = grid_from_function(spec, lambda u, v: 1.6 * (u - v))
    with pytest.raises(ValueError, match="dimension"):
        synthesize_set(steep, 1, 6)


def test_synthesize_cap(monkeypatch):
    spec = GridSpec(40.0, 0.5)
    lin = grid_from_function(spec, lambda u, v: u - v)
    monkeypatch.setattr(synthesis, "CUBE_CAP", 10_000)
    with pytest.raises(CapExceeded, match="^the set needs more than 10000 cubes, the synthesis cube cap: "
                                          "reduce the depth$"):
        synthesize_set(lin, 1, 40)


# ---------------------------------------------------------------------------
# synthesize_set against the one-offset-at-a-time reference
# ---------------------------------------------------------------------------

def part_splits(grid, dimension, depth):
    """The split mask of each part of the set: part b splits at level n where its eta steps."""
    comp = synthesize_set(grid, dimension, depth)
    assert [b for b, _ in comp.parts] == list(range(depth))
    return [tree.splits for _, tree in comp.parts]


def assert_matches_reference(grid, dimension, depth):
    """The set's split masks, or its error, against the reference's, both under the current ``CUBE_CAP``."""
    got = outcome(part_splits, grid, dimension, depth)
    want = outcome(reference_offset_steps, grid, dimension, depth)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want) == depth
    for splits, ref_eta in zip(got, want):
        assert np.array_equal(dimension * np.concatenate([[0.0], np.cumsum(splits)]), ref_eta)


@st.composite
def lipschitz_targets(draw):
    """(grid, d, depth) with the grid's slope bound at most d, on a lattice of step 0.25, 0.5 or 1."""
    d = draw(st.integers(1, 4))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    # the packed-code reference needs d * depth <= 62
    depth = draw(st.integers(1, min(20, 62 // d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = GridSpec(float(depth), step)
    i = np.arange(spec.n + 1)
    if draw(st.booleans()):
        # multiples of d * step that move by at most one multiple per lattice step,
        # so the levels' samples land exactly on the quantizer's thresholds
        a, c = np.cumsum(rng.integers(0, 2, (2, spec.n + 1)), axis=1)
        values = d * step * np.clip(a[:, None] - c[None, :], 0, i[:, None] - i[None, :])
    else:
        raw = np.tril(rng.random((spec.n + 1, spec.n + 1)), -1)
        values = raw * (d * draw(st.floats(0.0, 1.0)) / TwoScaleGrid(spec, raw).lipschitz_bound())
    return TwoScaleGrid(spec, values), d, depth


@settings(max_examples=150, deadline=None)
@given(lipschitz_targets(), st.integers(1, 100_000))
def test_synthesis_matches_the_one_offset_reference(target, cube_cap):
    grid, d, depth = target
    with patch.object(synthesis, "CUBE_CAP", cube_cap):
        assert_matches_reference(grid, d, depth)


@settings(max_examples=50, deadline=None)
@given(lipschitz_targets())
def test_each_part_is_the_subdivision_tree_of_its_offset_profile(target):
    # the all-offsets pass and the one-profile builder share one quantizer
    grid, d, depth = target
    try:
        with patch.object(synthesis, "CUBE_CAP", 200_000):
            comp = synthesize_set(grid, d, depth)
    except CapExceeded:
        return
    for b, tree in comp.parts:
        assert np.array_equal(subdivision_tree(offset_profile(grid, b, depth), d, depth).splits, tree.splits)


# ---------------------------------------------------------------------------
# cells against the packed-code reference
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(split_masks())
def test_tree_and_composite_cells_match_the_packed_code_reference(case):
    d, depth, parts = case
    comp = CompositeDyadicSet(d, depth, [(b, DyadicTree(d, splits)) for b, splits in parts])
    for level in range(depth + 1):
        assert np.array_equal(comp.cells_at_level(level), reference_composite_cells(d, parts, level))
        for (_, splits), (_, tree) in zip(parts, comp.parts):
            # the reference decodes in code order; the tree's power is in lexicographic order
            assert np.array_equal(tree.cells_at_level(level), unique_rows(reference_tree_cells(splits, d, level)))


@settings(max_examples=100, deadline=None)
@given(lipschitz_targets())
def test_synthesized_cells_match_the_packed_code_reference_at_every_level(target):
    grid, d, depth = target
    try:
        with patch.object(synthesis, "CUBE_CAP", 200_000):
            comp = synthesize_set(grid, d, depth)
    except CapExceeded:
        return
    parts = [(b, tree.splits) for b, tree in comp.parts]
    for level in range(depth + 1):
        assert np.array_equal(comp.cells_at_level(level), reference_composite_cells(d, parts, level))


class TableTarget:
    """A target whose value at the integer point (u, v) is ``table[u, v]``, with no lattice checks."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.spec = GridSpec(float(self.table.shape[0] - 1), 1.0)

    def lipschitz_bound(self) -> float:
        return 0.0

    def evaluate(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u), np.asarray(v))
        return self.table[u.astype(int), v.astype(int)]


def test_synthesis_refuses_a_target_that_is_not_a_grid():
    # a grid is zero on its diagonal and finite and nonnegative below it, which
    # synthesis takes as given; a table need not be, as this nonzero (0, 0) is not
    table = np.tril(np.ones((6, 6)))
    with pytest.raises(TypeError, match="^the target must be a TwoScaleGrid, not TableTarget$"):
        synthesize_set(TableTarget(table), 1, 5)


def test_synthesis_bracket_failure_inside_the_slope_slack():
    # slope 1 + 9e-7 passes the 1e-6 slack of the slope check, but the level-1
    # sample stops 1.5e-9 short of a step, so level 2 lags one step behind
    spec = GridSpec(2.0, 1.0)
    values = np.array([[0.0, 0.0, 0.0], [1 - 1.5e-9, 0.0, 0.0], [2 - 1.5e-9 + 9e-7, 1.0, 0.0]])
    with pytest.raises(ValueError, match="^quantizer bracket failed"):
        synthesize_set(TwoScaleGrid(spec, values), 1, 2)
    assert_matches_reference(TwoScaleGrid(spec, values), 1, 2)


def lagging_ramp(d, depth, slope, lagging=()):
    """The grid of slope * (u - v) on the lattice of step 1 up to ``depth``, where
    each offset b in ``lagging`` stops 1.5e-9 short of a step at level b + 1 and
    then climbs d + 9e-7 at once, inside the slope slack: for slope d its
    quantization lags a step behind and leaves the bracket at level b + 2."""
    u, v = np.indices((depth + 1, depth + 1))
    values = slope * np.maximum(u - v, 0.0)
    for b in lagging:
        values[b + 1, b] = max(values[b + 1, b] - 1.5e-9, 0.0)
        values[b + 2, b] = values[b + 1, b] + d + 9e-7
    return TwoScaleGrid(GridSpec(float(depth), 1.0), values)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(2, 8), st.sampled_from([0.0, 0.5, 1.0]), st.data())
def test_synthesis_raises_what_the_one_offset_reference_raises(d, depth, slope, data):
    # a ramp of the given slope (in units of d) with some offsets lagging and a few cells nudged
    lagging = data.draw(st.sets(st.integers(0, depth - 2), max_size=3))
    values = lagging_ramp(d, depth, slope * d, lagging).values.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        u = data.draw(st.integers(1, depth))
        v = data.draw(st.integers(0, u - 1))
        values[u, v] = max(values[u, v] + data.draw(st.sampled_from([-1.5e-9, 9e-7, 2e-6])), 0.0)
    grid = TwoScaleGrid(GridSpec(float(depth), 1.0), values)
    cube_cap = data.draw(st.integers(1, 5_000))
    with patch.object(synthesis, "CUBE_CAP", cube_cap):
        if grid.lipschitz_bound() > d + 1e-6:
            with pytest.raises(ValueError, match="exceeds the ambient dimension"):
                synthesize_set(grid, d, depth)
            return
        assert_matches_reference(grid, d, depth)


# slope 1 in d = 1 up to depth 5: offsets 0-4 need 63, 32, 17, 10 and 7 cubes, 63, 95, 112, 122 and 129 in all;
# a lagging offset 0 needs 32 and a lagging offset 1 needs 17
@pytest.mark.parametrize("lagging, cube_cap, error, message", [
    ([0], 10_000, ValueError, "quantizer bracket failed: profile moves faster than step_size"),
    ([2], 10_000, ValueError, "quantizer bracket failed: profile moves faster than step_size"),
    ([], 100, CapExceeded, "the set needs more than 100 cubes, the synthesis cube cap: reduce the depth"),
    # offset 0 alone is over the cap, before offset 2 leaves the bracket
    ([2], 50, CapExceeded, "the set needs more than 50 cubes, the synthesis cube cap: reduce the depth"),
    # offset 1 leaves the bracket before offsets 0-2 pass the cap together
    ([1], 90, ValueError, "quantizer bracket failed: profile moves faster than step_size"),
    # offset 0 both leaves the bracket and passes the cap: the bracket is checked first
    ([0], 20, ValueError, "quantizer bracket failed: profile moves faster than step_size"),
], ids=["bracket", "bracket-later", "cap", "cap-first", "bracket-first", "bracket-before-cap"])
def test_synthesis_raises_the_first_failing_check_of_the_first_failing_offset(
        monkeypatch, lagging, cube_cap, error, message):
    grid = lagging_ramp(1, 5, 1.0, lagging)
    assert grid.lipschitz_bound() <= 1 + 1e-6
    monkeypatch.setattr(synthesis, "CUBE_CAP", cube_cap)
    with pytest.raises(error) as exc:
        synthesize_set(grid, 1, 5)
    assert str(exc.value) == message
    assert_matches_reference(grid, 1, 5)


# ---------------------------------------------------------------------------
# export_points
# ---------------------------------------------------------------------------

def test_export_composite_rescales_into_unit_cube():
    spec = GridSpec(6.0, 0.5)
    psi = cone_extension(plateau_curve(0.6, 0.5), spec)
    comp = synthesize_set(psi, 1, 6)
    pts = export_points(comp, 6)
    floats = pts.numerators / np.exp2(pts.exponents)[:, None]
    assert floats.min() >= 0.0 and floats.max() < 5.0 / 8.0
    # one row per level-6 cell of the set divided by 8, a level-3 cell before the division
    assert np.array_equal(pts.numerators, comp.cells_at_level(3)) and np.all(pts.exponents == 6)


@pytest.mark.parametrize("d, height, depth, level", [
    (1, 0.6, 14, 4), (1, 0.6, 14, 14), (2, 1.45, 12, 0), (2, 1.45, 12, 3), (2, 1.45, 12, 12),
    (3, 2.2, 8, 1), (3, 2.2, 8, 2),
])
def test_export_order_matches_a_sort_of_every_placed_part_point(d, height, depth, level):
    comp = synthesize_set(cone_extension(plateau_curve(height, 0.5), GridSpec(float(depth), 0.5)), d, depth)
    pts = export_points(comp, level)
    # every finest corner, translated by 4 * 2^-b along axis 0 and divided by 8, in
    # units of 2^-(depth + 3); the export holds the distinct level-``level`` cells
    # they meet, each unit shifted down to its floor at that level
    expected = {(0,) * d}
    for b, tree in comp.parts:
        for point in tree.cells_at_level(depth).tolist():
            point[0] += 4 << depth >> b
            expected.add(tuple(c >> depth + 3 - level for c in point))
    assert pts.numerators.tolist() == [list(p) for p in sorted(expected)]
    assert np.all(pts.exponents == level)
    # a tree's corners come out sorted the same way
    tree = comp.parts[0][1]
    assert tree.cells_at_level(level).tolist() == sorted(tree.cells_at_level(level).tolist())


def test_composite_parts_need_distinct_offsets_inside_their_cubes():
    full = DyadicTree(1, np.ones(6, dtype=bool))
    late = DyadicTree(1, [False, True, True, True, True, True])
    CompositeDyadicSet(1, 6, [(0, full), (1, late)])
    with pytest.raises(ValueError, match="distinct"):
        CompositeDyadicSet(1, 6, [(1, late), (1, late)])
    with pytest.raises(ValueError, match=r"part 1 must lie in \[0, 2\^-1\]\^d"):
        CompositeDyadicSet(1, 6, [(1, full)])


def test_export_refuses_a_bare_tree():
    with pytest.raises(TypeError, match="^cannot export points from DyadicTree$"):
        export_points(DyadicTree(1, np.ones(4, dtype=bool)), 2)


def test_export_level_beyond_depth_errors():
    comp = synthesize_set(cone_extension(plateau_curve(0.6, 0.5), GridSpec(2.0, 0.5)), 1, 2)
    with pytest.raises(ValueError, match="^level 7 exceeds materialized depth 2$"):
        export_points(comp, 7)
