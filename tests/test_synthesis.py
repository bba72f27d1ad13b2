import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    CapExceeded,
    GridSpec,
    PiecewiseLinear,
    StepFunction,
    TwoScaleGrid,
    cone_extension,
    export_points,
    plateau_curve,
    step_quantize,
    subdivision_tree,
    synthesize_set,
)


def constant_slope(slope):
    return PiecewiseLinear(np.array([0.0]), np.array([slope]))


# ---------------------------------------------------------------------------
# step_quantize
# ---------------------------------------------------------------------------

def test_quantizer_worked_example():
    eta = step_quantize(constant_slope(0.7), 1.0, 5)
    assert list(eta.cumulative) == [0.0, 0.0, 1.0, 2.0, 2.0, 3.0]


def test_quantizer_degenerate_profiles():
    assert np.all(step_quantize(constant_slope(0.0), 1.0, 6).cumulative == 0.0)
    eta = step_quantize(constant_slope(0.5), 0.5, 6)
    assert np.allclose(eta.cumulative, 0.5 * np.arange(7))


def test_quantizer_rejects_decreasing():
    bad = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, -0.2]))
    with pytest.raises(ValueError):
        step_quantize(bad, 1.0, 4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12))
def test_quantizer_bracket_property(slopes):
    profile = PiecewiseLinear(np.arange(len(slopes) + 1, dtype=float), np.array(slopes + [0.0]))
    depth = len(slopes) + 2
    eta = step_quantize(profile, 1.0, depth)
    g = profile.evaluate(np.arange(depth + 1, dtype=float))
    assert np.all(eta.cumulative <= g + 1e-9)
    assert np.all(eta.cumulative > g - 1.0 - 1e-9)


def test_step_function_rejects_bad_increments():
    with pytest.raises(ValueError):
        StepFunction(1.0, np.array([0.0, 0.5]))


# ---------------------------------------------------------------------------
# subdivision_tree
# ---------------------------------------------------------------------------

def test_full_binary_tree_counts():
    eta = StepFunction(1.0, np.arange(7, dtype=float))
    tree = subdivision_tree(eta, 1)
    for n in range(7):
        assert tree.levels[n].size == 2**n


def test_chain_tree_is_single_point():
    eta = StepFunction(1.0, np.zeros(9))
    tree = subdivision_tree(eta, 1)
    assert all(tree.levels[n].size == 1 for n in range(9))
    pts = export_points(tree, 8)
    assert pts.numerators.shape == (1, 1) and pts.numerators[0, 0] == 0


def test_tree_counts_match_step_function_exactly():
    rng = np.random.default_rng(6)
    for d in (1, 2):
        incs = rng.random(10) < 0.6
        eta = StepFunction(float(d), float(d) * np.concatenate([[0], np.cumsum(incs)]))
        tree = subdivision_tree(eta, d)
        for n in range(11):
            assert tree.levels[n].size == 2 ** int(eta.cumulative[n])


def test_prefix_count_inside_coarse_cube():
    eta = StepFunction(1.0, np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    tree = subdivision_tree(eta, 1)
    # level-3 cubes inside one fixed level-1 cube number 2^(eta(3)-eta(1))
    prefix = tree.levels[1][0]
    inside = np.sum(tree.levels[3] >> 2 == prefix)
    assert inside == 2 ** int(eta.cumulative[3] - eta.cumulative[1])


def test_tree_requires_vanishing_prefix_for_offset():
    eta = StepFunction(1.0, np.arange(5, dtype=float))
    with pytest.raises(ValueError):
        subdivision_tree(eta, 1, offset=2)


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


def test_synthesize_rejects_steep_grids():
    spec = GridSpec(6.0, 0.5)
    steep = TwoScaleGrid.from_function(spec, lambda u, v: 1.6 * (u - v))
    with pytest.raises(ValueError, match="dimension"):
        synthesize_set(steep, 1, 6)


def test_synthesize_cap():
    spec = GridSpec(40.0, 0.5)
    lin = TwoScaleGrid.from_function(spec, lambda u, v: u - v)
    with pytest.raises(CapExceeded):
        synthesize_set(lin, 1, 40, cube_cap=10_000)


# ---------------------------------------------------------------------------
# export_points
# ---------------------------------------------------------------------------

def test_export_full_binary_level_two():
    eta = StepFunction(1.0, np.arange(5, dtype=float))
    tree = subdivision_tree(eta, 1)
    pts = export_points(tree, 2)
    assert np.allclose(pts.as_floats().ravel(), [0.0, 0.25, 0.5, 0.75])
    assert pts.rescale_exponent == 0


def test_export_count_matches_cube_count():
    eta = StepFunction(2.0, np.array([0.0, 2.0, 2.0, 4.0]))
    tree = subdivision_tree(eta, 2)
    for level in range(4):
        assert export_points(tree, level).numerators.shape[0] == tree.levels[level].size


def test_export_composite_rescales_into_unit_cube():
    spec = GridSpec(6.0, 0.5)
    psi = cone_extension(plateau_curve(0.6, 0.5), spec)
    comp = synthesize_set(psi, 1, 6)
    pts = export_points(comp, 6)
    floats = pts.as_floats()
    assert pts.rescale_exponent == 3
    assert floats.min() >= 0.0 and floats.max() <= 5.0 / 8.0
    # origin plus one representative per part cube
    assert floats.shape[0] == 1 + sum(tree.levels[6].size for _, tree in comp.parts)


def test_export_level_beyond_depth_errors():
    eta = StepFunction(1.0, np.arange(3, dtype=float))
    tree = subdivision_tree(eta, 1)
    with pytest.raises((ValueError, IndexError)):
        export_points(tree, 7)
