import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    GridSpec,
    PiecewiseLinear,
    SimilarityIFS,
    TwoScaleGrid,
    cell_count,
    critical_exponent,
    cylinder_hits,
    dimension_range,
    generate_attractor,
    log_contraction,
    lower_box_profile,
    monotone_envelope,
    separated_subfamily,
    words_at_resolution,
)
from twoscale.grids import EXACT_TOL, CapExceeded
from twoscale.ifs import count_words_at_resolution
from twoscale.synthesis import DyadicTree


def binary_full():
    return SimilarityIFS(1, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))


def quarter_cantor():
    return SimilarityIFS(1, np.array([0.25, 0.25]), np.array([[0.0], [0.75]]))


def eighth_cantor():
    return SimilarityIFS(1, np.array([0.125, 0.125]), np.array([[0.0], [0.875]]))


# ---------------------------------------------------------------------------
# construction and word weights
# ---------------------------------------------------------------------------

def test_ifs_validation():
    with pytest.raises(ValueError):
        SimilarityIFS(1, np.array([1.0]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        SimilarityIFS(1, np.array([0.5]), np.array([[0.8]]))  # image leaves the cube
    with pytest.raises(ValueError, match="ratios"):
        SimilarityIFS(1, np.array([np.nan]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="inside the unit cube"):
        SimilarityIFS(1, np.array([0.5]), np.array([[np.nan]]))
    assert quarter_cantor().strongly_separated
    assert not binary_full().strongly_separated


def test_log_contraction_examples():
    ifs = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    assert log_contraction(ifs, ()) == 0.0
    assert log_contraction(ifs, (0, 1)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        log_contraction(ifs, (0, 5))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), max_size=8))
def test_log_contraction_additive(w1, w2):
    ifs = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    total = log_contraction(ifs, tuple(w1) + tuple(w2))
    assert total == pytest.approx(log_contraction(ifs, tuple(w1)) + log_contraction(ifs, tuple(w2)), abs=1e-12)


# ---------------------------------------------------------------------------
# resolution families
# ---------------------------------------------------------------------------

def test_words_at_resolution_examples():
    words = words_at_resolution(binary_full(), 2.0)
    assert sorted(words) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    words = words_at_resolution(binary_full(), 0.5)
    assert sorted(words) == [(0,), (1,)]


def test_every_long_word_has_one_resolution_prefix():
    rng = np.random.default_rng(20)
    ifs = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    u = 5.0
    family = set(words_at_resolution(ifs, u))
    for _ in range(1000):
        word = tuple(rng.integers(0, 2, size=12))
        prefixes = [word[:k] for k in range(1, 13) if word[:k] in family]
        assert len(prefixes) == 1


def test_word_counting_matches_enumeration():
    ifs = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    for u in (1.0, 2.5, 6.0):
        assert count_words_at_resolution(ifs, u) == len(words_at_resolution(ifs, u))
    nondyadic = SimilarityIFS(1, np.array([0.3, 0.3]), np.array([[0.0], [0.7]]))
    assert count_words_at_resolution(nondyadic, 3.0) == len(words_at_resolution(nondyadic, 3.0))


def test_critical_exponent_closed_forms():
    assert critical_exponent(binary_full(), "moran") == pytest.approx(1.0, abs=1e-9)
    assert critical_exponent(quarter_cantor(), "moran") == pytest.approx(0.5, abs=1e-9)
    mixed = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    golden = -np.log2((np.sqrt(5.0) - 1.0) / 2.0)
    assert critical_exponent(mixed, "moran") == pytest.approx(golden, abs=1e-6)
    assert critical_exponent(binary_full(), "counting", resolution=24.0) == pytest.approx(1.0)
    single = SimilarityIFS(1, np.array([0.5]), np.array([[0.0]]))
    assert critical_exponent(single, "moran") == 0.0


# ---------------------------------------------------------------------------
# attractor sampling
# ---------------------------------------------------------------------------

def test_attractor_of_full_binary_fills_the_interval():
    sample = generate_attractor(binary_full(), np.array([[0.0]]), 10.0)
    for u in range(9):
        assert cell_count(sample, u) == 2**u


def test_attractor_deeper_is_superset():
    shallow = generate_attractor(quarter_cantor(), None, 8.0)
    deep = generate_attractor(quarter_cantor(), None, 12.0)
    a = {tuple(p) for p in shallow.points}
    b = {tuple(p) for p in deep.points}
    assert a <= b


def test_attractor_single_map_fixed_point():
    single = SimilarityIFS(1, np.array([0.5]), np.array([[0.0]]))
    sample = generate_attractor(single, None, 8.0)
    assert np.allclose(sample.points, 0.0)


# ---------------------------------------------------------------------------
# cylinder geometry
# ---------------------------------------------------------------------------

def test_cylinder_hits_growth_for_full_binary():
    ifs = binary_full()
    h = 1.0
    for v, z in [(2.0, 4.0), (3.0, 8.0), (2.0, 10.0), (4.0, 12.0)]:
        hits = cylinder_hits(ifs, v, z, np.array([0.5]))
        assert abs(np.log2(hits) - h * (z - v)) <= 3.0


def test_cylinder_hits_bounded_when_cylinders_are_coarse():
    ifs = quarter_cantor()
    for v in (2.0, 4.0, 6.0, 8.0):
        hits = cylinder_hits(ifs, v, min(v, 2.0), np.array([0.0]))
        assert hits <= 4


def test_cylinder_hits_empty_far_away():
    assert cylinder_hits(binary_full(), 3.0, 4.0, np.array([5.0])) == 0


def test_separated_subfamily_unchanged_when_far_apart():
    ifs = eighth_cantor()
    words = words_at_resolution(ifs, 3.0)
    result = separated_subfamily(ifs, words, 3.0)
    assert result.selected == words
    assert result.log2_ratio == 0.0


def test_separated_subfamily_singleton():
    ifs = binary_full()
    result = separated_subfamily(ifs, [(0, 1)], 2.0)
    assert result.selected == [(0, 1)]


def test_separated_subfamily_binary_ratio_and_disjointness():
    ifs = binary_full()
    u = 8.0
    words = words_at_resolution(ifs, u)
    result = separated_subfamily(ifs, words, u)
    assert abs(result.log2_ratio) <= 3.0
    # pairwise images separated by more than two ball radii
    F = ifs.base_points()
    boxes = []
    for w in result.selected:
        r, t = ifs.apply_word(w)
        boxes.append((float(r * F.min() + t[0]), float(r * F.max() + t[0])))
    boxes.sort()
    for (lo1, hi1), (lo2, hi2) in zip(boxes, boxes[1:]):
        assert lo2 - hi1 > 2.0 * 2.0**-u


# ---------------------------------------------------------------------------
# dimension formula pieces
# ---------------------------------------------------------------------------

def test_full_interval_condensation_is_a_fixed_point_of_the_envelope():
    spec = GridSpec(8.0, 0.5)
    linear = TwoScaleGrid.from_function(spec, lambda u, v: u - v)
    assert monotone_envelope(linear, 0.5).allclose(linear, tol=1e-12)


def test_lower_box_profile_examples():
    ramp = PiecewiseLinear(np.array([0.0, 5.0]), np.array([0.8, 0.0]))
    out = lower_box_profile(ramp, 0.5, 12.0)
    assert float(out.evaluate(10.0)) == pytest.approx(6.5, abs=1e-9)

    same = lower_box_profile(ramp, 0.0, 12.0)
    us = np.linspace(0, 12, 49)
    assert np.allclose(same.evaluate(us), ramp.evaluate(us), atol=1e-12)

    zero = PiecewiseLinear(np.array([0.0]), np.array([0.0]))
    ray = lower_box_profile(zero, 0.7, 12.0)
    assert np.allclose(ray.evaluate(us), 0.7 * us, atol=1e-12)


def test_dimension_range_cases():
    assert dimension_range(0.5, 0.2, 0.4, 1.0) == dimension_range(0.5, 0.2, 0.4, 1.0)
    degenerate = dimension_range(0.5, 0.2, 0.4, 1.0)
    assert degenerate.lo == degenerate.hi == 0.5

    interval = dimension_range(0.25, 0.25, 0.75, 1.0)
    assert interval.lo == pytest.approx(0.25)
    assert interval.hi == pytest.approx(0.25 + 0.09375 / 0.6875)
    assert interval.contains(0.3) and not interval.contains(0.5)

    collapsed = dimension_range(0.3, 0.0, 0.8, 1.0)
    assert collapsed.lo == collapsed.hi == 0.3

    with pytest.raises(ValueError):
        dimension_range(0.5, 0.8, 0.4, 1.0)
    with pytest.raises(ValueError):
        dimension_range(1.5, 0.2, 0.4, 1.0)


# ---------------------------------------------------------------------------
# brute-force oracles for attractor sampling and word counting
# ---------------------------------------------------------------------------

def brute_force_attractor(ifs, condensation, depth):
    """Every word of weight <= depth, its condensation image, then row dedup.

    The condensation per word follows the documented rule: point arrays and
    the default fixed points are used whole, a tree is resolved to level
    ceil(depth - weight) (clamped to [0, tree.depth]); fixed points are
    always adjoined.
    """
    fixed = ifs.fixed_points
    if isinstance(condensation, DyadicTree):
        def base(rho):
            level = int(min(condensation.depth, max(0, np.ceil(depth - rho - 1e-9))))
            return np.vstack([condensation.corner_ints(level) / np.exp2(level), fixed])
    else:
        pts = ifs.base_points() if condensation is None else np.atleast_2d(condensation)
        flat = np.unique(np.vstack([pts, fixed]), axis=0)

        def base(rho):
            return flat

    longest = int(np.floor((depth + EXACT_TOL) / ifs.weights.min())) + 1
    images, n_words = [], 0
    for length in range(longest + 1):
        for word in itertools.product(range(ifs.n_maps), repeat=length):
            rho = log_contraction(ifs, word)
            if rho > depth + EXACT_TOL:
                continue
            r, t = ifs.apply_word(word)
            images.append(base(rho) * r + t)
            n_words += 1
    raw = np.vstack(images)
    return np.unique(raw, axis=0), n_words, raw.shape[0]


RATIOS = st.one_of(st.sampled_from([0.5, 0.25, 0.125]), st.floats(0.2, 0.6))


@st.composite
def small_systems(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 3))
    ratios = np.array([draw(RATIOS) for _ in range(n)])
    translations = np.array(
        [[draw(st.floats(0.0, 1.0)) * (1.0 - r) for _ in range(d)] for r in ratios]
    )
    return SimilarityIFS(d, ratios, translations)


def small_tree(d, rng):
    """Random DyadicTree of depth 3: each cube keeps a random nonempty set of children."""
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(3):
        kids = [(int(c) << d) | k for c in levels[-1] for k in range(1 << d)]
        keep = rng.random(len(kids)) < 0.6
        keep[:: 1 << d] = True
        levels.append(np.array(sorted(np.array(kids)[keep]), dtype=np.int64))
    return DyadicTree(d, 3, levels)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.sampled_from(["none", "points", "tree"]),
       st.one_of(st.integers(1, 5).map(float), st.floats(0.5, 5.0)), st.integers(0, 2**16))
def test_generate_attractor_matches_brute_force(ifs, kind, depth, seed):
    rng = np.random.default_rng(seed)
    condensation = {
        "none": None,
        "points": rng.random((3, ifs.dimension)),
        "tree": small_tree(ifs.dimension, rng),
    }[kind]
    points, n_words, raw = brute_force_attractor(ifs, condensation, depth)
    sample = generate_attractor(ifs, condensation, depth)
    assert np.array_equal(sample.points, points)
    assert sample.metadata["word_count"] == n_words
    assert sample.metadata["raw_points"] == raw


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.5, 0.25]), st.floats(0.15, 0.7)), min_size=1, max_size=3),
       st.one_of(st.integers(1, 7).map(float), st.floats(0.5, 7.0)))
def test_count_words_matches_enumeration_for_float_ratios(ratios, u):
    # dyadic ratios beside float ones put word weights exactly on integer u
    ifs = SimilarityIFS(1, np.array(ratios), np.zeros((len(ratios), 1)))
    assert count_words_at_resolution(ifs, u) == len(words_at_resolution(ifs, u))


def test_count_words_cap_boundary():
    ifs = SimilarityIFS(1, np.array([0.3, 0.45, 0.2]), np.zeros((3, 1)))
    family = len(words_at_resolution(ifs, 9.0))
    assert count_words_at_resolution(ifs, 9.0, cap=family) == family
    with pytest.raises(CapExceeded):
        count_words_at_resolution(ifs, 9.0, cap=family - 1)


@pytest.mark.parametrize("condensation", [None, np.linspace(0.0, 1.0, 11)[:, None]])
def test_generate_attractor_cap_boundary(condensation):
    # word-bound with the fixed points only, point-bound with 11 condensation points
    ifs = SimilarityIFS(1, np.array([0.3, 0.45]), np.array([[0.0], [0.55]]))
    meta = generate_attractor(ifs, condensation, 8.0).metadata
    cap = max(meta["word_count"], -(-meta["raw_points"] // 4))
    assert generate_attractor(ifs, condensation, 8.0, cap=cap).metadata == meta
    with pytest.raises(CapExceeded):
        generate_attractor(ifs, condensation, 8.0, cap=cap - 1)
