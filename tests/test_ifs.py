import itertools
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_from_function, outcome, reference_attractor, values_close
from twoscale import (
    GridSpec,
    PiecewiseLinear,
    SimilarityIFS,
    counting_exponent,
    critical_exponent,
    dimension_range,
    generate_attractor,
    lower_box_profile,
    monotone_envelope,
)
from twoscale.grids import EXACT_TOL, CapExceeded
from twoscale import ifs as ifs_module
from twoscale.ifs import count_words_at_resolution
from twoscale.synthesis import DyadicTree


def binary_full():
    return SimilarityIFS(1, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))


def quarter_cantor():
    return SimilarityIFS(1, np.array([0.25, 0.25]), np.array([[0.0], [0.75]]))


# ---------------------------------------------------------------------------
# word oracles: words as tuples of map indices, () the identity
# ---------------------------------------------------------------------------

def word_weight(ifs, word):
    """-log2 of the contraction along the word, summed map by map."""
    return sum(ifs.weights[i] for i in word)


def apply_word(ifs, word):
    """Composite similarity (ratio, translation) of a word, leftmost outermost."""
    r, t = 1.0, np.zeros(ifs.dimension)
    for i in word:
        # f_i after the accumulated prefix: prefix o f_i
        t = t + r * ifs.translations[i]
        r = r * ifs.ratios[i]
    return r, t


def words_at_resolution(ifs, u):
    """All words whose weight first reaches ``u``: their own weight is >= u
    while their parent's stays below."""
    out, frontier = [], [((), 0.0)]
    while frontier:
        nxt = []
        for word, rho in frontier:
            for i in range(ifs.n_maps):
                child, crho = word + (i,), rho + ifs.weights[i]
                (out if crho >= u - EXACT_TOL else nxt).append((child, crho))
        frontier = nxt
    return [word for word, _ in out]


# ---------------------------------------------------------------------------
# construction
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


def test_condensation_validation_names_the_dimensions_apart_from_the_range():
    ratios, translations = np.array([0.25, 0.25]), np.array([[0.0], [0.75]])
    with pytest.raises(ValueError, match="^condensation points have dimension 2, the maps 1$"):
        SimilarityIFS(1, ratios, translations, np.array([[0.5, 0.5]]))
    # written so that NaN fails the bound, as it does for the maps
    for point in (1.5, -0.5, np.nan):
        with pytest.raises(ValueError, match="^condensation points must lie in the unit cube$"):
            SimilarityIFS(1, ratios, translations, np.array([[point]]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_condensation_tree_is_kept_as_given_and_must_share_the_maps_dimension(d):
    ratios, translations = np.array([0.25, 0.25]), np.zeros((2, d))
    tree = DyadicTree(d, [True, False])
    assert SimilarityIFS(d, ratios, translations, tree).condensation is tree
    with pytest.raises(ValueError, match=f"^condensation tree has dimension {d + 1}, the maps {d}$"):
        SimilarityIFS(d, ratios, translations, DyadicTree(d + 1, [True, False]))


@pytest.mark.parametrize("bad", [1.0, True, np.float64(2.0), 0, -1])
def test_ifs_refuses_a_dimension_that_is_not_a_positive_integer(bad):
    # a float or a bool used to pass here and fail late, inside numpy, in generate_attractor
    with pytest.raises(ValueError, match=rf"^dimension must be a positive integer, got {bad}$"):
        SimilarityIFS(bad, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))


def test_ifs_accepts_a_numpy_integer_dimension():
    ifs = SimilarityIFS(np.int64(2), np.array([0.5, 0.5]), np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert generate_attractor(ifs, 4).points.shape[1] == 2


# ---------------------------------------------------------------------------
# word weights: SimilarityIFS.weights summed along a word
# ---------------------------------------------------------------------------

def test_log_contraction_examples():
    ifs = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    # dyadic ratios give the exact integer weights that family counting snaps to
    assert ifs.weights.tolist() == [1.0, 2.0]
    assert word_weight(ifs, ()) == 0.0
    assert word_weight(ifs, (0, 1)) == 3.0
    assert apply_word(ifs, (0, 1))[0] == 2.0 ** -3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), max_size=8))
def test_log_contraction_additive(w1, w2):
    ifs = SimilarityIFS(1, np.array([0.3, 0.45]), np.array([[0.0], [0.55]]))
    word = tuple(w1) + tuple(w2)
    total = word_weight(ifs, word)
    assert total == pytest.approx(word_weight(ifs, tuple(w1)) + word_weight(ifs, tuple(w2)), abs=1e-12)
    assert total == pytest.approx(-np.log2(apply_word(ifs, word)[0]), abs=1e-12)


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


def test_near_dyadic_weights_count_as_their_integers():
    # weight 1 - 2.9e-10 is snapped to 1, so the family is that of the weights
    # {1, 2}: a Fibonacci number.  Unsnapped, four first maps in a row would
    # fall 1.2e-9 short of an integer, more than EXACT_TOL, and u = 8 and 24
    # would count 78 and 196,339 words.
    near = SimilarityIFS(1, np.array([0.5000000001, 0.25]), np.array([[0.0], [0.75]]))
    dyadic = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    for u, fib in ((8.0, 55), (12.5, 610), (24.0, 121_393)):
        assert count_words_at_resolution(near, u) == count_words_at_resolution(dyadic, u) == fib


def test_dyadic_family_counts_are_exact_and_uncapped():
    assert count_words_at_resolution(binary_full(), 22.0) == 4_194_304 > ifs_module.WORD_CAP
    assert count_words_at_resolution(binary_full(), 100.0) == 2**100


def test_third_family_count():
    # the attractor-third system: twelve levels of weight log2(3) reach u = 18
    third = SimilarityIFS(1, np.full(3, 1.0 / 3.0), np.array([[0.0], [1.0 / 3.0], [2.0 / 3.0]]))
    assert count_words_at_resolution(third, 18.0) == 3**12 == 531_441


def test_count_words_rejects_resolutions_within_tolerance_of_zero():
    # a dyadic and a float system agree on both sides of the threshold
    nondyadic = SimilarityIFS(1, np.array([0.3, 0.3]), np.array([[0.0], [0.7]]))
    for ifs in (binary_full(), nondyadic):
        for u in (0.0, 1e-12, EXACT_TOL):
            with pytest.raises(ValueError, match="resolution must be positive"):
                count_words_at_resolution(ifs, u)
        assert count_words_at_resolution(ifs, 2 * EXACT_TOL) == 2


def test_counting_exponent_beyond_int64_word_counts():
    # 2^64 and 2^200 words: the logarithm is taken of the exact integer count
    for resolution in (63.0, 64.0, 200.0):
        assert counting_exponent(binary_full(), resolution) == 1.0


def test_critical_exponent_closed_forms():
    assert critical_exponent(binary_full()) == pytest.approx(1.0, abs=1e-9)
    assert critical_exponent(quarter_cantor()) == pytest.approx(0.5, abs=1e-9)
    mixed = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    golden = -np.log2((np.sqrt(5.0) - 1.0) / 2.0)
    assert critical_exponent(mixed) == pytest.approx(golden, abs=1e-6)
    assert counting_exponent(binary_full(), 24.0) == pytest.approx(1.0)
    single = SimilarityIFS(1, np.array([0.5]), np.array([[0.0]]))
    assert critical_exponent(single) == 0.0


# ---------------------------------------------------------------------------
# attractor sampling
# ---------------------------------------------------------------------------

def test_attractor_of_full_binary_fills_the_interval():
    sample = generate_attractor(replace(binary_full(), condensation=np.array([[0.0]])), 10.0)
    for u in range(9):
        assert sample.cells_at_level(u).shape[0] == 2**u


def test_attractor_deeper_is_superset():
    shallow = generate_attractor(quarter_cantor(), 8.0)
    deep = generate_attractor(quarter_cantor(), 12.0)
    a = {tuple(p) for p in shallow.points}
    b = {tuple(p) for p in deep.points}
    assert a <= b


def test_attractor_single_map_fixed_point():
    single = SimilarityIFS(1, np.array([0.5]), np.array([[0.0]]))
    sample = generate_attractor(single, 8.0)
    assert np.allclose(sample.points, 0.0)


# ---------------------------------------------------------------------------
# dimension formula pieces
# ---------------------------------------------------------------------------

def test_full_interval_condensation_is_a_fixed_point_of_the_envelope():
    spec = GridSpec(8.0, 0.5)
    linear = grid_from_function(spec, lambda u, v: u - v)
    assert values_close(monotone_envelope(linear, 0.5), linear, tol=1e-12)


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
    assert dimension_range(0.5, 0.2, 0.4, 1.0) == (0.5, 0.5)

    lo, hi = dimension_range(0.25, 0.25, 0.75, 1.0)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(0.25 + 0.09375 / 0.6875)
    assert lo <= 0.3 <= hi < 0.5

    assert dimension_range(0.3, 0.0, 0.8, 1.0) == (0.3, 0.3)

    with pytest.raises(ValueError):
        dimension_range(0.5, 0.8, 0.4, 1.0)
    with pytest.raises(ValueError):
        dimension_range(1.5, 0.2, 0.4, 1.0)


# ---------------------------------------------------------------------------
# brute-force oracles for attractor sampling and word counting
# ---------------------------------------------------------------------------

def brute_force_attractor(ifs, depth):
    """Every word of weight <= depth, its condensation image, then row dedup.

    The condensation per word follows the documented rule: point arrays and
    the default fixed points are used whole, a tree is resolved to level
    ceil(depth - weight) (clamped to [0, tree.depth]); fixed points are
    always adjoined.
    """
    fixed, condensation = ifs.fixed_points, ifs.condensation
    if isinstance(condensation, DyadicTree):
        def base(rho):
            level = int(min(condensation.depth, max(0, np.ceil(depth - rho - 1e-9))))
            return np.vstack([condensation.cells_at_level(level) / np.exp2(level), fixed])
    else:
        pts = fixed if condensation is None else np.atleast_2d(condensation)
        flat = np.unique(np.vstack([pts, fixed]), axis=0)

        def base(rho):
            return flat

    longest = int(np.floor((depth + EXACT_TOL) / ifs.weights.min())) + 1
    images, n_words = [], 0
    for length in range(longest + 1):
        for word in itertools.product(range(ifs.n_maps), repeat=length):
            rho = word_weight(ifs, word)
            if rho > depth + EXACT_TOL:
                continue
            r, t = apply_word(ifs, word)
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


def small_tree(d, rng, depth=3):
    """Random DyadicTree: each level splits every cube or none, at random."""
    return DyadicTree(d, rng.random(depth) < 0.6)


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
    ifs = replace(ifs, condensation=condensation)
    points, n_words, raw = brute_force_attractor(ifs, depth)
    sample = generate_attractor(ifs, depth)
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


@st.composite
def expansion_cases(draw):
    """(ifs, depth, cap): d = 1-3, 1-5 maps of ratio 2^-k or a float,
    translation coordinates at 0.0, -0.0, 1 - r or between, no, array or tree
    condensation, integer or fractional depths, and caps that often stop the expansion."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratio = st.one_of(st.integers(1, 3).map(lambda k: 2.0**-k), st.floats(0.15, 0.7))
    ratios = np.array([draw(ratio) for _ in range(n)])
    t = rng.random((n, d)) * (1.0 - ratios[:, None])
    edge = rng.integers(0, 4, (n, d))
    t[edge == 0] = 0.0
    t[edge == 1] = -0.0
    t = np.where(edge == 2, 1.0 - ratios[:, None], t)
    condensation = None
    kind = draw(st.sampled_from(["none", "points", "tree"]))
    if kind == "points":
        condensation = rng.random((rng.integers(1, 6), d))
        condensation[rng.random(condensation.shape) < 0.3] = -0.0
    elif kind == "tree":
        condensation = small_tree(d, rng, int(rng.integers(0, 4)))
    depth = draw(st.one_of(st.integers(1, 10).map(float), st.floats(0.1, 10.0)))
    return SimilarityIFS(d, ratios, t, condensation), depth, draw(st.integers(1, 4000))


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
def test_generate_attractor_matches_the_word_major_reference(case):
    ifs, depth, cap = case
    with patch.object(ifs_module, "WORD_CAP", cap):
        got = outcome(generate_attractor, ifs, depth)
        want = outcome(reference_attractor, ifs, depth)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    # bit for bit, so a -0.0 in place of 0.0 fails as well
    assert got.points.shape == want.points.shape
    assert np.array_equal(got.points.view(np.int64), want.points.view(np.int64))
    assert (got.depth, got.metadata) == (want.depth, want.metadata)


def test_count_words_cap_boundary(monkeypatch):
    ifs = SimilarityIFS(1, np.array([0.3, 0.45, 0.2]), np.zeros((3, 1)))
    family = len(words_at_resolution(ifs, 9.0))
    monkeypatch.setattr(ifs_module, "WORD_CAP", family)
    assert count_words_at_resolution(ifs, 9.0) == family
    monkeypatch.setattr(ifs_module, "WORD_CAP", family - 1)
    with pytest.raises(CapExceeded):
        count_words_at_resolution(ifs, 9.0)


@pytest.mark.parametrize("condensation", [None, np.linspace(0.0, 1.0, 11)[:, None]])
def test_generate_attractor_cap_boundary(monkeypatch, condensation):
    # word-bound with the fixed points only, point-bound with 11 condensation points;
    # one short of either bound, the last level exceeds it and the error names it
    ifs = SimilarityIFS(1, np.array([0.3, 0.45]), np.array([[0.0], [0.55]]), condensation)
    meta = generate_attractor(ifs, 8.0).metadata
    words, raw = meta["word_count"], meta["raw_points"]
    cap = max(words, -(-raw // 4))
    monkeypatch.setattr(ifs_module, "WORD_CAP", cap)
    assert generate_attractor(ifs, 8.0).metadata == meta
    if condensation is None:
        assert cap == words
        message = f"attractor sample exceeds the cap: {words} words, more than {cap - 1}"
    else:
        assert cap > words
        message = f"attractor sample exceeds the raw-point bound: {raw} points, more than 4 * cap = {4 * cap - 4}"
    monkeypatch.setattr(ifs_module, "WORD_CAP", cap - 1)
    with pytest.raises(CapExceeded) as exc:
        generate_attractor(ifs, 8.0)
    assert str(exc.value) == message
