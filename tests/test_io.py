import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    GridSpec,
    PiecewiseLinear,
    SpectrumGrid,
    StepFunction,
    TwoScaleGrid,
    PointSet,
    export_points,
    plateau_curve,
    subdivision_tree,
)
from twoscale import io as tsio
from twoscale.synthesis import ExportedPoints


def test_grid_csv_roundtrip():
    spec = GridSpec(3.0, 0.5)
    rng = np.random.default_rng(21)
    vals = np.tril(rng.uniform(0.0, 2.0, (spec.n + 1, spec.n + 1)), -1)
    grid = TwoScaleGrid(spec, vals)
    back = tsio.grid_from_csv(tsio.grid_to_csv(grid))
    assert back.spec == spec
    assert np.allclose(back.values, grid.values, atol=1e-12)


def test_grid_csv_rejects_incomplete_lattice():
    spec = GridSpec(2.0, 1.0)
    text = tsio.grid_to_csv(TwoScaleGrid(spec, np.zeros((3, 3))))
    truncated = "\n".join(text.strip().splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError):
        tsio.grid_from_csv(truncated)


def test_profile_csv_roundtrip():
    pl = PiecewiseLinear(np.array([0.0, 1.0, 2.5]), np.array([0.3, 0.7]))
    back = tsio.profile_from_csv(tsio.profile_to_csv(pl))
    xs = np.linspace(0, 4, 17)
    assert np.allclose(back.evaluate(xs), pl.evaluate(xs), atol=1e-12)

    with_tail = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.3, 0.1]))
    back = tsio.profile_from_csv(tsio.profile_to_csv(with_tail))
    assert np.allclose(back.evaluate(xs), with_tail.evaluate(xs), atol=1e-12)


def test_curve_csv_roundtrip():
    curve = plateau_curve(0.8, 0.5, 1.0 / 16.0)
    back = tsio.curve_from_csv(tsio.curve_to_csv(curve))
    assert back.theta_step == curve.theta_step
    assert np.allclose(back.values, curve.values, atol=1e-12)


def test_points_roundtrip_with_quantization():
    tree = subdivision_tree(StepFunction(1.0, np.arange(5, dtype=float)), 1)
    pts = export_points(tree, 3)
    loaded = tsio.points_from_csv(tsio.points_to_csv(pts), depth=8)
    assert np.allclose(np.sort(loaded.points.ravel()), np.sort(pts.as_floats().ravel()))
    assert loaded.depth == 8


def test_tree_text_roundtrip():
    eta = StepFunction(1.0, np.array([0.0, 1.0, 1.0, 2.0]))
    tree = subdivision_tree(eta, 1)
    back = tsio.tree_from_text(tsio.tree_to_text(tree), 1)
    assert back.depth == tree.depth
    for a, b in zip(back.levels, tree.levels):
        assert np.array_equal(a, b)


def test_ifs_json_variants(tmp_path):
    spec = {
        "d": 1,
        "maps": [
            {"ratio_exp": 2, "translation": [0.0]},
            {"ratio": 0.25, "translation": [0.75]},
        ],
        "condensation": "point",
    }
    ifs = tsio.ifs_from_json(json.dumps(spec))
    assert np.allclose(ifs.ratios, [0.25, 0.25])
    assert np.allclose(ifs.condensation, [[0.0]])

    del spec["condensation"]
    ifs = tsio.ifs_from_json(json.dumps(spec))
    assert ifs.condensation is None

    for bad in ("interval", "", 5):
        spec["condensation"] = bad
        with pytest.raises(ValueError, match="condensation"):
            tsio.ifs_from_json(json.dumps(spec))


def test_points_from_csv_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 3"):
        tsio.points_from_csv("coord_0_num,coord_0_exp\n1,1\n5\n", depth=8)
    with pytest.raises(ValueError, match="row 2"):
        tsio.points_from_csv("coord_0_num,coord_0_exp\n1,1,7\n", depth=8)


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    tsio.atomic_write(target, "one\n")
    tsio.atomic_write(target, "two\n")
    assert target.read_text() == "two\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_points_from_csv_exponent_range():
    # the extreme exponents that still give a finite nonzero 2.0 ** e are accepted
    pts = tsio.points_from_csv(f"coord_0_num,coord_0_exp\n{2**1023},1023\n0,-1074\n", 4)
    assert pts.points.tolist() == [[1.0], [0.0]]
    for exp in (1024, -1075):
        with pytest.raises(ValueError, match="exponent outside"):
            tsio.points_from_csv(f"coord_0_num,coord_0_exp\n1,{exp}\n", 4)
    with pytest.raises(ValueError, match="beyond the float range"):
        tsio.points_from_csv(f"coord_0_num,coord_0_exp\n{10**400},1023\n", 4)


# ---------------------------------------------------------------------------
# Point and tree files against their row-by-row formulations
# ---------------------------------------------------------------------------

def per_digit_tree_text(tree):
    lines = []
    for n, codes in enumerate(tree.levels):
        lines.append(f"# level {n}")
        for code in codes:
            digits = [(int(code) >> (tree.dimension * (n - pos))) & ((1 << tree.dimension) - 1)
                      for pos in range(1, n + 1)]
            lines.append("".join(str(x) for x in digits) if digits else "-")
    return "\n".join(lines) + "\n"


def per_row_points_csv(points):
    d = points.numerators.shape[1]
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    lines = [header]
    for num, e in zip(points.numerators, points.exponents):
        lines.append(",".join(f"{num[q]},{e}" for q in range(d)))
    return "\n".join(lines) + "\n"


def per_row_points_reader(text, depth):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("coord_0_num"):
        raise ValueError("expected point list header coord_0_num,coord_0_exp,...")
    d = (lines[0].count(",") + 1) // 2
    pts = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = [int(tok) for tok in ln.split(",")]
        if len(parts) != 2 * d:
            raise ValueError(f"point list row {k} has {len(parts)} fields, expected {2 * d}")
        if not all(tsio.MIN_EXP <= e <= tsio.MAX_EXP for e in parts[1::2]):
            raise ValueError(f"point list row {k} has an exponent outside [{tsio.MIN_EXP}, {tsio.MAX_EXP}]")
        try:
            pts.append([parts[2 * q] / 2.0 ** parts[2 * q + 1] for q in range(d)])
        except OverflowError:
            raise ValueError(f"point list row {k} has a numerator beyond the float range") from None
    if not pts:
        raise ValueError("point list is empty")
    arr = np.round(np.asarray(pts) * 2.0**depth) / 2.0**depth
    return PointSet(arr, depth)


def read_outcome(reader, text, depth):
    """The points and depth a reader returns, or the message of its ValueError."""
    try:
        pts = reader(text, depth)
    except ValueError as exc:
        return str(exc)
    return pts.points, pts.depth


def assert_same_outcome(text, depth):
    expected = read_outcome(per_row_points_reader, text, depth)
    got = read_outcome(tsio.points_from_csv, text, depth)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


@st.composite
def random_trees(draw):
    d = draw(st.integers(1, 3))
    splits = draw(st.lists(st.booleans(), max_size=10))
    # at most 2^12 cubes per level
    budget = 12 // d
    keep = [s and sum(splits[: i + 1]) <= budget for i, s in enumerate(splits)]
    eta = StepFunction(float(d), d * np.concatenate([[0.0], np.cumsum(keep)]))
    return subdivision_tree(eta, d)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_tree_text_matches_per_digit_formulation(tree):
    text = tsio.tree_to_text(tree)
    assert text == per_digit_tree_text(tree)
    back = tsio.tree_from_text(text, tree.dimension)
    assert back.depth == tree.depth
    assert all(np.array_equal(a, b) for a, b in zip(back.levels, tree.levels))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 20), st.data())
def test_points_csv_matches_per_row_formulation(d, m, data):
    int64 = st.integers(-2**63, 2**63 - 1)
    nums = data.draw(st.lists(st.lists(int64, min_size=d, max_size=d), min_size=m, max_size=m))
    exps = data.draw(st.lists(int64, min_size=m, max_size=m))
    points = ExportedPoints(np.array(nums, dtype=np.int64).reshape(m, d), np.array(exps, dtype=np.int64))
    assert tsio.points_to_csv(points) == per_row_points_csv(points)


@st.composite
def point_rows(draw, d):
    """One CSV row: mostly points of the unit cube, some out of range or malformed."""
    fields = []
    for _ in range(d):
        e = draw(st.one_of(st.integers(-3, 70), st.sampled_from([-1074, -1075, 1023, 1024])))
        top = 1 << max(e, 0)
        num = draw(st.one_of(st.integers(0, top), st.integers(-2, top + 2),
                             st.sampled_from([2**1023, 2**1024, 10**400])))
        fields += [str(num), str(e)]
    row = ",".join(fields)
    return draw(st.one_of(st.just(row), st.just(f"  {row} "), st.just(row + ",7"),
                          st.just(row.rpartition(",")[0]), st.just(row.replace("1", "x", 1))))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.data())
def test_points_from_csv_matches_per_row_reader(d, depth, data):
    rows = data.draw(st.lists(st.one_of(point_rows(d), st.just(""), st.just("   ")), max_size=12))
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    assert_same_outcome("\n".join([header] + rows) + "\n", depth)


def many_rows(m, seed):
    rng = np.random.default_rng(seed)
    exps = rng.integers(0, 60, (m, 2))
    nums = [[int(rng.integers(0, 1 << e, endpoint=True)) for e in row] for row in exps.tolist()]
    nums[0][0], exps[0, 0] = 2**1023, 1023
    return [f"{a},{ea},{b},{eb}" for (a, b), (ea, eb) in zip(nums, exps.tolist())]


def test_points_from_csv_matches_per_row_reader_on_many_rows():
    rows = many_rows(10_500, 1)
    rows[5] = "0,-4,1,0"
    text = "\n".join(["coord_0_num,coord_0_exp,coord_1_num,coord_1_exp"] + rows) + "\n"
    assert_same_outcome(text, 30)


@pytest.mark.parametrize("faults", [
    {10_000: "5,3,1"},
    {10_000: "1,1024,0,0"},
    {10_000: "1,0,0,-1075"},
    {10_000: f"{10**400},1023,0,0"},
    {10_000: "1,0,x,0"},
    {8_500: "1,1024,0,0", 9_000: "1,0,x,0"},
    {8_500: "1,0,x,0", 9_000: "1,1024,0,0"},
    {8_193: "1,0,x", 8_194: "1,2000,0,0"},
    {9_000: f"{10**400},1023,0,0", 10_000: "1,1024,0,0"},
])
def test_points_from_csv_names_the_first_bad_row(faults):
    # row 1 is the header, so data row k sits at index k - 2
    rows = many_rows(10_500, 2)
    for k, row in faults.items():
        rows[k - 2] = row
    text = "\n".join(["coord_0_num,coord_0_exp,coord_1_num,coord_1_exp"] + rows) + "\n"
    assert_same_outcome(text, 30)
    first = min(faults)
    with pytest.raises(ValueError, match=f"row {first} " if "x" not in faults[first] else "invalid literal"):
        tsio.points_from_csv(text, 30)
