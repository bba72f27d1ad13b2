import contextlib
import io
import json
import math
import os
import stat
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import profile_from_csv
from twoscale import (
    DyadicTree,
    GridSpec,
    PiecewiseLinear,
    SpectrumGrid,
    TwoScaleGrid,
    PointSet,
    cone_extension,
    export_points,
    plateau_curve,
    synthesize_set,
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
    back = profile_from_csv(tsio.profile_to_csv(pl))
    xs = np.linspace(0, 4, 17)
    assert np.allclose(back.evaluate(xs), pl.evaluate(xs), atol=1e-12)

    with_tail = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.3, 0.1]))
    back = profile_from_csv(tsio.profile_to_csv(with_tail))
    assert np.allclose(back.evaluate(xs), with_tail.evaluate(xs), atol=1e-12)


def test_curve_csv_roundtrip():
    # the plateau curve of height 0.8 and kink 0.5 at theta step 1/16
    curve = SpectrumGrid(1.0 / 16.0, 0.8 * (1.0 - np.maximum(np.arange(17) / 16.0, 0.5)))
    back = tsio.curve_from_csv(tsio.curve_to_csv(curve))
    assert back.theta_step == curve.theta_step
    assert np.allclose(back.values, curve.values, atol=1e-12)


def test_points_roundtrip_with_quantization():
    nums = DyadicTree(1, np.ones(4, dtype=bool)).cells_at_level(3)
    pts = ExportedPoints(nums, np.full(len(nums), 3, dtype=np.int64))
    loaded = tsio.points_from_csv(tsio.points_to_csv(pts), depth=8)
    assert np.allclose(np.sort(loaded.points.ravel()), np.sort((pts.numerators / np.exp2(pts.exponents)[:, None]).ravel()))
    assert loaded.depth == 8


def exact_units(cells, b, depth):
    """Level-``depth`` composite part cells in units of 2^-(depth + 3): shifted by
    4 * 2^-b along axis 0, then divided by 8."""
    rows = [[int(x) for x in row] for row in cells]
    return {(row[0] + (4 << depth >> b),) + tuple(row[1:]) for row in rows}


def parent_format_points(composite) -> ExportedPoints:
    """The point list that ``synth`` wrote before it floored its points: the origin and
    every level-depth part corner, placed by ``exact_units``, all at exponent depth + 3."""
    depth = composite.depth
    rows = {(0,) * composite.dimension}.union(
        *(exact_units(tree.cells_at_level(depth), b, depth) for b, tree in composite.parts))
    nums = np.array(sorted(rows), dtype=np.int64)
    return ExportedPoints(nums, np.full(len(nums), depth + 3, dtype=np.int64))


@pytest.mark.parametrize("d, height, depth", [(1, 0.8, 14), (2, 1.45, 10), (3, 2.2, 7)])
def test_estimate_reads_the_parent_format_list_as_the_points_synth_writes(tmp_path, d, height, depth):
    # the floor of each parent-format point is the cell that synth now writes, so
    # estimate cannot tell the two lists apart
    from twoscale.cli import main

    synth = tmp_path / "synth"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", f"h_kappa_lambda:{height},0.3", "-d", str(d), "--depth", str(depth),
                     "--out", str(synth)]) == 0
    composite = synthesize_set(cone_extension(plateau_curve(height, 0.3), GridSpec(float(depth))), d, depth)
    (tmp_path / "parent.csv").write_text(tsio.points_to_csv(parent_format_points(composite)))
    for points, out in ((synth / "points.csv", "est"), (tmp_path / "parent.csv", "est_parent")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["estimate", str(points), "--metadata", str(synth / "metadata.json"), "--u-min", "2",
                         "--out", str(tmp_path / out)]) == 0
    for name in ("beta_emp.csv", "g_profile.csv", "spectrum.csv", "box_dims.json"):
        assert (tmp_path / "est" / name).read_bytes() == (tmp_path / "est_parent" / name).read_bytes()


@pytest.mark.parametrize("d, height", [(1, 0.8), (2, 1.45), (3, 2.2)])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_synth_points_and_the_parent_format_list_meet_the_same_cells(d, height, depth):
    composite = synthesize_set(cone_extension(plateau_curve(height, 0.3), GridSpec(float(depth))), d, depth)
    new = tsio.points_from_csv(tsio.points_to_csv(export_points(composite, depth)), depth)
    parent = tsio.points_from_csv(tsio.points_to_csv(parent_format_points(composite)), depth)
    for level in range(depth + 1):
        assert np.array_equal(new.cells_at_level(level), parent.cells_at_level(level))


@pytest.mark.parametrize("d, spec", [(1, "h_kappa_lambda:0.8,0.5"), (2, "h_kappa_lambda:1.45,0.3"),
                                     (3, "h_kappa_lambda:1.2,0.4"), (4, "h_kappa_lambda:1.6,0.3")])
def test_tree_file_parts_place_onto_the_points_of_the_same_synth_run(tmp_path, d, spec):
    from twoscale.cli import main

    depth = 9
    assert main(["synth", spec, "-d", str(d), "--depth", str(depth), "--out", str(tmp_path)]) == 0
    height, kink = map(float, spec.removeprefix("h_kappa_lambda:").split(","))
    grid = cone_extension(plateau_curve(height, kink), GridSpec(float(depth)))
    parts = synthesize_set(grid, d, depth).parts
    assert [b for b, _ in parts] == list(range(depth))
    placed = {(0,) * d}  # the origin
    for b, tree in parts:
        assert tree.dimension == d and tree.depth == depth
        placed |= exact_units(tree.cells_at_level(depth), b, depth)
    # points.csv holds the level-depth cells that the placed points meet
    rows = (tmp_path / "points.csv").read_text().splitlines()[1:]
    listed = []
    for row in rows:
        fields = [int(x) for x in row.split(",")]
        assert fields[1::2] == [depth] * d
        listed.append(tuple(fields[0::2]))
    assert listed == sorted({tuple(x >> 3 for x in point) for point in placed})


def test_ifs_json_variants(tmp_path):
    spec = {
        "d": 1,
        "maps": [
            {"ratio_exp": 2, "translation": [0.0]},
            {"ratio": 0.25, "translation": [0.75]},
        ],
        "condensation": "point",
    }
    ifs = tsio.ifs_from_json(json.dumps(spec), tmp_path)
    assert np.allclose(ifs.ratios, [0.25, 0.25])
    assert np.allclose(ifs.condensation, [[0.0]])

    del spec["condensation"]
    ifs = tsio.ifs_from_json(json.dumps(spec), tmp_path)
    assert ifs.condensation is None

    for bad in ("interval", "", 5):
        spec["condensation"] = bad
        with pytest.raises(ValueError, match="condensation"):
            tsio.ifs_from_json(json.dumps(spec), tmp_path)


def test_csv_condensation_set_is_read_as_written(tmp_path):
    # 3/16 lies off the 2^-2 lattice, and is kept, not rounded to 1/4
    (tmp_path / "cond.csv").write_text("coord_0_num,coord_0_exp\n3,4\n6,5\n")
    spec = {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}], "condensation": "cond.csv"}
    assert tsio.ifs_from_json(json.dumps(spec), tmp_path).condensation.tolist() == [[0.1875], [0.1875]]


@pytest.mark.parametrize("header", [
    "coord_0_num",
    "coord_0_numXYZ,whatever",
    "coord_0_num,coord_0_exp,junk",
    "coord_0_num,coord_0_exp,coord_1_num",
    "coord_0_num,coord_0_exp,coord_0_num,coord_0_exp",
    "coord_0_exp,coord_0_num",
    "coord_0_num,coord_0_expo",
    "coord_0_num;coord_0_exp",
    "x,y",
])
def test_points_from_csv_refuses_any_header_but_the_written_one(tmp_path, header):
    # a header that only began with coord_0_num once passed, with d taken from its commas
    with pytest.raises(ValueError, match=r"^expected point list header coord_0_num,coord_0_exp,\.\.\.$"):
        tsio.points_from_csv(f"{header}\n1,1\n", depth=8)
    # the condensation set of an IFS spec is read by the same function
    (tmp_path / "cond.csv").write_text(f"{header}\n1,1\n")
    spec = {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}], "condensation": "cond.csv"}
    with pytest.raises(ValueError, match="^expected point list header"):
        tsio.ifs_from_json(json.dumps(spec), tmp_path)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_points_from_csv_reads_the_written_header_with_spaces_around_its_fields(d):
    header = tsio.points_to_csv(ExportedPoints(np.zeros((1, d), dtype=np.int64), np.zeros(1, dtype=np.int64)))
    assert header.splitlines()[0] == ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    spaced = " , ".join(header.splitlines()[0].split(",")) + " \n" + ",".join(["1,1"] * d) + "\n"
    assert tsio.points_from_csv(spaced, depth=8).points.tolist() == [[0.5] * d]


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
    tsio.atomic_write(target, b"three\n")
    assert target.read_bytes() == b"three\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_write_outputs_formats_dicts_as_json_and_uses_the_umask_mode(tmp_path):
    out = tmp_path / "out"
    old = os.umask(0o027)
    try:
        tsio.write_outputs(out, {"a.csv": "x\n", "b.bin": b"y", "c.json": {"k": 1.5, "a": [1]}})
    finally:
        os.umask(old)
    assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.bin", "c.json"]
    assert (out / "c.json").read_text() == '{"a": [1], "k": 1.5}\n'
    for p in out.iterdir():
        assert stat.S_IMODE(os.stat(p).st_mode) == 0o640


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
# Point files against their row-by-row formulations
# ---------------------------------------------------------------------------

def per_row_points_csv(points):
    d = points.numerators.shape[1]
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    lines = [header]
    for num, e in zip(points.numerators, points.exponents):
        lines.append(",".join(f"{num[q]},{e}" for q in range(d)))
    return "\n".join(lines) + "\n"


def per_row_points_reader(text, depth):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    header = [field.strip() for field in lines[0].split(",")] if lines else []
    d = len(header) // 2
    if d < 1 or header != [f"coord_{q}_{part}" for q in range(d) for part in ("num", "exp")]:
        raise ValueError("expected point list header coord_0_num,coord_0_exp,...")
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
    return PointSet(np.asarray(pts), depth)


def read_outcome(reader, text, depth):
    """The points, depth and cells a reader returns, or the message of its ValueError.

    The read must not warn.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = reader(text, depth)
    except ValueError as exc:
        return str(exc)
    return pts.points, pts.depth, pts.cells


def assert_same_outcome(text, depth):
    expected = read_outcome(per_row_points_reader, text, depth)
    got = read_outcome(tsio.points_from_csv, text, depth)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
        # CRLF line ends are outside the canonical form, so the per-row reader reads them
        crlf = read_outcome(tsio.points_from_csv, text.replace("\n", "\r\n"), depth)
        assert np.array_equal(got[0], crlf[0]) and np.array_equal(got[2], crlf[2])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 20), st.data())
def test_points_csv_matches_per_row_formulation(d, m, data):
    int64 = st.integers(-2**63, 2**63 - 1)
    nums = data.draw(st.lists(st.lists(int64, min_size=d, max_size=d), min_size=m, max_size=m))
    exps = data.draw(st.lists(int64, min_size=m, max_size=m))
    points = ExportedPoints(np.array(nums, dtype=np.int64).reshape(m, d), np.array(exps, dtype=np.int64))
    assert tsio.points_to_csv(points) == per_row_points_csv(points)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("m", [tsio.ROW_BLOCK - 1, tsio.ROW_BLOCK, 2 * tsio.ROW_BLOCK + 1])
def test_points_csv_matches_per_row_formulation_across_blocks(d, m):
    rng = np.random.default_rng(m + d)
    points = ExportedPoints(rng.integers(-2**63, 2**63, (m, d), dtype=np.int64),
                            rng.integers(-2**63, 2**63, m, dtype=np.int64))
    assert tsio.points_to_csv(points) == per_row_points_csv(points)


@st.composite
def point_rows(draw, d):
    """One CSV row: mostly points of the unit cube, some out of range or malformed."""
    fields = []
    for _ in range(d):
        e = draw(st.one_of(st.integers(-3, 70), st.sampled_from([-1074, -1075, 1023, 1024])))
        top = 1 << max(e, 0)
        num = draw(st.one_of(st.integers(0, top), st.integers(-2, top + 2),
                             st.sampled_from([2**1023, 2**1024, 10**400, 10**17 + 1, 10**18, 2**63])))
        num = draw(st.sampled_from([str(num), f"00{num}", f"+{num}", f"\t{num}"]))
        fields += [num, str(e)]
    row = ",".join(fields)
    return draw(st.one_of(st.just(row), st.just(f"  {row} "), st.just(row + ",7"), st.just(row + "  "),
                          st.just(row.rpartition(",")[0]), st.just(row.replace("1", "x", 1)),
                          st.just(row.replace("0", "-0", 1)), st.just(row.replace("1", "1_0", 1)),
                          st.just(row.replace("3", "\u0663", 1))))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.data())
def test_points_from_csv_matches_per_row_reader(d, depth, data):
    rows = data.draw(st.lists(st.one_of(point_rows(d), st.just(""), st.just("   ")), max_size=12))
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    assert_same_outcome("\n".join([header] + rows) + "\n", depth)


H1 = "coord_0_num,coord_0_exp"
H2 = "coord_0_num,coord_0_exp,coord_1_num,coord_1_exp"


@pytest.mark.parametrize("text", [
    f"{H2}\n007,3,0001,2\n00,0,1,1\n",
    f"{H2}\n-0,3,0,-0\n",
    f"{H2}\n-1,3,2,3\n",
    f"{H2}\n1,3,-0002,3\n",
    f"{H1}\n999999999999999999,60\n{10**17 + 3},57\n",
    f"{H1}\n1000000000000000000,60\n",
    f"{H1}\n{2**63},63\n{2**63 - 1},63\n",
    f"{H1}\n9999999999999999999,64\n{2**63},64\n",
    f"{H1}\n{10**19 + 5},66\n",
    f"{H1}\n0,-1074\n{2**1022},1023\n",
    f"{H1}\n1,2\n1,-1075\n",
    f"{H1}\n1,2\n1,1024\n",
    f"{H1}\n+7,3\n",
    f"{H1}\n1_0,5\n",
    f"{H1}\n\u0663,2\n",
    f"{H2}\n1,\t3,1,2\n",
    f"{H2}\n1,3,1,2   \n3,2,1,1 \n",
    f"{H2}\n1,3,1,2\n3,2,1,1",
    f"{H1},extra\n1,3\n",
    f"{H2}\n1,3,1\n1,3,1,2,3\n",
    f"{H1}\n1, 3\n",
    "coord_1_num,coord_1_exp\n1,3\n",
    "coord_0_numerator,e\n1,3\n",
    "coord_0_num\n1,3\n",
    "coord_0_numXYZ,whatever\n1,3\n",
    f"{H1},junk\n1,3\n",
    f" coord_0_num , coord_0_exp ,\tcoord_1_num,coord_1_exp\n1,3,1,2\n",
    "coord_0_num,coord_0_exp,coord_2_num,coord_2_exp\n1,3,1,2\n",
    "coord_0_exp,coord_0_num\n1,3\n",
    f"{H1}\n",
    f"{H1}\n\n1,3\n",
    f"{H1}\n1,3\r\n",
    f"{H1}\n-,3\n",
    f"{H1}\n1-,3\n",
    f"{H1}\n1,,3\n",
    f"{H1}\r1,3\n",
    f"{H1}\n1,3\r2,3\r3,3\r4,3\n",
    f"\x0c{H1}\n1,3\n",
    f"\n  \n{H1}\n1,3\n",
    f"{H1}\n1,3\n\n\n",
    "",
])
@pytest.mark.parametrize("depth", [4, 70])
def test_points_from_csv_matches_per_row_reader_on_edge_fields(text, depth):
    assert_same_outcome(text, depth)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_points_from_csv_reads_canonical_lists_without_the_per_row_reader(monkeypatch, d):
    rng = np.random.default_rng(d)
    m = 2 * tsio.ROW_BLOCK + 7
    # numerators up to 2^59, 18 digits, over exponents on both sides of the depth
    exps = rng.integers(0, 60, m)
    nums = rng.integers(0, 2**59, (m, d), endpoint=True) >> (59 - exps)[:, None]
    nums[:5] = [[0] * d, [2**59 - 1] * d, [1] * d, [2**59] * d, [10**17 + 1] * d]
    exps[:5] = [0, 59, 1, 59, 57]
    text = tsio.points_to_csv(ExportedPoints(nums, exps))
    expected = tsio.points_from_csv(text.replace("\n", "\r\n"), 50)

    def refuse(*args):
        raise AssertionError("a canonical point list reached the per-row reader")

    monkeypatch.setattr(tsio, "_parse_rows", refuse)
    got = tsio.points_from_csv(text, 50)
    assert np.array_equal(got.points, expected.points) and np.array_equal(got.cells, expected.cells)
    assert got.cells.shape == (m, d)


@pytest.mark.parametrize("d", [1, 2])
def test_points_from_csv_reads_only_the_block_of_an_odd_row_row_by_row(monkeypatch, d):
    rng = np.random.default_rng(d + 10)
    m = 2 * tsio.ROW_BLOCK + 7
    exps = rng.integers(0, 60, m)
    nums = rng.integers(0, 2**59, (m, d), endpoint=True) >> (59 - exps)[:, None]
    lines = tsio.points_to_csv(ExportedPoints(nums, exps)).splitlines(keepends=True)
    # lines[k] is row k + 1; the odd row sits in the middle block
    odd = m // 2
    lines[odd] = ",".join(["+7,3"] * d) + "\n"
    text = "".join(lines)
    assert_same_outcome(text, 50)
    calls = []
    parse_rows = tsio._parse_rows

    def recording(rows, d, first):
        calls.append((first, len(rows)))
        return parse_rows(rows, d, first)

    monkeypatch.setattr(tsio, "_parse_rows", recording)
    tsio.points_from_csv(text, 50)
    # one block, neither the first nor the last, holds the odd row
    [(first, count)] = calls
    assert 2 < first <= odd + 1 < first + count <= m + 1


@pytest.mark.parametrize("sep", ["\r", "\x0c", "\u2028"])
@pytest.mark.parametrize("where", ["header block", "later block", "after a blank block"])
def test_points_from_csv_holds_rows_split_by_any_line_break(sep, where):
    # rows joined by a line break other than \n: a row bound that counts only \n
    # falls short of them
    m = 2 * tsio.ROW_BLOCK + 5
    rng = np.random.default_rng(len(where))
    exps = rng.integers(0, 20, m)
    nums = rng.integers(0, 2**20, (m, 1), endpoint=True) >> (20 - exps)[:, None]
    header, _, body = tsio.points_to_csv(ExportedPoints(nums, exps)).partition("\n")
    odd = sep.join(f"{k},7" for k in range(60)) + "\n"
    blank = (sep + " \n") * (4 * tsio.ROW_BLOCK)
    text = {"header block": header + sep + odd + body,
            "later block": header + "\n" + body + odd + body,
            "after a blank block": header + "\n" + body + blank + odd}[where]
    if where == "after a blank block":
        assert any(not block.strip() for block in tsio._row_blocks(text, len(header) + 1))
    assert_same_outcome(text, 30)
    assert tsio.points_from_csv(text, 30).points.shape[0] == text.count(",") - 1  # the header has one


def test_points_from_csv_sizes_its_arrays_by_the_text_under_a_wide_header():
    # a row has 2d - 1 commas, so the arrays stay linear in the text, not in
    # its rows times the header's million fields
    text = "coord_0_num" + ",x" * 10**6 + "\n" + "1,3\n" * 10**4
    assert_same_outcome(text, 4)
    _, peak = heap_peak(read_outcome, tsio.points_from_csv, text, 4)
    assert peak < 10 * len(text)


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


def fraction_cells(rows, level):
    """Distinct level-``level`` cells of exact points: each coordinate floored, then clipped to the cube."""
    cells = set()
    for row in rows:
        cells.add(tuple(min(max(math.floor(Fraction(n, 2**e) * 2**level), 0), 2**level - 1) for n, e in row))
    return np.array(sorted(cells), dtype=np.int64)


@st.composite
def exact_coordinates(draw):
    """(numerator, exponent) of a point of [0, 1], often with more bits than a float holds."""
    e = draw(st.integers(0, 80))
    half = 1 << max(e - 1, 0)
    n = draw(st.one_of(
        st.integers(0, 1 << e),
        st.sampled_from([0, 1, half - 1, half, half + 1, (1 << e) - 1, 1 << e]),
        # points of a level-50..71 lattice and their neighbours: cell boundaries and points next to them
        st.tuples(st.integers(50, 71), st.integers(0, 1 << 71), st.integers(-1, 1)).map(
            lambda mkt: ((mkt[1] >> max(71 - e, 0)) << max(e - mkt[0], 0)) + mkt[2]),
    ))
    return min(max(n, 0), 1 << e), e


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.one_of(st.integers(50, 70), st.integers(0, 49)), st.data())
def test_point_cells_match_fraction_oracle_at_deep_levels(d, depth, data):
    rows = data.draw(st.lists(st.lists(exact_coordinates(), min_size=d, max_size=d), min_size=1, max_size=8))
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    text = "\n".join([header] + [",".join(f"{n},{e}" for n, e in row) for row in rows]) + "\n"
    pts = tsio.points_from_csv(text, depth)
    # every level of a shallow sample, levels 50..62 of a deep one
    for level in range(50 if depth >= 50 else 0, min(depth, 62) + 1):
        assert np.array_equal(pts.cells_at_level(level), fraction_cells(rows, level))


# ---------------------------------------------------------------------------
# Float point rows against the one-format join
# ---------------------------------------------------------------------------

FLOAT_BLOCK = tsio.FLOAT_BLOCK


def percent_float_csv(points):
    """Header and rows as one ``%.17g`` format over every coordinate."""
    m, d = points.shape
    header = ",".join(f"coord_{q}" for q in range(d)) + "\n"
    row = ",".join(["%.17g"] * d) + "\n"
    return ((header + row * m) % tuple(points.ravel().tolist())).encode("ascii")


def assert_float_rows_match(values, d=1):
    points = np.asarray(values, dtype=float).reshape(-1, d)
    # the writer must not warn either, not even on NaN, inf or zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tsio.float_points_to_csv(points)
    assert got == percent_float_csv(points)


def ulp_neighbours(x, k):
    """x and the k floats on either side of it."""
    steps = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, direction)
            steps.append(y)
    return steps


def test_float_rows_match_around_powers_of_ten():
    values = np.array([y for k in range(-8, 20) for y in ulp_neighbours(10.0**k, 40)])
    assert_float_rows_match(np.concatenate([values, -values]))


def test_float_rows_match_on_binary_ties():
    rng = np.random.default_rng(3)
    odd = 2 * rng.integers(0, 2**52, (60, 40)) + 1
    values = (odd / 2.0 ** np.arange(60)[:, None]).ravel()
    # m / 2^j is a tie of the 17th digit when m 5^j has exactly 18 digits
    ties = [(m | 1) / 2.0**j for j in range(2, 26)
            for m in rng.integers(-(-10**17 // 5**j), min(10**18 // 5**j, 2**53), 200).tolist()]
    assert_float_rows_match(np.concatenate([values, ties, np.negative(ties)]))


def test_float_rows_match_on_integers():
    rng = np.random.default_rng(4)
    edges = [10**k + s for k in range(15, 18) for s in (-2, -1, 0, 1, 2)] + [2**53 - 1, 2**53, 2**53 + 2]
    values = np.concatenate([rng.integers(-10**17, 10**17, 20_000), rng.integers(-999, 1000, 2_000),
                             edges, np.negative(edges)]).astype(float)
    assert_float_rows_match(values)


def test_float_rows_match_on_uniform_and_dyadic_grids():
    rng = np.random.default_rng(5)
    assert_float_rows_match(rng.random(30_000), d=3)
    assert_float_rows_match(np.arange(2**15) / 2**15, d=2)
    assert_float_rows_match(np.arange(3**9) / 3**9)


def test_float_rows_match_on_random_bit_patterns():
    bits = np.random.default_rng(6).integers(-2**63, 2**63, 30_000, dtype=np.int64)
    assert_float_rows_match(bits.view(np.float64), d=2)


def test_float_rows_match_on_special_values():
    big = np.finfo(float).max
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, big, -big, 1e16, 1e17, 1e-4, 1e-5,
              9.999999999999999e-05, 99999999999999984.0, 0.1, 1.0, -1.0]
    assert_float_rows_match(values)
    # a block with no value in fixed notation
    assert_float_rows_match([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, big, -1e-7, 1e18], d=3)
    assert_float_rows_match(np.empty((0, 2)), d=2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [FLOAT_BLOCK - 1, FLOAT_BLOCK, FLOAT_BLOCK + 1])
def test_float_rows_match_across_block_boundaries(d, m):
    rng = np.random.default_rng(m * 4 + d)
    values = rng.random((m, d)) * 10.0 ** rng.integers(-7, 19, (m, d))
    values[rng.random((m, d)) < 0.01] = np.nan
    assert_float_rows_match(values, d)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_float_rows_match_on_any_floats(d, data):
    values = data.draw(st.lists(st.floats(), max_size=30 * d).map(lambda v: v[:len(v) - len(v) % d]))
    assert_float_rows_match(values, d)


# ---------------------------------------------------------------------------
# Heap peaks of the integer point path against the size of what each returns
# ---------------------------------------------------------------------------

def heap_peak(fn, *args):
    """``fn(*args)`` and the peak of the bytes tracemalloc traces above their start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bench_set():
    """The d = 2, depth-14 composite whose 5,481 points the synth-estimate
    benchmark writes, and the parent-format list of the same set with its text;
    exporting once caches the decode tables.  The writer and the reader run on
    that list's 88,422 rows, 11 blocks, since on a list shorter than one block
    the temporaries of that block alone outweigh the result."""
    composite = synthesize_set(cone_extension(plateau_curve(1.47, 0.3), GridSpec(14.0)), 2, 14)
    assert export_points(composite, 14).numerators.shape == (5_481, 2)
    points = parent_format_points(composite)
    assert points.numerators.shape == (88_422, 2)
    return composite, points, tsio.points_to_csv(points)


def exported_bytes(points):
    return points.numerators.nbytes + points.exponents.nbytes


def sample_bytes(sample):
    return sample.points.nbytes + sample.cells.nbytes


@pytest.mark.parametrize("step", ["export_points", "points_to_csv", "points_from_csv"])
def test_point_path_holds_its_result_plus_less_than_one_and_a_half_times_it(bench_set, step):
    # beyond its result, a step holds temporaries of one part or one block,
    # and the pieces of a text that it joins at the end
    composite, points, text = bench_set
    fn, args, size = {
        "export_points": (export_points, (composite, 14), exported_bytes),
        "points_to_csv": (tsio.points_to_csv, (points,), len),
        "points_from_csv": (tsio.points_from_csv, (text, 17), sample_bytes),
    }[step]
    out, peak = heap_peak(fn, *args)
    assert peak < 2.5 * size(out)
