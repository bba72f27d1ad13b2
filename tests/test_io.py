import json

import numpy as np
import pytest

from twoscale import (
    GridSpec,
    PiecewiseLinear,
    SpectrumGrid,
    StepFunction,
    TwoScaleGrid,
    export_points,
    plateau_curve,
    subdivision_tree,
)
from twoscale import io as tsio


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
