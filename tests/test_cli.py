import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from twoscale import cli, verify
from twoscale.cli import main
from twoscale.grids import DEFAULT_GRID_STEP
from twoscale.io import points_from_csv
from twoscale.operators import DEFAULT_THETA_STEP


def test_synth_estimate_pipeline(tmp_path):
    out = tmp_path / "synth"
    code = main([
        "synth", "h_kappa_lambda:0.8,0.5", "-d", "1",
        "--depth", "12", "--out", str(out),
    ])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json", "points.csv"]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["rescale_exponent"] == 3 and meta["depth"] == 12

    est = tmp_path / "est"
    code = main([
        "estimate", str(out / "points.csv"), "--metadata", str(out / "metadata.json"),
        "--u-max", "8", "--grid-step", "0.5", "--u-min", "4", "--out", str(est),
    ])
    assert code == 0
    for name in ("beta_emp.csv", "g_profile.csv", "spectrum.csv", "box_dims.json"):
        assert (est / name).exists()
    box = json.loads((est / "box_dims.json").read_text())
    assert 0.0 <= box["lower_box"] <= box["upper_box"]


def test_synth_rejects_invalid_target(tmp_path):
    code = main([
        "synth", "h_kappa_lambda:1.5,0.5", "-d", "1",
        "--depth", "8", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_synth_witness_lines_print_plain_floats(tmp_path, capsys):
    code = main(["synth", "h_kappa_lambda:5,0.5", "--depth", "8", "--out", str(tmp_path / "x")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[1] == "  lipschitz_bound at (8.0, 4.0): 16"
    assert len(lines) == 11 and not any("np." in ln for ln in lines)


def test_synth_cap_exit_code(tmp_path, capsys):
    code = main([
        "synth", "h_kappa_lambda:1.0,0.0", "-d", "1",
        "--depth", "40", "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    # the CLI cannot raise the cap, so the line says what it can change
    assert capsys.readouterr().err == ("error: the set needs more than 2500000 cubes, the synthesis cube cap: "
                                       "reduce the depth\n")


def test_estimate_rejects_overdeep_grid(tmp_path):
    out = tmp_path / "synth"
    assert main([
        "synth", "h_kappa_lambda:0.5,0.5", "-d", "1",
        "--depth", "8", "--out", str(out),
    ]) == 0
    code = main([
        "estimate", str(out / "points.csv"), "--metadata", str(out / "metadata.json"),
        "--u-max", "32", "--out", str(tmp_path / "est"),
    ])
    assert code == 2


def test_estimate_rejects_empty_points(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("coord_0_num,coord_0_exp\n")
    code = main(["estimate", str(bad), "--depth", "8", "--out", str(tmp_path / "est")])
    assert code == 2 and capsys.readouterr().err == "error: point list is empty\n"


def test_attractor_subcommand(tmp_path):
    spec = tmp_path / "ifs.json"
    spec.write_text(json.dumps({
        "d": 1,
        "maps": [{"ratio_exp": 2, "translation": [0.0]}, {"ratio_exp": 2, "translation": [0.75]}],
    }))
    out = tmp_path / "att"
    assert main(["attractor", str(spec), "--depth", "10", "--out", str(out)]) == 0
    info = json.loads((out / "attractor_info.json").read_text())
    assert info["moran_exponent"] == pytest.approx(0.5, abs=1e-6)
    assert info["strongly_separated"] is True


def test_verify_attain_suite_is_deterministic_and_honest(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = main(["verify", "attain", "--seed", "7", "--out", str(out1)])
    code2 = main(["verify", "attain", "--seed", "7", "--out", str(out2)])
    r1 = json.loads((out1 / "verify_report.json").read_text())
    r2 = json.loads((out2 / "verify_report.json").read_text())
    assert r1 == r2
    # the spectrum-recovery criterion is expected to fail at the reference
    # depth (see README); exit code reports it
    by_id = {c["id"]: c for c in r1["criteria"]}
    assert by_id[4]["passed"] and by_id[11]["passed"]
    assert not by_id[5]["passed"]
    assert code1 == code2 == 1


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_accepts_every_suite_of_the_suite_table(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "quick", [6])
    assert main(["verify", "quick"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["suite"] == "quick"


def test_estimate_lattice_defaults_are_the_library_constants(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_estimate", lambda args: (seen.append(args), (0, {}))[1])
    assert main(["estimate", "points.csv"]) == 0
    assert seen[0].grid_step == DEFAULT_GRID_STEP and seen[0].theta_step == DEFAULT_THETA_STEP


def test_synth_outputs_are_byte_identical(tmp_path):
    args = ["synth", "h_kappa_lambda:0.7,0.25", "-d", "1", "--depth", "10"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("points.csv", "metadata.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("row", ["5", "9,3", "-9,3", "1,1024", "1,-1075"])
def test_estimate_rejects_bad_point_rows_with_one_error_line(tmp_path, capsys, row):
    # a ragged row, a point beyond x = 1, a negative point, and exponents for
    # which 2.0 ** e overflows or rounds to zero
    bad = tmp_path / "points.csv"
    bad.write_text(f"coord_0_num,coord_0_exp\n1,1\n{row}\n")
    code = main(["estimate", str(bad), "--depth", "8", "--u-max", "4", "--u-min", "2",
                 "--out", str(tmp_path / "est")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "est").exists()


def test_attractor_rejects_unknown_condensation(tmp_path, capsys):
    spec = tmp_path / "ifs.json"
    spec.write_text(json.dumps({
        "d": 1,
        "maps": [{"ratio_exp": 2, "translation": [0.0]}, {"ratio_exp": 2, "translation": [0.75]}],
        "condensation": "interval",
    }))
    assert main(["attractor", str(spec), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.startswith("error: condensation")


@pytest.mark.parametrize("spec, line", [
    # a misspelled condensation would otherwise sample the fixed points instead
    ({"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}], "condensaton": "point"},
     "error: malformed IFS spec: unknown key 'condensaton', expected one of d, maps, condensation"),
    ({"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}], "condensation_depth": 8},
     "error: malformed IFS spec: unknown key 'condensation_depth', expected one of d, maps, condensation"),
    ({"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0], "weight": 0.5}]},
     "error: malformed IFS spec: unknown map key 'weight', expected one of ratio_exp, ratio, translation"),
    # the ratio_exp would otherwise win and the ratio be dropped
    ({"d": 1, "maps": [{"ratio_exp": 2, "ratio": 0.3, "translation": [0.0]}]},
     "error: malformed IFS spec: a map takes one of 'ratio_exp' and 'ratio', got both"),
], ids=["condensaton", "condensation_depth", "map-weight", "map-ratio-and-ratio_exp"])
def test_attractor_rejects_unknown_spec_keys_by_name(tmp_path, capsys, spec, line):
    path = tmp_path / "ifs.json"
    path.write_text(json.dumps(spec))
    assert main(["attractor", str(path), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not (tmp_path / "att").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "h_kappa_lambda:0.8,0.5", "--seed", "3"],
    ["synth", "h_kappa_lambda:0.8,0.5", "--u-min", "4"],
    ["synth", "h_kappa_lambda:0.8,0.5", "--u-max", "64"],
    ["synth", "h_kappa_lambda:0.8,0.5", "--grid-step", "0.5"],
    ["estimate", "points.csv", "--seed", "3"],
    ["attractor", "ifs.json", "--u-min", "99"],
    ["attractor", "ifs.json", "--theta-step", "7"],
])
def test_commands_reject_options_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_synth_error_after_synthesis_leaves_no_partial_output(tmp_path, capsys):
    # the target passes its checks, and the cube cap stops the synthesis once it has begun
    out = tmp_path / "x"
    code = main(["synth", "h_kappa_lambda:1.0,0.0", "-d", "1", "--depth", "40", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: the set needs more than")
    assert not out.exists()


def test_synth_d4_set_is_estimated_back(tmp_path, capsys):
    synth, est = tmp_path / "synth", tmp_path / "est"
    assert main(["synth", "h_kappa_lambda:1.6,0.3", "-d", "4", "--depth", "10", "--out", str(synth)]) == 0
    assert len((synth / "points.csv").read_text().splitlines()) == 1 + 86
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-min", "5", "--out", str(est)]) == 0
    assert json.loads((est / "box_dims.json").read_text())["membership"] == "passed"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_synth_writes_the_points_and_sidecar_that_estimate_reads(tmp_path, d):
    synth, est = tmp_path / "synth", tmp_path / "est"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "h_kappa_lambda:0.9,0.3", "-d", str(d), "--depth", "10", "--out", str(synth)]) == 0
        assert sorted(p.name for p in synth.iterdir()) == ["metadata.json", "points.csv"]
        meta = json.loads((synth / "metadata.json").read_text())
        assert meta == {"d": d, "depth": 10, "rescale_exponent": 3}
        assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                     "--u-min", "5", "--out", str(est)]) == 0
    assert json.loads((est / "box_dims.json").read_text())["membership"] == "passed"


def test_estimate_reads_a_sidecar_that_still_holds_parts(tmp_path):
    # sidecars written when synth still recorded its part count carry "parts", which nothing reads
    synth = tmp_path / "synth"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "h_kappa_lambda:0.9,0.3", "--depth", "10", "--out", str(synth)]) == 0
        meta = json.loads((synth / "metadata.json").read_text())
        (tmp_path / "old.json").write_text(json.dumps({**meta, "parts": 10}))
        for sidecar, est in ((synth / "metadata.json", "new"), (tmp_path / "old.json", "old")):
            assert main(["estimate", str(synth / "points.csv"), "--metadata", str(sidecar), "--u-min", "5",
                         "--out", str(tmp_path / est)]) == 0
    for name in ("beta_emp.csv", "g_profile.csv", "spectrum.csv", "box_dims.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


MALFORMED_SPECS = [
    ({"d": 1, "maps": 3}, "maps must be a list of map objects"),
    ({"d": 1, "maps": [{"ratio_exp": 2, "translation": 0.5}]}, "translation must be a list of numbers"),
    ({"d": [1], "maps": [{"ratio_exp": 2, "translation": [0.0]}]}, "d must be an integer, got [1]"),
    ({"d": 1, "maps": [{"ratio_exp": -2000, "translation": [0.0]}]}, "ratio_exp must be a positive integer, got -2000"),
    # integer fields are rejected, not truncated, when they are not JSON integers
    ({"d": 1.9, "maps": [{"ratio_exp": 2, "translation": [0.0]}]}, "d must be an integer, got 1.9"),
    ({"d": 1, "maps": [{"ratio_exp": 2.9, "translation": [0.0]}]}, "ratio_exp must be an integer, got 2.9"),
    ({"d": 1, "maps": [{"ratio_exp": 2, "translation": [None]}]}, "translation coordinate must be a number, got None"),
    # number fields are rejected, not converted, when they are strings or booleans
    ({"d": 1, "maps": [{"ratio": "0.5", "translation": [0.0]}]}, "ratio must be a number, got '0.5'"),
    ({"d": 1, "maps": [{"ratio": True, "translation": [0.0]}]}, "ratio must be a number, got True"),
    ({"d": 1, "maps": [{"ratio": 0.5, "translation": ["0.5"]}]}, "translation coordinate must be a number, got '0.5'"),
    ({"d": 1, "maps": [{"ratio": 0.5, "translation": [False]}]}, "translation coordinate must be a number, got False"),
    ({"d": 1, "maps": [{"ratio": "0.5", "translation": [False]}]}, "ratio must be a number, got '0.5'"),
    # containers of the wrong kind are named, not indexed into
    ({"d": 1, "maps": {"a": 1}}, "maps must be a list of map objects"),
    ({"d": 1, "maps": [1]}, "maps must be a list of map objects"),
    ([1, 2], "the spec must be a JSON object"),
    ({"d": 1, "maps": [{"ratio": 0.5, "translation": 0.3}]}, "translation must be a list of numbers"),
]


@pytest.mark.parametrize("spec, message", MALFORMED_SPECS, ids=[f"spec{i}" for i in range(len(MALFORMED_SPECS))])
def test_attractor_rejects_malformed_spec_with_one_error_line(tmp_path, capsys, spec, message):
    path = tmp_path / "ifs.json"
    path.write_text(json.dumps(spec))
    assert main(["attractor", str(path), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: malformed IFS spec: {message}"]
    assert not (tmp_path / "att").exists()



def test_estimate_rejects_levels_beyond_exact_ball_counts(tmp_path, capsys):
    # (1, 1) lies beyond distance 1 of the origin, so beta(u, 0) = 0 at every level;
    # from level 32 on, d = 2 squared gaps no longer fit in int64
    points = tmp_path / "two.csv"
    points.write_text("coord_0_num,coord_0_exp,coord_1_num,coord_1_exp\n0,0,0,0\n1,0,1,0\n")
    argv = ["estimate", str(points), "--depth", "40", "--u-min", "20", "--grid-step", "1"]
    assert main(argv + ["--u-max", "34", "--out", str(tmp_path / "deep")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: ball counts in d = 2 are exact only up to level 31, not 32"]
    assert not (tmp_path / "deep").exists()
    # a deeper request still names the shallowest level beyond the exact range
    assert main(argv + ["--u-max", "40", "--out", str(tmp_path / "deep")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: ball counts in d = 2 are exact only up to level 31, not 32"]

    assert main(argv + ["--u-max", "31", "--out", str(tmp_path / "est")]) == 0
    assert "31,0,0\n" in (tmp_path / "est" / "beta_emp.csv").read_text()


def test_estimate_rejects_levels_beyond_int64_cells(tmp_path, capsys):
    # x = 1 lies in the last cell at every level; at level 63 floor(2^63) wraps int64
    points = tmp_path / "one.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1,0\n")
    argv = ["estimate", str(points), "--depth", "70", "--u-min", "20", "--grid-step", "1"]
    assert main(argv + ["--u-max", "63", "--out", str(tmp_path / "deep")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: point cells are exact only up to level 62, not 63"]
    assert not (tmp_path / "deep").exists()
    assert main(argv + ["--u-max", "70", "--out", str(tmp_path / "deep")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: point cells are exact only up to level 62, not 63"]

    assert main(argv + ["--u-max", "62", "--out", str(tmp_path / "est")]) == 0
    assert "62,0,1\n" in (tmp_path / "est" / "beta_emp.csv").read_text()


@pytest.mark.parametrize("numerators, cells", [
    ([2**60 - 1, 2**60 - 2, 2**60 - 3], 3),
    ([2**59 + 1, 2**59], 2),
])
def test_estimate_counts_cells_of_numerators_beyond_float_precision(tmp_path, numerators, cells):
    # as floats these points round onto one level-60 cell; their exact cells are adjacent
    points = tmp_path / "close.csv"
    points.write_text("coord_0_num,coord_0_exp\n" + "".join(f"{n},60\n" for n in numerators))
    assert main(["estimate", str(points), "--depth", "60", "--u-max", "60", "--u-min", "20",
                 "--grid-step", "1", "--out", str(tmp_path / "est")]) == 0
    rows = (tmp_path / "est" / "beta_emp.csv").read_text().splitlines()
    assert f"60,0,{np.log2(cells):.15g}" in rows


@pytest.mark.parametrize("depth", [1024, 2000, -1])
def test_estimate_rejects_depths_without_a_float_scale(tmp_path, capsys, depth):
    points = tmp_path / "one.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1,0\n")
    code = main(["estimate", str(points), "--depth", str(depth), "--u-max", "4", "--u-min", "2",
                 "--out", str(tmp_path / "est")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: point depth must lie in [0, 1023], got {depth}"]


@pytest.mark.parametrize("meta, message", [
    ("[20]", "metadata must be a JSON object"),
    pytest.param("[" * 100_000, "malformed metadata: nested too deeply", id="nested"),
    ('{"depth": 12.5}', "metadata depth must be an integer, got 12.5"),
    ('{"depth": null}', "metadata depth must be an integer, got None"),
    ('{"depth": 2000}', "point depth must lie in [0, 1023], got 2000"),
    # d and rescale_exponent are integers too, and rescale_exponent is copied into box_dims.json
    ('{"d": 1.0, "depth": 4}', "metadata d must be an integer, got 1.0"),
    ('{"d": "1", "depth": 4}', "metadata d must be an integer, got '1'"),
    ('{"depth": 4, "rescale_exponent": "x"}', "metadata rescale_exponent must be an integer, got 'x'"),
    ('{"depth": 4, "rescale_exponent": true}', "metadata rescale_exponent must be an integer, got True"),
])
def test_estimate_rejects_malformed_metadata_with_one_error_line(tmp_path, capsys, meta, message):
    points = tmp_path / "one.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1,0\n")
    (tmp_path / "meta.json").write_text(meta)
    code = main(["estimate", str(points), "--metadata", str(tmp_path / "meta.json"), "--u-max", "4",
                 "--u-min", "2", "--out", str(tmp_path / "est")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize("u_max", [[], ["--u-max", "4"]], ids=["sample-depth", "u-max"])
def test_estimate_refuses_a_sidecar_d_that_the_point_list_contradicts(tmp_path, capsys, u_max):
    points = tmp_path / "two.csv"
    points.write_text("coord_0_num,coord_0_exp,coord_1_num,coord_1_exp\n0,0,0,0\n1,0,1,0\n")
    for d, code in ((3, 2), (1, 2), (2, 0)):
        (tmp_path / "meta.json").write_text(json.dumps({"d": d, "depth": 4, "rescale_exponent": 3}))
        out = tmp_path / f"est{d}"
        assert main(["estimate", str(points), "--metadata", str(tmp_path / "meta.json"), "--u-min", "2",
                     *u_max, "--out", str(out)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        if code:
            assert err == [f"error: the point list's dimension 2 differs from the sidecar's d {d}"]
            assert not out.exists()
        else:
            assert json.loads((out / "box_dims.json").read_text())["rescale_exponent"] == 3


def test_attractor_rejects_deeply_nested_spec_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "ifs.json"
    path.write_text("[" * 100_000)
    assert main(["attractor", str(path), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: malformed IFS spec: nested too deeply"]


def test_estimate_defaults_u_max_to_the_sample_depth(tmp_path, capsys):
    # the README pipeline: a depth-20 sample fixes beta only up to u = 20
    synth = tmp_path / "synth"
    assert main(["synth", "h_kappa_lambda:0.8,0.5", "-d", "1", "--depth", "20", "--out", str(synth)]) == 0
    argv = ["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"), "--u-min", "8"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    assert main(argv + ["--u-max", "20", "--out", str(tmp_path / "full")]) == 0
    for name in ("beta_emp.csv", "g_profile.csv", "spectrum.csv", "box_dims.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    assert json.loads((tmp_path / "default" / "box_dims.json").read_text())["window"] == [8.0, 20.0]
    # without a sidecar the sample depth is --depth
    capsys.readouterr()
    argv = ["estimate", str(synth / "points.csv"), "--depth", "12", "--u-min", "8", "--out", str(tmp_path / "d12")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "d12" / "box_dims.json").read_text())["window"] == [8.0, 12.0]


@pytest.mark.parametrize("meta", [None, '{"d": 1}'])
def test_estimate_refuses_to_guess_the_sample_depth(tmp_path, capsys, meta):
    # a guessed depth past what the sample resolves gave a window it cannot fill
    points = tmp_path / "one.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1,0\n")
    argv = ["estimate", str(points), "--u-min", "2", "--out", str(tmp_path / "est")]
    if meta is not None:
        (tmp_path / "meta.json").write_text(meta)
        argv += ["--metadata", str(tmp_path / "meta.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the sample depth is unknown: pass --metadata with a depth, or --depth"]
    assert not (tmp_path / "est").exists()


def test_estimate_floors_points_and_refuses_those_outside_the_cube(tmp_path, capsys):
    # 1 + 2^-20 lies beyond the EXACT_TOL slack but within half a depth-10 step,
    # which rounding onto the depth lattice used to pull into the cube
    points = tmp_path / "out.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1048577,20\n")
    argv = ["--depth", "10", "--u-min", "2", "--grid-step", "1"]
    assert main(["estimate", str(points)] + argv + ["--out", str(tmp_path / "est")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: points must lie in the unit cube [0, 1]^d"]
    # 1 + 2^-40 lies within the slack and counts in the last cell; 3/4 - 2^-20 is
    # floored into the cell below 3/4, where rounding put it in the one above
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1099511627777,40\n786431,20\n")
    assert main(["estimate", str(points)] + argv + ["--out", str(tmp_path / "est")]) == 0
    assert points_from_csv(points.read_text(), 10).cells_at_level(10).tolist() == [[0], [767], [1023]]


def test_attractor_names_both_dimensions_of_a_mismatched_condensation_set(tmp_path, capsys):
    (tmp_path / "cond.csv").write_text("coord_0_num,coord_0_exp,coord_1_num,coord_1_exp\n1,1,1,1\n")
    spec = tmp_path / "ifs.json"
    spec.write_text(json.dumps({
        "d": 1,
        "maps": [{"ratio_exp": 2, "translation": [0.0]}, {"ratio_exp": 2, "translation": [0.75]}],
        "condensation": "cond.csv",
    }))
    assert main(["attractor", str(spec), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: condensation points have dimension 2, the maps 1"]
    assert not (tmp_path / "att").exists()


def _readme_options():
    """{command: option set} from the README's options table."""
    rows = re.findall(r"^\| `(\w+) [^`]*` \| (.*) \|$", (Path(__file__).parents[1] / "README.md").read_text(), re.M)
    return {command: set(re.findall(r"--[a-z][a-z-]*", options)) for command, options in rows}


def test_readme_options_table_lists_each_command_s_options():
    table = _readme_options()
    assert sorted(table) == ["attractor", "estimate", "synth", "verify"]
    for command, options in table.items():
        usage = io.StringIO()
        with contextlib.redirect_stdout(usage), pytest.raises(SystemExit):
            main([command, "--help"])
        assert set(re.findall(r"--[a-z][a-z-]*", usage.getvalue())) - {"--help"} == options, command
