import json

import pytest

from twoscale.cli import main


def test_synth_estimate_pipeline(tmp_path):
    out = tmp_path / "synth"
    code = main([
        "synth", "h_kappa_lambda:0.8,0.5", "-d", "1",
        "--depth", "12", "--u-max", "12", "--out", str(out),
    ])
    assert code == 0
    assert (out / "points.csv").exists()
    assert (out / "tree.txt").exists()
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
        "--depth", "8", "--u-max", "8", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_synth_cap_exit_code(tmp_path):
    code = main([
        "synth", "h_kappa_lambda:1.0,0.0", "-d", "1",
        "--depth", "40", "--u-max", "40", "--out", str(tmp_path / "x"),
    ])
    assert code == 3


def test_estimate_rejects_overdeep_grid(tmp_path):
    out = tmp_path / "synth"
    assert main([
        "synth", "h_kappa_lambda:0.5,0.5", "-d", "1",
        "--depth", "8", "--u-max", "8", "--out", str(out),
    ]) == 0
    code = main([
        "estimate", str(out / "points.csv"), "--metadata", str(out / "metadata.json"),
        "--u-max", "32", "--out", str(tmp_path / "est"),
    ])
    assert code == 2


def test_estimate_rejects_empty_points(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("coord_0_num,coord_0_exp\n")
    code = main(["estimate", str(bad), "--out", str(tmp_path / "est")])
    assert code == 2


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


def test_synth_outputs_are_byte_identical(tmp_path):
    args = ["synth", "h_kappa_lambda:0.7,0.25", "-d", "1", "--depth", "10",
            "--u-max", "10"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("points.csv", "tree.txt", "metadata.json"):
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


@pytest.mark.parametrize("argv", [
    ["synth", "h_kappa_lambda:0.8,0.5", "--seed", "3"],
    ["synth", "h_kappa_lambda:0.8,0.5", "--u-min", "4"],
    ["estimate", "points.csv", "--seed", "3"],
    ["attractor", "ifs.json", "--u-min", "99"],
    ["attractor", "ifs.json", "--theta-step", "7"],
])
def test_commands_reject_options_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_synth_error_after_synthesis_leaves_no_partial_output(tmp_path, capsys):
    # tree files hold single-digit children, so d = 4 fails after synthesis
    out = tmp_path / "x"
    code = main(["synth", "h_kappa_lambda:0.5,0.5", "-d", "4", "--depth", "4", "--u-max", "4",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tree files")
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"d": 1, "maps": 3},
    {"d": 1, "maps": [{"ratio_exp": 2, "translation": 0.5}]},
    {"d": [1], "maps": [{"ratio_exp": 2, "translation": [0.0]}]},
    {"d": 1, "maps": [{"ratio_exp": -2000, "translation": [0.0]}]},
    # integer fields are rejected, not truncated, when they are not JSON integers
    {"d": 1.9, "maps": [{"ratio_exp": 2, "translation": [0.0]}]},
    {"d": 1, "maps": [{"ratio_exp": 2.9, "translation": [0.0]}]},
    {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}], "condensation_depth": 8.5},
])
def test_attractor_rejects_malformed_spec_with_one_error_line(tmp_path, capsys, spec):
    path = tmp_path / "ifs.json"
    path.write_text(json.dumps(spec))
    assert main(["attractor", str(path), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed IFS spec")
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

    assert main(argv + ["--u-max", "62", "--out", str(tmp_path / "est")]) == 0
    assert "62,0,1\n" in (tmp_path / "est" / "beta_emp.csv").read_text()


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
])
def test_estimate_rejects_malformed_metadata_with_one_error_line(tmp_path, capsys, meta, message):
    points = tmp_path / "one.csv"
    points.write_text("coord_0_num,coord_0_exp\n0,0\n1,0\n")
    (tmp_path / "meta.json").write_text(meta)
    code = main(["estimate", str(points), "--metadata", str(tmp_path / "meta.json"), "--u-max", "4",
                 "--u-min", "2", "--out", str(tmp_path / "est")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


def test_attractor_rejects_deeply_nested_spec_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "ifs.json"
    path.write_text("[" * 100_000)
    assert main(["attractor", str(path), "--depth", "8", "--out", str(tmp_path / "att")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["error: malformed IFS spec: nested too deeply"]
