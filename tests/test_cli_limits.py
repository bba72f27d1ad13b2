"""Lattice options at and beyond their limits end in one ``error:`` line.

Non-finite scales and steps, lattices whose float table numpy cannot
describe, theta counts above the documented bound, plateau heights that are
not finite and nonnegative, ``h_kappa_lambda`` targets that are not two
numbers, negative verify seeds, dimensions below 1, ``synth`` depths below 1
or above 60 (refused before the target is built), ``synth`` and
``attractor`` depths beyond the float range, ``estimate``
windows that are empty, ``estimate`` depths that contradict the sidecar or
lie outside [0, 1023], a sample depth of 0 or a ``--grid-step`` that does
not divide the sample's scale range when ``--u-max`` is omitted (named by
the options given, not by a ``u_max`` never passed), IFS specs of dimension
below 1 or without a key they need, grid CSV rows with v > u or repeated, and
outputs that cannot be written are user errors (exit 2); a lattice too large to allocate is a resource failure (exit 3).
``synth`` has no lattice option: it samples its target on the default
lattice up to ``--depth``, so ``estimate``'s ``--grid-step`` and
``--u-max`` rows hold the lattice limits.
None of them may end in a traceback, and a failing command leaves ``--out``
as it was.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from twoscale import GridSpec, cone_extension, plateau_curve
from twoscale import cli
from twoscale.cli import EXIT_CAP, EXIT_OK, EXIT_USER, main
from twoscale.io import grid_to_csv
from twoscale.operators import MAX_THETA_COUNT

POINTS = "coord_0_num,coord_0_exp\n0,0\n1,2\n3,3\n1,0\n"


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code, lines[0]


@pytest.mark.parametrize("options, code, message", [
    (["-d", "0"], EXIT_USER, "dimension must be a positive integer, got 0"),
    (["-d", "-1"], EXIT_USER, "dimension must be a positive integer, got -1"),
    # exported numerators reach 5 * 2^depth
    (["--depth", "61"], EXIT_USER, "depth must be at most 60"),
    (["--depth", "62"], EXIT_USER, "depth must be at most 60"),
])
def test_synth_rejects_lattice_options_beyond_their_limits(tmp_path, options, code, message):
    argv = ["synth", "h_kappa_lambda:0.8,0.5", "--depth", "6", "--out", str(tmp_path / "out"), *options]
    got, line = run(argv)
    assert got == code and message in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("depth, message", [
    ("0", "error: depth must be at least 1, got 0"),
    ("61", "error: depth must be at most 60, got 61: "),
    ("800", "error: depth must be at most 60, got 800: "),
    ("100000", "error: depth must be at most 60, got 100000: "),
])
def test_synth_refuses_a_depth_it_cannot_synthesize_before_building_the_target(tmp_path, monkeypatch, depth, message):
    # a lattice sized to a depth of 100000 once ran out of memory before the depth was checked
    def unreachable(*args):
        raise AssertionError("the target was built")

    monkeypatch.setattr(cli, "_load_target_grid", unreachable)
    got, line = run(["synth", "h_kappa_lambda:0.8,0.5", "--depth", depth, "--out", str(tmp_path / "out")])
    assert got == EXIT_USER and line.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "attractor"])
def test_depths_beyond_the_float_range_end_in_one_error_line(tmp_path, command):
    spec = tmp_path / "ifs.json"
    spec.write_text('{"d": 1, "maps": [{"ratio_exp": 1, "translation": [0.0]}, '
                    '{"ratio_exp": 1, "translation": [0.5]}]}')
    source = {"synth": "h_kappa_lambda:0.8,0.5", "attractor": str(spec)}[command]
    argv = [command, source, "--depth", "1" + "0" * 400, "--out", str(tmp_path / "out")]
    assert run(argv) == (EXIT_USER, "error: --depth has 401 digits, more than a float holds")
    assert not (tmp_path / "out").exists()


def test_synth_depth_bound_is_where_exported_numerators_overflow(tmp_path):
    # a low plateau stays under the cube cap, so depth 61 used to reach the export
    argv = ["synth", "h_kappa_lambda:0.05,0.5", "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + [str(tmp_path / "out"), "--depth", "60"]) == 0
    assert (tmp_path / "out" / "points.csv").read_text().endswith(",60\n")  # every row at the depth
    got, line = run(argv + [str(tmp_path / "deep"), "--depth", "61"])
    assert got == EXIT_USER and "depth must be at most 60" in line
    assert not (tmp_path / "deep").exists()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_synth_depths_past_the_former_cube_code_width_reach_synthesis(tmp_path, d):
    # packed cube codes of d bits per level once refused depths past 62 // d; split
    # masks need no such bound, so a low plateau is written and a high one meets the cap
    for height, want in ((0.05, EXIT_OK), (0.75 * d, EXIT_CAP)):
        argv = ["synth", f"h_kappa_lambda:{height:g},0.3", "-d", str(d), "--depth", str(62 // d + 1),
                "--out", str(tmp_path / f"out{height:g}")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == want, err.getvalue()
    # depth 61 is still refused in every dimension
    got, line = run(["synth", "h_kappa_lambda:0.05,0.5", "-d", str(d), "--depth", "61",
                     "--out", str(tmp_path / "deep")])
    assert got == EXIT_USER and "depth must be at most 60" in line
    assert not (tmp_path / "deep").exists()


def test_lattice_bound_is_where_numpy_refuses_the_table():
    # 8 (n + 1)^2 bytes against the largest intp; numpy refuses without allocating
    GridSpec(2.0**30 - 2, 1.0)
    with pytest.raises(ValueError, match="float table exceeds"):
        GridSpec(2.0**30 - 1, 1.0)
    with pytest.raises(ValueError, match="too big"):
        np.empty((2**30, 2**30))


@pytest.mark.parametrize("height", ["inf", "nan", "-inf", "-1"])
def test_synth_rejects_plateau_heights_that_are_not_finite_and_nonnegative(tmp_path, height):
    argv = ["synth", f"h_kappa_lambda:{height},0.5", "--depth", "6", "--out", str(tmp_path / "out")]
    got, line = run(argv)
    assert got == EXIT_USER and "height must be nonnegative and finite" in line


@pytest.mark.parametrize("target", ["h_kappa_lambda:0.8", "h_kappa_lambda:0.8,0.5,1", "h_kappa_lambda:x,0.5",
                                    "h_kappa_lambda:"])
def test_synth_rejects_plateau_targets_that_are_not_two_numbers(tmp_path, target):
    got, line = run(["synth", target, "--depth", "6", "--out", str(tmp_path / "out")])
    assert got == EXIT_USER and "h_kappa_lambda takes <height>,<kink>" in line and repr(target) in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite", ["core", "operators", "attain", "inhomog", "all"])
def test_verify_rejects_a_negative_seed_for_every_suite(tmp_path, suite):
    got, line = run(["verify", suite, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert got == EXIT_USER and line == "error: --seed must be nonnegative, got -1"
    assert not (tmp_path / "out").exists()


def test_synth_refuses_an_output_that_is_a_directory_and_writes_nothing(tmp_path):
    out = tmp_path / "o"
    (out / "points.csv").mkdir(parents=True)
    got, line = run(["synth", "h_kappa_lambda:0.8,0.5", "--depth", "8", "--out", str(out)])
    assert got == EXIT_USER and line == f"error: cannot write {out}/points.csv: it is a directory"
    assert [p.name for p in out.iterdir()] == ["points.csv"]


def test_estimate_failing_over_earlier_outputs_leaves_them_as_they_were(tmp_path):
    (tmp_path / "points.csv").write_text(POINTS)
    out = tmp_path / "out"
    argv = ["estimate", str(tmp_path / "points.csv"), "--depth", "4", "--u-min", "1", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--u-max", "4"]) == 0
    (out / "spectrum.csv").unlink()
    (out / "spectrum.csv").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    # a shallower window: every file it would write differs from the earlier one
    got, line = run(argv + ["--u-max", "3"])
    assert got == EXIT_USER and "spectrum.csv" in line
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, "spectrum.csv"])


@pytest.mark.parametrize("options, code, message", [
    (["--u-max", "inf"], EXIT_USER, "positive and finite"),
    (["--u-max", "nan"], EXIT_USER, "positive and finite"),
    (["--grid-step", "inf"], EXIT_USER, "positive and finite"),
    (["--grid-step", "nan"], EXIT_USER, "positive and finite"),
    # a (4e6 + 1)^2 float table, 116 TiB: more than any machine allocates
    (["--grid-step", "1e-6"], EXIT_CAP, "out of memory"),
    # tables numpy refuses to describe at all
    (["--u-max", "1e10"], EXIT_USER, "u_max 10000000000.0 and step 0.25"),
    (["--u-max", "1e300"], EXIT_USER, "u_max 1e+300 and step 0.25"),
    (["--u-max", "1e300", "--grid-step", "1e-300"], EXIT_USER, "and step 1e-300"),
    (["--theta-step", "1e-300"], EXIT_USER, f"at most {MAX_THETA_COUNT}"),
    (["--theta-step", "5e-324"], EXIT_USER, f"at most {MAX_THETA_COUNT}"),
    (["--theta-step", str(0.5 / MAX_THETA_COUNT)], EXIT_USER, f"at most {MAX_THETA_COUNT}"),
    # 2^51 theta samples per window scale, 16 PiB of floats: more than any address space maps
    (["--theta-step", str(4.0 / MAX_THETA_COUNT)], EXIT_CAP, "out of memory"),
])
def test_estimate_rejects_lattice_options_beyond_their_limits(tmp_path, options, code, message):
    (tmp_path / "points.csv").write_text(POINTS)
    argv = ["estimate", str(tmp_path / "points.csv"), "--depth", "4", "--u-max", "4", "--u-min", "1",
            "--out", str(tmp_path / "out"), *options]
    got, line = run(argv)
    assert got == code and message in line


@pytest.mark.parametrize("window", [
    ["--u-max", "1", "--u-min", "0.5"],
    ["--u-min", "20", "--u-max", "12"],
    ["--u-min", "4", "--u-max", "4"],
    ["--u-min", "0", "--u-max", "4"],
    ["--u-min", "-1", "--u-max", "4"],
    ["--u-min", "nan", "--u-max", "4"],
])
def test_estimate_rejects_an_empty_window_before_reading_the_points(tmp_path, window):
    # the point file does not exist: the window is refused before it is read
    argv = ["estimate", str(tmp_path / "missing.csv"), "--depth", "4", "--out", str(tmp_path / "out"), *window]
    got, line = run(argv)
    assert got == EXIT_USER and line.startswith("error: the window [max(--u-min, 1), --u-max] must be nonempty")
    u_min, u_max = window[window.index("--u-min") + 1], window[window.index("--u-max") + 1]
    assert line.endswith(f"got --u-min {float(u_min):g} and --u-max {float(u_max):g}")
    assert not (tmp_path / "out").exists()


def test_estimate_accepts_fine_theta_steps(tmp_path):
    (tmp_path / "points.csv").write_text(POINTS)
    argv = ["estimate", str(tmp_path / "points.csv"), "--depth", "4", "--u-max", "4", "--u-min", "1",
            "--theta-step", str(1 / 8192), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 8192 + 2


@pytest.mark.parametrize("depth", ["12", "21"])
def test_estimate_refuses_a_depth_that_the_sidecar_contradicts(tmp_path, depth):
    # the point file does not exist: the contradiction is refused before it is read
    (tmp_path / "meta.json").write_text('{"depth": 20}')
    argv = ["estimate", str(tmp_path / "missing.csv"), "--metadata", str(tmp_path / "meta.json"),
            "--depth", depth, "--u-max", "16", "--u-min", "8", "--out", str(tmp_path / "out")]
    assert run(argv) == (EXIT_USER, f"error: --depth {depth} differs from the sidecar's depth 20")
    assert not (tmp_path / "out").exists()


def test_estimate_accepts_a_depth_that_the_sidecar_repeats(tmp_path):
    (tmp_path / "points.csv").write_text(POINTS)
    (tmp_path / "meta.json").write_text('{"depth": 4}')
    argv = ["estimate", str(tmp_path / "points.csv"), "--metadata", str(tmp_path / "meta.json"),
            "--depth", "4", "--u-min", "1", "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@pytest.mark.parametrize("depth", ["-1", "1024", pytest.param("1" + "0" * 400, id="401-digits")])
def test_estimate_checks_the_sample_depth_before_it_sets_the_scale_range(tmp_path, depth):
    # without --u-max the depth sets the lattice, so it is checked first
    argv = ["estimate", str(tmp_path / "missing.csv"), "--depth", depth, "--out", str(tmp_path / "out")]
    assert run(argv) == (EXIT_USER, f"error: point depth must lie in [0, 1023], got {depth}")
    (tmp_path / "meta.json").write_text(f'{{"depth": {depth}}}')
    argv = ["estimate", str(tmp_path / "missing.csv"), "--metadata", str(tmp_path / "meta.json"),
            "--out", str(tmp_path / "out")]
    assert run(argv) == (EXIT_USER, f"error: point depth must lie in [0, 1023], got {depth}")
    assert not (tmp_path / "out").exists()


TWO_POINTS = {
    1: "coord_0_num,coord_0_exp\n0,0\n1,0\n",
    2: "coord_0_num,coord_0_exp,coord_1_num,coord_1_exp\n0,0,0,0\n1,0,1,0\n",
    3: "coord_0_num,coord_0_exp,coord_1_num,coord_1_exp,coord_2_num,coord_2_exp\n0,0,0,0,0,0\n1,0,1,0,1,0\n",
}


@pytest.mark.parametrize("d, depth, u_min, top, refusal", [
    (1, 70, 16, 62, "point cells are exact only up to level 62, not 63"),
    (2, 40, 20, 31, "ball counts in d = 2 are exact only up to level 31, not 32"),
    (3, 40, 16, 30, "ball counts in d = 3 are exact only up to level 30, not 31"),
])
def test_estimate_defaults_u_max_to_the_deepest_exact_level(tmp_path, d, depth, u_min, top, refusal):
    (tmp_path / "two.csv").write_text(TWO_POINTS[d])
    out = tmp_path / "out"
    argv = ["estimate", str(tmp_path / "two.csv"), "--depth", str(depth), "--u-min", str(u_min), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert json.loads((out / "box_dims.json").read_text())["window"] == [float(u_min), float(top)]
    # one level deeper, asked for, is still refused
    assert run(argv + ["--u-max", str(top + 1)]) == (EXIT_USER, f"error: {refusal}")


@pytest.mark.parametrize("options, message", [
    (["--depth", "20", "--grid-step", "0.3"],
     "error: --grid-step 0.3 must divide the sample depth 20 into a whole number of steps, at most 2^30 - 2"),
    (["--depth", "40", "--grid-step", "0.3"],
     "error: --grid-step 0.3 must divide the deepest exact level 31 of d = 2 ball counts into a whole number "
     "of steps, at most 2^30 - 2"),
    (["--depth", "20", "--grid-step", "1e-300"],
     "error: --grid-step 1e-300 must divide the sample depth 20 into a whole number of steps, at most 2^30 - 2"),
    (["--depth", "20", "--grid-step", "inf"], "error: --grid-step must be positive and finite, got inf"),
    (["--depth", "0"], "error: the sample depth is 0, which leaves no scale to estimate"),
    (["--depth", "1"], "error: the window [max(--u-min, 1), the sample depth] must be nonempty with --u-min > 0, "
                       "got --u-min 16 and the sample depth 1"),
    (["--depth", "40", "--u-min", "31"],
     "error: the window [max(--u-min, 1), the deepest exact level] must be nonempty with --u-min > 0, "
     "got --u-min 31 and the deepest exact level 31 of d = 2 ball counts"),
])
def test_estimate_errors_name_the_options_given_when_u_max_is_omitted(tmp_path, options, message):
    (tmp_path / "two.csv").write_text(TWO_POINTS[2])
    argv = ["estimate", str(tmp_path / "two.csv"), "--out", str(tmp_path / "out"), *options]
    assert run(argv) == (EXIT_USER, message)
    assert "u_max" not in message
    assert not (tmp_path / "out").exists()


def test_estimate_refuses_a_sidecar_depth_of_0_before_reading_the_points(tmp_path):
    (tmp_path / "meta.json").write_text('{"depth": 0}')
    argv = ["estimate", str(tmp_path / "missing.csv"), "--metadata", str(tmp_path / "meta.json"),
            "--out", str(tmp_path / "out")]
    assert run(argv) == (EXIT_USER, "error: the sample depth is 0, which leaves no scale to estimate")


@pytest.mark.parametrize("spec, message", [
    ('{"d": 0, "maps": [{"ratio": 0.5, "translation": []}]}', "error: dimension must be a positive integer, got 0"),
    ('{"d": -1, "maps": [{"ratio": 0.5, "translation": [0.0]}]}',
     "error: dimension must be a positive integer, got -1"),
    ('{"maps": [{"ratio": 0.5, "translation": [0.0]}]}', "error: malformed IFS spec: missing key 'd'"),
    ('{"d": 1}', "error: malformed IFS spec: missing key 'maps'"),
    ('{"d": 1, "maps": [{"ratio": 0.5}]}', "error: malformed IFS spec: missing key 'translation'"),
    ('{"d": 1, "maps": [{"translation": [0.0]}]}', "error: malformed IFS spec: missing key 'ratio'"),
])
def test_attractor_rejects_dimensions_below_1_and_missing_spec_keys(tmp_path, spec, message):
    (tmp_path / "ifs.json").write_text(spec)
    assert run(["attractor", str(tmp_path / "ifs.json"), "--out", str(tmp_path / "out")]) == (EXIT_USER, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, message", [
    ("2,5,9", "error: grid CSV row (u, v) = (2, 5) has v > u"),
    ("8,0,3.25", "error: grid CSV row (u, v) = (8, 0) appears twice"),
])
def test_synth_rejects_grid_rows_above_the_diagonal_or_repeated(tmp_path, row, message):
    # such a row used to be dropped, or to replace the earlier one, without a word
    target = cone_extension(plateau_curve(0.8, 0.5), GridSpec(8.0, 0.25))
    (tmp_path / "g.csv").write_text(grid_to_csv(target) + row + "\n")
    assert run(["synth", str(tmp_path / "g.csv"), "--depth", "8", "--out", str(tmp_path / "out")]) == (EXIT_USER, message)
    assert not (tmp_path / "out").exists()
