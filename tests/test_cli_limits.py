"""Lattice options at and beyond their limits end in one ``error:`` line.

Non-finite scales and steps, theta counts above the documented bound and
dimensions below 1 are user errors (exit 2); a lattice too large to allocate
is a resource failure (exit 3).  None of them may end in a traceback.
"""

import contextlib
import io

import pytest

from twoscale.cli import EXIT_CAP, EXIT_USER, main
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
    (["--u-max", "inf"], EXIT_USER, "positive and finite"),
    (["--u-max", "nan"], EXIT_USER, "positive and finite"),
    (["--grid-step", "inf"], EXIT_USER, "positive and finite"),
    (["--grid-step", "nan"], EXIT_USER, "positive and finite"),
    (["-d", "0"], EXIT_USER, "dimension must be at least 1"),
    (["-d", "-1"], EXIT_USER, "dimension must be at least 1"),
    # a (4e8 + 1)^2 float table, 1.1 EiB: more than any address space maps
    (["--u-max", "1e8"], EXIT_CAP, "out of memory"),
])
def test_synth_rejects_lattice_options_beyond_their_limits(tmp_path, options, code, message):
    argv = ["synth", "h_kappa_lambda:0.8,0.5", "--depth", "6", "--out", str(tmp_path / "out"), *options]
    got, line = run(argv)
    assert got == code and message in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("options, code, message", [
    (["--u-max", "inf"], EXIT_USER, "positive and finite"),
    (["--u-max", "nan"], EXIT_USER, "positive and finite"),
    (["--grid-step", "inf"], EXIT_USER, "positive and finite"),
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


def test_estimate_accepts_fine_theta_steps(tmp_path):
    (tmp_path / "points.csv").write_text(POINTS)
    argv = ["estimate", str(tmp_path / "points.csv"), "--depth", "4", "--u-max", "4", "--u-min", "1",
            "--theta-step", str(1 / 8192), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 8192 + 2
