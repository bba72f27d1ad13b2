"""Golden digests and stdout of the CLI commands for the README commands.

Each output file must hash to its entry in ``golden_digests.json``, and each
command must print exactly its pinned stdout, so a refactor that changes any
output byte fails here.  The ``verify all`` report digest at seed 0 is
checked in ``test_acceptance.py`` from the criterion runs made there; the
``core`` and ``operators`` reports are pinned here at seeds 1 and 2.
"""

import hashlib
import json

import pytest

from twoscale.cli import main

TWO_MAP_SPEC = {
    "d": 1,
    "maps": [{"ratio_exp": 2, "translation": [0.0]}, {"ratio_exp": 2, "translation": [0.75]}],
}
# float ratios in d = 2: pins the row dedup order and the %.17g point rows
THREE_MAP_D2_SPEC = {
    "d": 2,
    "maps": [
        {"ratio": 0.3, "translation": [0.0, 0.0]},
        {"ratio": 0.4, "translation": [0.6, 0.1]},
        {"ratio": 0.25, "translation": [0.2, 0.7]},
    ],
}
# d = 3, dyadic beside float ratios; the first map's -0.0 translation gives a
# -0.0 fixed point coordinate, whose images are the words' translations, never -0.0
FOUR_MAP_D3_SPEC = {
    "d": 3,
    "maps": [
        {"ratio_exp": 2, "translation": [-0.0, 0.0, 0.75]},
        {"ratio": 0.3, "translation": [0.7, 0.1, 0.0]},
        {"ratio_exp": 3, "translation": [0.1, 0.8, 0.5]},
        {"ratio": 0.35, "translation": [0.4, 0.6, 0.2]},
    ],
}

# a condensation point list on the 2^-4 lattice, one row written at a finer
# exponent: read as written, it gives the same outputs as its points rounded
# onto that lattice, which these digests pin
CSV_CONDENSATION_SPEC = {**TWO_MAP_SPEC, "condensation": "cond.csv"}
CSV_CONDENSATION = "coord_0_num,coord_0_exp\n0,0\n1,3\n6,5\n"


def digests(out, run: str) -> dict:
    return {f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def expected(golden: dict, run: str) -> dict:
    return {k: v for k, v in golden.items() if k.startswith(run + "/")}


def test_readme_synth_estimate_outputs(tmp_path, golden, capsys):
    synth, est = tmp_path / "synth", tmp_path / "est"
    assert main(["synth", "h_kappa_lambda:0.8,0.5", "-d", "1", "--depth", "20",
                 "--out", str(synth)]) == 0
    assert capsys.readouterr().out == f"wrote {synth}/points.csv, metadata.json\n"
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "16", "--u-min", "8", "--out", str(est)]) == 0
    assert capsys.readouterr().out == f"wrote {est}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json\n"
    assert digests(synth, "synth") == expected(golden, "synth")
    assert digests(est, "estimate") == expected(golden, "estimate")


def test_d2_synth_estimate_outputs(tmp_path, golden, capsys):
    # d >= 2 ball counts and the whole-set profile of a d = 2 sample
    synth, est = tmp_path / "synth_d2", tmp_path / "estimate_d2"
    assert main(["synth", "h_kappa_lambda:1.45,0.3", "-d", "2", "--depth", "12",
                 "--out", str(synth)]) == 0
    assert capsys.readouterr().out == f"wrote {synth}/points.csv, metadata.json\n"
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "10", "--u-min", "5", "--out", str(est)]) == 0
    assert capsys.readouterr().out == f"wrote {est}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json\n"
    assert digests(synth, "synth_d2") == expected(golden, "synth_d2")
    assert digests(est, "estimate_d2") == expected(golden, "estimate_d2")


def test_d3_synth_estimate_outputs(tmp_path, golden, capsys):
    # d >= 3 ball counts, whose squared gaps sum three axes
    synth, est = tmp_path / "synth_d3", tmp_path / "estimate_d3"
    assert main(["synth", "h_kappa_lambda:2.2,0.3", "-d", "3", "--depth", "10",
                 "--out", str(synth)]) == 0
    assert capsys.readouterr().out == f"wrote {synth}/points.csv, metadata.json\n"
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "10", "--u-min", "5", "--out", str(est)]) == 0
    assert capsys.readouterr().out == f"wrote {est}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json\n"
    assert digests(synth, "synth_d3") == expected(golden, "synth_d3")
    assert digests(est, "estimate_d3") == expected(golden, "estimate_d3")


def test_d4_synth_estimate_outputs(tmp_path, golden, capsys):
    # d = 4: 4-bit child indices and 16-child splits in the trees, four-axis squared gaps
    synth, est = tmp_path / "synth_d4", tmp_path / "estimate_d4"
    assert main(["synth", "h_kappa_lambda:1.6,0.3", "-d", "4", "--depth", "10",
                 "--out", str(synth)]) == 0
    assert capsys.readouterr().out == f"wrote {synth}/points.csv, metadata.json\n"
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "10", "--u-min", "5", "--out", str(est)]) == 0
    assert capsys.readouterr().out == f"wrote {est}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json\n"
    assert digests(synth, "synth_d4") == expected(golden, "synth_d4")
    assert digests(est, "estimate_d4") == expected(golden, "estimate_d4")


@pytest.mark.parametrize("run, argv", [
    ("synth_d3_depth21", ["h_kappa_lambda:1.2,0.3", "-d", "3", "--depth", "21"]),
    ("synth_d4_depth16", ["h_kappa_lambda:1.5,0.3", "-d", "4", "--depth", "16"]),
])
def test_synth_outputs_past_the_former_cube_code_width(tmp_path, golden, capsys, run, argv):
    # one level past the depths that 62-bit packed cube codes allowed in d = 3 and
    # d = 4; the d = 3 set writes 210,134 rows
    out = tmp_path / run
    assert main(["synth", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}/points.csv, metadata.json\n"
    assert digests(out, run) == expected(golden, run)


def test_half_step_d2_synth_estimate_outputs(tmp_path, golden, capsys):
    # synth reads the target only at integer levels, so its digests equal
    # synth_d2's; the estimate, on a lattice of step 0.5, writes its own grid
    synth, est = tmp_path / "synth_d2_step05", tmp_path / "estimate_d2_step05"
    assert main(["synth", "h_kappa_lambda:1.45,0.3", "-d", "2", "--depth", "12", "--out", str(synth)]) == 0
    assert capsys.readouterr().out == f"wrote {synth}/points.csv, metadata.json\n"
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "10", "--u-min", "5", "--grid-step", "0.5", "--out", str(est)]) == 0
    assert capsys.readouterr().out == f"wrote {est}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json\n"
    assert digests(synth, "synth_d2_step05") == expected(golden, "synth_d2_step05")
    assert digests(est, "estimate_d2_step05") == expected(golden, "estimate_d2_step05")


def attractor_digests(tmp_path, capsys, spec: dict, run: str) -> dict:
    path = tmp_path / f"{run}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / run
    assert main(["attractor", str(path), "--depth", "12", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}/attractor_points.csv, attractor_info.json\n"
    return digests(out, run)


def test_two_map_attractor_outputs(tmp_path, golden, capsys):
    assert attractor_digests(tmp_path, capsys, TWO_MAP_SPEC, "attractor") == expected(golden, "attractor")


def test_three_map_d2_float_attractor_outputs(tmp_path, golden, capsys):
    run = "attractor_d2"
    assert attractor_digests(tmp_path, capsys, THREE_MAP_D2_SPEC, run) == expected(golden, run)


def test_four_map_d3_attractor_outputs(tmp_path, golden, capsys):
    run = "attractor_d3"
    assert attractor_digests(tmp_path, capsys, FOUR_MAP_D3_SPEC, run) == expected(golden, run)


def test_csv_condensation_attractor_outputs(tmp_path, golden, capsys):
    run = "attractor_csv_condensation"
    (tmp_path / "cond.csv").write_text(CSV_CONDENSATION)
    assert attractor_digests(tmp_path, capsys, CSV_CONDENSATION_SPEC, run) == expected(golden, run)


@pytest.mark.parametrize("suite, seed", [("core", 1), ("core", 2), ("operators", 1), ("operators", 2)])
def test_verify_reports_at_more_seeds(tmp_path, golden, capsys, suite, seed):
    run = f"verify_{suite}_seed{seed}"
    out = tmp_path / run
    assert main(["verify", suite, "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    assert digests(out, run) == expected(golden, run)


def test_verify_out_prints_its_criteria_and_no_wrote_line(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "attain", "--seed", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().out == (
        "criterion  4 [PASS] attainability envelope: worst_margin=-4, witness_u=0, witness_v=0, "
        "fitted_c1_at_c2_2=0, max_raw_deviation=2.995\n"
        "criterion  5 [FAIL] spectrum recovery: sup_deviation=1.785, witness_theta=0.9375, "
        "endpoint_gap=1.785, tolerance=0.1, window=[15, 19]\n"
        "criterion 11 [PASS] empirical membership: grids_checked=1, failures=0\n"
    )
    assert [p.name for p in out.iterdir()] == ["verify_report.json"]
