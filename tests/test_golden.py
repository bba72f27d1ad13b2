"""Golden digests of the CLI outputs for the README commands.

Each output file must hash to its entry in ``golden_digests.json``, so a
refactor that changes any output byte fails here.  The ``verify all`` report
digest is checked in ``test_acceptance.py`` from the criterion runs made there.
"""

import hashlib
import json

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


def digests(out, run: str) -> dict:
    return {f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def expected(golden: dict, run: str) -> dict:
    return {k: v for k, v in golden.items() if k.startswith(run + "/")}


def test_readme_synth_estimate_outputs(tmp_path, golden):
    synth, est = tmp_path / "synth", tmp_path / "est"
    assert main(["synth", "h_kappa_lambda:0.8,0.5", "-d", "1", "--depth", "20",
                 "--out", str(synth)]) == 0
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "16", "--u-min", "8", "--out", str(est)]) == 0
    assert digests(synth, "synth") == expected(golden, "synth")
    assert digests(est, "estimate") == expected(golden, "estimate")


def test_d2_synth_estimate_outputs(tmp_path, golden):
    # d >= 2 ball counts and the whole-set profile of a d = 2 sample
    synth, est = tmp_path / "synth_d2", tmp_path / "estimate_d2"
    assert main(["synth", "h_kappa_lambda:1.45,0.3", "-d", "2", "--depth", "12",
                 "--out", str(synth)]) == 0
    assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                 "--u-max", "10", "--u-min", "5", "--out", str(est)]) == 0
    assert digests(synth, "synth_d2") == expected(golden, "synth_d2")
    assert digests(est, "estimate_d2") == expected(golden, "estimate_d2")


def attractor_digests(tmp_path, spec: dict, run: str) -> dict:
    path = tmp_path / f"{run}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / run
    assert main(["attractor", str(path), "--depth", "12", "--out", str(out)]) == 0
    return digests(out, run)


def test_two_map_attractor_outputs(tmp_path, golden):
    assert attractor_digests(tmp_path, TWO_MAP_SPEC, "attractor") == expected(golden, "attractor")


def test_three_map_d2_float_attractor_outputs(tmp_path, golden):
    run = "attractor_d2"
    assert attractor_digests(tmp_path, THREE_MAP_D2_SPEC, run) == expected(golden, run)
