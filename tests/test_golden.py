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


def test_two_map_attractor_outputs(tmp_path, golden):
    spec = tmp_path / "ifs.json"
    spec.write_text(json.dumps(TWO_MAP_SPEC))
    out = tmp_path / "attractor"
    assert main(["attractor", str(spec), "--depth", "12", "--out", str(out)]) == 0
    assert digests(out, "attractor") == expected(golden, "attractor")
