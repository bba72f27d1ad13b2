"""Seeded workloads: CLI argv and input files from a seed, plus output checks.

Each workload builder takes the benchmark seed and a scratch directory, writes
whatever input files the pipeline reads there, and returns the CLI steps to
run.  ``reduced=True`` gives the same pipeline at a size small enough for a
warm-up pass or a self-test.  The program sees only these files and argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    label: str
    argv: list
    expected_rc: int


@dataclass(frozen=True)
class Pipeline:
    steps: list
    outputs: list  # directories whose files make up the output digest
    check: Callable[[], list]  # returns a list of problems, empty when correct


def synth_estimate_d2(seed: int, work: Path, reduced: bool = False) -> Pipeline:
    """Synthesize a d = 2 dyadic set, then estimate its covering statistics.

    The step quantization makes the set piecewise constant in the height:
    every height in [1.45, 1.5) gives the same 88,422 points (142,623 cubes),
    [1.5, ~1.54) gives 91,542 points and 10% more time, and beyond that the
    trees jump to 201,423 cubes.  One class keeps the seeds comparable.
    """
    height = random.Random(seed).uniform(1.45, 1.5)
    depth, u_max, u_min = (8, 6, 3) if reduced else (14, 12, 6)
    synth, est = work / "synth", work / "estimate"
    steps = [
        Step("synth", ["synth", f"h_kappa_lambda:{height!r},0.3", "-d", "2",
                       "--depth", str(depth), "--out", str(synth)], 0),
        Step("estimate", ["estimate", str(synth / "points.csv"),
                          "--metadata", str(synth / "metadata.json"),
                          "--u-max", str(u_max), "--u-min", str(u_min), "--out", str(est)], 0),
    ]

    def check() -> list:
        box = json.loads((est / "box_dims.json").read_text())
        problems = []
        if box["membership"] != "passed":
            problems.append(f"membership: {box['membership']}")
        if not 0.0 <= box["lower_box"] <= box["upper_box"] <= 2.0:
            problems.append(f"box dims out of order: {box['lower_box']}, {box['upper_box']}")
        return problems

    return Pipeline(steps, [synth, est], check)


def attractor_third(seed: int, work: Path, reduced: bool = False) -> Pipeline:
    """Sample the attractor of three maps of float ratio 1/3 on [0, 1]."""
    rng = random.Random(seed)
    spec = {
        "d": 1,
        "maps": [{"ratio": 1.0 / 3.0, "translation": [rng.uniform(0.0, 2.0 / 3.0)]}
                 for _ in range(3)],
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "ifs.json").write_text(json.dumps(spec) + "\n")
    out = work / "attractor"
    depth = 8 if reduced else 18
    steps = [Step("attractor", ["attractor", str(work / "ifs.json"),
                                "--depth", str(depth), "--out", str(out)], 0)]

    def check() -> list:
        info = json.loads((out / "attractor_info.json").read_text())
        rows = (out / "attractor_points.csv").read_text().splitlines()[1:]
        xs = [float(r) for r in rows]
        problems = []
        if len(xs) != info["points"]:
            problems.append(f"{len(xs)} points in the CSV, {info['points']} in the info file")
        if xs and not (min(xs) >= 0.0 and max(xs) <= 1.0):
            problems.append(f"points outside [0, 1]: min {min(xs)}, max {max(xs)}")
        if abs(info["moran_exponent"] - 1.0) > 1e-6:
            problems.append(f"moran_exponent {info['moran_exponent']} is not 1")
        return problems

    return Pipeline(steps, [out], check)


# criterion 5 (spectrum recovery) is a known, documented failure: a strict xfail
EXPECTED_FAILING = {5}


def verify_all(seed: int, work: Path, reduced: bool = False) -> Pipeline:
    """Run the verification criteria; ``reduced`` runs the cheap attain suite."""
    out = work / "verify"
    suite = "attain" if reduced else "all"
    steps = [Step("verify", ["verify", suite, "--seed", str(seed), "--out", str(out)], 1)]

    def check() -> list:
        report = json.loads((out / "verify_report.json").read_text())
        failing = {c["id"] for c in report["criteria"] if not c["passed"]}
        expected = EXPECTED_FAILING & {c["id"] for c in report["criteria"]}
        if failing != expected:
            return [f"failing criteria {sorted(failing)}, expected {sorted(expected)}"]
        return []

    return Pipeline(steps, [out], check)


WORKLOADS = {
    "synth-estimate-d2": synth_estimate_d2,
    "attractor-third": attractor_third,
    "verify-all": verify_all,
}


def _strip_timing(value):
    """Drop JSON keys that hold timings (``*_s``, ``*_seconds``) at any depth."""
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items()
                if not (k.endswith("_s") or k.endswith("_seconds"))}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def output_digest(pipeline: Pipeline) -> str:
    """sha256 over every output file, name and content, timing fields excluded."""
    h = hashlib.sha256()
    for root in pipeline.outputs:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.suffix == ".json":
                data = json.dumps(_strip_timing(json.loads(data)), sort_keys=True).encode()
            h.update(f"{root.name}/{path.relative_to(root)}\0".encode())
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()
