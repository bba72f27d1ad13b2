"""Command-line front end: synthesize sets, estimate dimensions, verify.

Exit codes: 0 success, 1 failed verification criteria, 2 user error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as tsio
from .covering import average_profile, box_dims, empirical_branching, spectrum_estimate
from .grids import CapExceeded, GridSpec, PiecewiseLinear, validate_branching
from .ifs import critical_exponent, generate_attractor
from .operators import cone_extension, plateau_curve
from .synthesis import export_points, synthesize_set
from .verify import run_suite

EXIT_OK = 0
EXIT_CRITERIA = 1
EXIT_USER = 2
EXIT_CAP = 3


def _load_target_grid(spec_arg: str, grid_spec: GridSpec):
    """Resolve a target-grid argument: CSV path, gamma_inverse:, or h_kappa_lambda:."""
    if spec_arg.startswith("h_kappa_lambda:"):
        kappa, lam = (float(x) for x in spec_arg.split(":", 1)[1].split(","))
        return cone_extension(plateau_curve(kappa, lam), grid_spec)
    if spec_arg.startswith("gamma_inverse:"):
        curve = tsio.curve_from_csv(Path(spec_arg.split(":", 1)[1]).read_text())
        return cone_extension(curve, grid_spec)
    return tsio.grid_from_csv(Path(spec_arg).read_text())


def cmd_synth(args) -> int:
    out = Path(args.out)
    grid_spec = GridSpec(max(args.u_max, float(args.depth)), args.grid_step)
    grid = _load_target_grid(args.psi_spec, grid_spec)
    report = validate_branching(grid, args.dimension, tol=args.grid_step * args.dimension)
    if not report.passed:
        print(f"error: target grid fails the branching axioms: {report.summary()}", file=sys.stderr)
        for v in report.violations[:10]:
            print(f"  {v.prop} at {v.witness}: {v.magnitude:.6g}", file=sys.stderr)
        return EXIT_USER
    composite = synthesize_set(grid, args.dimension, args.depth)
    points = export_points(composite, args.depth)
    trees = "\n".join(
        f"# part {b}\n{tsio.tree_to_text(tree)}" for b, tree in composite.parts
    )
    tsio.atomic_write(out / "points.csv", tsio.points_to_csv(points))
    tsio.atomic_write(out / "tree.txt", trees)
    tsio.write_set_metadata(
        out / "metadata.json",
        args.dimension,
        args.depth,
        points.rescale_exponent,
        {"parts": len(composite.parts)},
    )
    print(f"wrote {out}/points.csv, tree.txt, metadata.json")
    return EXIT_OK


def cmd_estimate(args) -> int:
    out = Path(args.out)
    meta = tsio.read_set_metadata(Path(args.metadata).read_text()) if args.metadata else {}
    depth = meta.get("depth", args.depth)
    pts = tsio.points_from_csv(Path(args.points).read_text(), depth)
    spec = GridSpec(args.u_max, args.grid_step)
    if spec.u_max > pts.max_covering_level:
        raise ValueError(
            f"u_max {spec.u_max} exceeds the sample depth {pts.max_covering_level}; "
            "pass a deeper sample or a smaller --u-max"
        )
    coverage = empirical_branching(pts, spec)
    us, gs = average_profile(pts, int(spec.u_max))
    curve = spectrum_estimate(coverage, args.u_min, args.theta_step)
    lo, hi = box_dims(us, gs, (max(args.u_min, 1.0), spec.u_max))
    profile = PiecewiseLinear.from_samples(us, gs)
    tsio.atomic_write(out / "beta_emp.csv", tsio.grid_to_csv(coverage.grid))
    tsio.atomic_write(out / "g_profile.csv", tsio.profile_to_csv(profile))
    tsio.atomic_write(out / "spectrum.csv", tsio.curve_to_csv(curve))
    box = {
        "lower_box": lo,
        "upper_box": hi,
        "window": [max(args.u_min, 1.0), spec.u_max],
        "quasi_assouad_estimate": curve.endpoint,
        "membership": coverage.membership.summary(),
        "rescale_exponent": meta.get("rescale_exponent", 0),
    }
    tsio.atomic_write(out / "box_dims.json", json.dumps(box, sort_keys=True) + "\n")
    print(f"wrote {out}/beta_emp.csv, g_profile.csv, spectrum.csv, box_dims.json")
    return EXIT_OK


def cmd_attractor(args) -> int:
    out = Path(args.out)
    ifs = tsio.ifs_from_json(Path(args.ifs).read_text(), Path(args.ifs).parent)
    sample = generate_attractor(ifs, None, args.depth)
    info = {
        "moran_exponent": critical_exponent(ifs, "moran"),
        "counting_exponent": critical_exponent(ifs, "counting", resolution=min(args.depth, 24.0)),
        "strongly_separated": ifs.strongly_separated,
        "points": int(sample.points.shape[0]),
        "depth": args.depth,
    }
    info.update(sample.metadata)
    header = ",".join(f"coord_{q}" for q in range(ifs.dimension)) + "\n"
    row = ",".join(["%.17g"] * ifs.dimension) + "\n"
    text = (header + row * sample.points.shape[0]) % tuple(sample.points.ravel().tolist())
    tsio.atomic_write(out / "attractor_points.csv", text)
    tsio.atomic_write(out / "attractor_info.json", json.dumps(info, sort_keys=True) + "\n")
    print(f"wrote {out}/attractor_points.csv, attractor_info.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    for r in results:
        print(r.line())
    if args.out:
        tsio.atomic_write(Path(args.out) / "verify_report.json", json.dumps(payload, sort_keys=True, default=float) + "\n")
    else:
        print(json.dumps(payload, sort_keys=True, default=float))
    return EXIT_OK if payload["all_passed"] else EXIT_CRITERIA


_OPTIONS = {
    "--grid-step": {"type": float, "default": 0.25},
    "--u-max": {"type": float, "default": 64.0},
    "--theta-step": {"type": float, "default": 1.0 / 64.0},
    "--u-min": {"type": float, "default": 16.0},
    "--depth": {"type": int, "default": 20},
    "--out": {"default": "out"},
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="twoscale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="materialize a dyadic set realizing a target grid")
    p.add_argument("psi_spec", help="grid CSV, gamma_inverse:<curve.csv>, or h_kappa_lambda:k,l")
    p.add_argument("-d", "--dimension", type=int, default=1)
    _add_options(p, "--grid-step", "--u-max", "--depth", "--out")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("estimate", help="covering statistics and spectra of a point sample")
    p.add_argument("points", help="point list CSV")
    p.add_argument("--metadata", help="metadata JSON sidecar", default=None)
    _add_options(p, "--grid-step", "--u-max", "--theta-step", "--u-min", "--depth", "--out")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("attractor", help="sample an inhomogeneous attractor from an IFS spec")
    p.add_argument("ifs", help="IFS spec JSON")
    _add_options(p, "--depth", "--out")
    p.set_defaults(fn=cmd_attractor)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["core", "operators", "attain", "inhomog", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
