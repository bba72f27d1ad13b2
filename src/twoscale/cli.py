"""Command-line front end: synthesize sets, estimate dimensions, verify.

Exit codes: 0 success, 1 failed verification criteria, 2 user error,
3 resource cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as tsio
from .covering import _deepest_ball_level, box_dims, empirical_branching
from .grids import CapExceeded, DEFAULT_GRID_STEP, GridSpec, PiecewiseLinear, validate_branching
from .ifs import counting_exponent, critical_exponent, generate_attractor
from .operators import DEFAULT_THETA_STEP, assouad_spectrum, cone_extension, plateau_curve, scaling_limit
from .synthesis import EXPORT_RESCALE_EXP, check_dimension, check_synthesis_depth, export_points, synthesize_set
from .verify import SUITES, report_payload, run_suite

EXIT_OK = 0
EXIT_CRITERIA = 1
EXIT_USER = 2
EXIT_CAP = 3


def _load_target_grid(spec_arg: str, grid_spec: GridSpec):
    """Resolve a target-grid argument: CSV path, gamma_inverse:, or h_kappa_lambda:."""
    if spec_arg.startswith("h_kappa_lambda:"):
        try:
            kappa, lam = map(float, spec_arg.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"h_kappa_lambda takes <height>,<kink>, two numbers, not {spec_arg!r}") from None
        return cone_extension(plateau_curve(kappa, lam), grid_spec)
    if spec_arg.startswith("gamma_inverse:"):
        curve = tsio.curve_from_csv(Path(spec_arg.split(":", 1)[1]).read_text())
        return cone_extension(curve, grid_spec)
    return tsio.grid_from_csv(Path(spec_arg).read_text())


def _lattice_to(u_max: int, step: float, scale: str) -> GridSpec:
    """The lattice of ``step`` up to ``u_max``, a scale range the user did not pass.

    It is refused in terms of the options they did pass: ``--grid-step``, and
    the ``scale`` that set ``u_max``.
    """
    try:
        return GridSpec(float(u_max), step)
    except ValueError:
        if not 0 < step < np.inf:
            raise ValueError(f"--grid-step must be positive and finite, got {step:g}") from None
        raise ValueError(f"--grid-step {step:g} must divide {scale} into a whole number of steps, "
                         "at most 2^30 - 2") from None


def _check_depth(depth: int) -> None:
    """Reject a ``--depth`` that ``float()`` cannot convert, before anything does."""
    if abs(depth) > sys.float_info.max:
        raise ValueError(f"--depth has {len(str(abs(depth)))} digits, more than a float holds")


def cmd_synth(args) -> tuple[int, dict]:
    _check_depth(args.depth)
    check_dimension(args.dimension)
    check_synthesis_depth(args.depth)
    # synthesis reads the target only at the integer levels up to --depth, all on this lattice
    grid = _load_target_grid(args.psi_spec, GridSpec(float(args.depth)))
    report = validate_branching(grid, args.dimension, tol=DEFAULT_GRID_STEP * args.dimension)
    if not report.passed:
        print(f"error: target grid fails the branching axioms: {report.summary()}", file=sys.stderr)
        for v in report.violations[:10]:
            print(f"  {v.prop} at {v.witness}: {v.magnitude:.6g}", file=sys.stderr)
        return EXIT_USER, {}
    # the set is freed as soon as its points are exported
    points = export_points(synthesize_set(grid, args.dimension, args.depth), args.depth)
    meta = {"d": args.dimension, "depth": args.depth, "rescale_exponent": EXPORT_RESCALE_EXP}
    return EXIT_OK, {"points.csv": tsio.points_to_csv(points), "metadata.json": meta}


def _read_points(args, meta: dict, depth: int):
    """The point list of ``estimate``, refused when the sidecar gives it another dimension."""
    pts = tsio.points_from_csv(Path(args.points).read_text(), depth)
    if meta.get("d", pts.dimension) != pts.dimension:
        raise ValueError(f"the point list's dimension {pts.dimension} differs from the sidecar's d {meta['d']}")
    return pts


def cmd_estimate(args) -> tuple[int, dict]:
    meta = tsio.read_set_metadata(Path(args.metadata).read_text()) if args.metadata else {}
    depth = meta.get("depth", args.depth)
    if depth is None:
        raise ValueError("the sample depth is unknown: pass --metadata with a depth, or --depth")
    if args.depth not in (None, depth):
        raise ValueError(f"--depth {args.depth} differs from the sidecar's depth {depth}")
    tsio.check_point_depth(depth)
    pts = None
    if args.u_max is None:
        # a sample of depth n fixes beta only for u <= n, and its ball counts
        # are exact only down to a level its dimension sets
        if depth == 0:
            raise ValueError("the sample depth is 0, which leaves no scale to estimate")
        pts = _read_points(args, meta, depth)
        deepest = _deepest_ball_level(pts.dimension)
        if depth <= deepest:
            upper, scale = "the sample depth", f"the sample depth {depth}"
        else:
            upper = "the deepest exact level"
            scale = f"the deepest exact level {deepest} of d = {pts.dimension} ball counts"
        spec = _lattice_to(min(depth, deepest), args.grid_step, scale)
    else:
        spec = GridSpec(args.u_max, args.grid_step)
        upper, scale = "--u-max", f"--u-max {spec.u_max:g}"
    # the spectrum reads scales from --u-min and the box dimensions from max(--u-min, 1)
    if not (0 < args.u_min and max(args.u_min, 1.0) < spec.u_max):
        raise ValueError(f"the window [max(--u-min, 1), {upper}] must be nonempty with --u-min > 0, "
                         f"got --u-min {args.u_min:g} and {scale}")
    if spec.u_max > depth:
        raise ValueError(f"u_max {spec.u_max} exceeds the sample depth {depth}; "
                         "pass a deeper sample or a smaller --u-max")
    if pts is None:
        pts = _read_points(args, meta, depth)
    coverage = empirical_branching(pts, spec)
    # the whole-set profile: log2 of the cells of each level up to u_max
    gs = np.log2(coverage.metadata["cells_per_level"][: int(spec.u_max) + 1])
    us = np.arange(gs.size, dtype=float)
    curve = assouad_spectrum(scaling_limit(coverage.grid, args.u_min, args.theta_step))
    lo, hi = box_dims(us, gs, (max(args.u_min, 1.0), spec.u_max))
    profile = PiecewiseLinear.from_samples(us, gs)
    box = {"lower_box": lo, "upper_box": hi, "window": [max(args.u_min, 1.0), spec.u_max],
           "quasi_assouad_estimate": float(curve.values[-1]), "membership": coverage.membership.summary(),
           "rescale_exponent": meta.get("rescale_exponent", 0)}
    return EXIT_OK, {
        "beta_emp.csv": tsio.grid_to_csv(coverage.grid),
        "g_profile.csv": tsio.profile_to_csv(profile),
        "spectrum.csv": tsio.curve_to_csv(curve),
        "box_dims.json": box,
    }


def cmd_attractor(args) -> tuple[int, dict]:
    _check_depth(args.depth)
    ifs = tsio.ifs_from_json(Path(args.ifs).read_text(), Path(args.ifs).parent)
    sample = generate_attractor(ifs, args.depth)
    info = {
        "moran_exponent": critical_exponent(ifs),
        "counting_exponent": counting_exponent(ifs, min(args.depth, 24.0)),
        "strongly_separated": ifs.strongly_separated,
        "points": int(sample.points.shape[0]),
        "depth": args.depth,
    }
    info.update(sample.metadata)
    return EXIT_OK, {"attractor_points.csv": tsio.float_points_to_csv(sample.points), "attractor_info.json": info}


def cmd_verify(args) -> tuple[int, dict]:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    results = run_suite(args.suite, args.seed)
    payload = report_payload(args.suite, args.seed, results)
    code = EXIT_OK if payload["all_passed"] else EXIT_CRITERIA
    for r in results:
        print(r.line())
    if args.out:
        return code, {"verify_report.json": payload}
    print(tsio.json_text(payload), end="")
    return code, {}


_OPTIONS = {
    "--grid-step": {"type": float, "default": DEFAULT_GRID_STEP},
    "--u-max": {"type": float, "default": None},
    "--theta-step": {"type": float, "default": DEFAULT_THETA_STEP},
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
    _add_options(p, "--depth", "--out")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("estimate", help="covering statistics and spectra of a point sample")
    p.add_argument("points", help="point list CSV")
    p.add_argument("--metadata", help="metadata JSON sidecar", default=None)
    _add_options(p, "--grid-step", "--u-max", "--theta-step", "--u-min", "--depth", "--out")
    p.set_defaults(fn=cmd_estimate, depth=None)

    p = sub.add_parser("attractor", help="sample an inhomogeneous attractor from an IFS spec")
    p.add_argument("ifs", help="IFS spec JSON")
    _add_options(p, "--depth", "--out")
    p.set_defaults(fn=cmd_attractor)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code, files = args.fn(args)
        if files:
            tsio.write_outputs(Path(args.out), files)
            if args.command != "verify":  # verify's stdout is its criterion lines
                print(f"wrote {Path(args.out)}/{', '.join(files)}")
        return code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
