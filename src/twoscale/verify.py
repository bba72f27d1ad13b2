"""Numerical verification suites for the package's structural guarantees.

Each criterion is a seeded, self-contained check returning a result record
with measured deviations; the CLI renders them as JSON and pytest asserts
them.  Tolerances are finite-scale calibrations and are reported together
with the windows they were measured on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import families
from .covering import box_dims, empirical_branching
from .grids import (
    EXACT_TOL,
    GridSpec,
    PiecewiseLinear,
    TwoScaleGrid,
    _lower_mask,
    excess_bound,
    lipschitz_approximation,
    validate_branching,
)
from .ifs import (
    SimilarityIFS,
    critical_exponent,
    dimension_range,
    lower_box_profile,
    verify_dimension_formula,
)
from .operators import (
    DEFAULT_THETA_STEP,
    SpectrumGrid,
    _cone_triangle,
    assouad_spectrum,
    commuting_deviation,
    cone_extension,
    monotone_envelope,
    plateau_curve,
    scaling_limit,
    spectrum_envelope,
    upper_spectrum,
    validate_limit_curve,
    validate_monotone_curve,
    validate_monotone_grid,
)
from .synthesis import subdivision_tree, synthesize_set


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:2d} [{status}] {self.name}: {_fmt(self.details)}"


def _fmt(details: dict) -> str:
    bits = []
    for k, v in details.items():
        if isinstance(v, float):
            bits.append(f"{k}={v:.4g}")
        elif isinstance(v, (int, str, bool)):
            bits.append(f"{k}={v}")
    return ", ".join(bits)


@dataclass
class VerifyContext:
    """Caches the expensive shared artifacts of a suite run."""

    seed: int
    coverages: list = field(default_factory=list)
    _attain: dict | None = None
    _inhomog: dict | None = None

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(self.seed * 1000003 + salt)

    # -- shared artifacts ---------------------------------------------------

    def attain_artifacts(self) -> dict:
        if self._attain is None:
            curve = plateau_curve(0.8, 0.5)
            build_spec = GridSpec(20.0, 0.25)
            measure_spec = GridSpec(19.0, 0.25)
            psi_build = cone_extension(curve, build_spec)
            target = cone_extension(curve, measure_spec)
            composite = synthesize_set(psi_build, dimension=1, depth=20)
            coverage = empirical_branching(composite, measure_spec)
            self.coverages.append(("attain_composite", coverage))
            self._attain = {
                "curve": curve,
                "target": target,
                "composite": composite,
                "coverage": coverage,
                "measure_spec": measure_spec,
            }
        return self._attain

    def inhomog_artifacts(self) -> dict:
        if self._inhomog is None:
            spec = GridSpec(19.0, 0.25)
            quarter = SimilarityIFS(1, np.array([0.25, 0.25]), np.array([[0.0], [0.75]]))
            # configuration A: a one-point condensation set
            point_F = np.array([[0.0]])
            psi_zero = TwoScaleGrid(spec, np.zeros((spec.n + 1, spec.n + 1)))
            rep_a = verify_dimension_formula(quarter, point_F, psi_zero, 20.0, spec, u_min=16.0)
            self.coverages.append(("inhomog_point", rep_a.coverage))
            # configuration B: a synthesized condensation set of dimension 0.8
            ramp = PiecewiseLinear(np.array([0.0]), np.array([0.8]))
            tree = subdivision_tree(ramp, 1, 20)
            psi_tree = empirical_branching(tree, spec)
            self.coverages.append(("inhomog_tree_condensation", psi_tree))
            rep_b = verify_dimension_formula(quarter, tree, psi_tree.grid, 20.0, spec, u_min=16.0)
            self.coverages.append(("inhomog_tree_attractor", rep_b.coverage))
            self._inhomog = {"A": rep_a, "B": rep_b, "ifs": quarter, "spec": spec}
        return self._inhomog


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1(ctx: VerifyContext) -> CriterionResult:
    """Lipschitz approximation: bounded two-sided error, exact on clean input."""
    rng = ctx.rng(1)
    spec = GridSpec(64.0, 0.25)
    lips = 1.0
    slack = lips * spec.step
    worst_excess = -np.inf
    worst_exact = 0.0
    bad_outputs = 0
    for run in range(100):
        clean = run % 5 == 0
        if clean:
            beta = families.random_branching_grid(rng, spec, lips)
        else:
            beta = families.random_perturbed_branching(rng, spec, lips)
        eta = excess_bound(beta, lips)
        psi = lipschitz_approximation(beta, lips, check=False)
        report = validate_branching(psi, lips, tol=slack)
        if not report.passed:
            bad_outputs += 1
        dev = np.abs(psi.values - beta.values)
        worst_excess = max(worst_excess, float((dev.max(axis=1) - (eta + slack)).max()))
        if clean and float(eta.max()) <= EXACT_TOL:
            worst_exact = max(worst_exact, float(dev.max()))
    passed = bad_outputs == 0 and worst_excess <= 0.0 and worst_exact <= EXACT_TOL
    return CriterionResult(
        1,
        "lipschitz approximation",
        passed,
        {
            "runs": 100,
            "invalid_outputs": bad_outputs,
            "worst_margin": worst_excess,
            "worst_exact_case": worst_exact,
        },
    )


def criterion_2(ctx: VerifyContext) -> CriterionResult:
    """Monotone projections: idempotent, in the monotone class, and below every class majorant."""
    rng = ctx.rng(2)
    spec = GridSpec(32.0, 0.25)
    lips = 1.0
    growths = [0.0, 0.3, 0.7, 1.0]
    idempotency = 0.0
    violations = 0
    class_violations = 0
    for k in range(20):
        growth = growths[k % len(growths)]
        psi = families.random_branching_grid(rng, spec, lips)
        proj = monotone_envelope(psi, growth)
        again = monotone_envelope(proj, growth)
        idempotency = max(idempotency, float(np.abs(again.values - proj.values).max()))
        curve = scaling_limit(psi, 8.0)
        cproj = spectrum_envelope(curve, growth)
        cagain = spectrum_envelope(cproj, growth)
        idempotency = max(idempotency, float(np.abs(cagain.values - cproj.values).max()))
        if not validate_monotone_grid(proj, lips, growth, EXACT_TOL).passed:
            class_violations += 1
        if not validate_monotone_curve(cproj, lips, growth, EXACT_TOL).passed:
            class_violations += 1
        # each grid majorant is the lift of a majorant curve; compare on the
        # lattice entries j <= i, where the lift is defined
        below = proj.values[_lower_mask(spec.n)]
        for _ in range(100):
            maj = _cone_triangle(families.random_monotone_majorant_curve(rng, lips, growth), spec)
            if float((below - maj).max()) > EXACT_TOL:
                violations += 1
            cmaj = families.random_monotone_majorant_curve(rng, lips, growth)
            if float((cproj.values - cmaj.values).max()) > EXACT_TOL:
                violations += 1
    passed = idempotency <= EXACT_TOL and violations == 0 and class_violations == 0
    return CriterionResult(
        2,
        "projection laws",
        passed,
        {"idempotency": idempotency, "majorant_violations": violations, "class_violations": class_violations},
    )


def criterion_3(ctx: VerifyContext) -> CriterionResult:
    """Limit and projection commute within 0.05 at the reference window."""
    rng = ctx.rng(3)
    spec = GridSpec(64.0, 0.25)
    lips = 1.0
    u_min = 16.0
    worst = 0.0
    for _ in range(100):
        psi = families.random_branching_grid(rng, spec, lips)
        for report in commuting_deviation(psi, (0.0, 0.3, 0.7, 1.0), u_min):
            worst = max(worst, report.sup_deviation)
    return CriterionResult(
        3,
        "commuting diagram",
        worst <= 0.05,
        {"sup_deviation": worst, "tolerance": 0.05, "u_min": u_min},
    )


def criterion_4(ctx: VerifyContext) -> CriterionResult:
    """Synthesized set attains its target grid up to a log envelope."""
    art = ctx.attain_artifacts()
    target = art["target"]
    coverage = art["coverage"]
    spec = art["measure_spec"]
    coords = spec.coords
    uu, vv = np.meshgrid(coords, coords, indexing="ij")
    log_gap = np.log2(np.maximum(uu - vv, 0.0) + 1.0)
    envelope = 4.0 + 2.0 * log_gap
    dev = np.abs(coverage.grid.values - target.values)
    margin = np.where(vv <= uu, dev - envelope, -np.inf)
    i, j = np.unravel_index(int(np.argmax(margin)), margin.shape)
    fit_c1 = float(np.where(vv <= uu, dev - 2.0 * log_gap, -np.inf).max())
    return CriterionResult(
        4,
        "attainability envelope",
        bool(margin[i, j] <= 0.0),
        {
            "worst_margin": float(margin[i, j]),
            "witness_u": float(coords[i]),
            "witness_v": float(coords[j]),
            "fitted_c1_at_c2_2": fit_c1,
            "max_raw_deviation": float(dev[np.tril_indices(spec.n + 1)].max()),
        },
    )


def criterion_5(ctx: VerifyContext) -> CriterionResult:
    """End-to-end spectrum recovery from the synthesized set.

    Known to sit outside its tolerance at the reference depth: the windowed
    estimator's bias at theta = 0 is the accumulated part pile-up
    ~ log2(u)/u and near theta = 1 the cell-count constant divided by
    (1 - theta); both exceed 0.1 for windows inside depth 20.  Reported
    honestly rather than recalibrated.
    """
    art = ctx.attain_artifacts()
    estimate = assouad_spectrum(scaling_limit(art["coverage"].grid, 15.0))
    reference = assouad_spectrum(art["curve"])
    gap = np.abs(estimate.values - reference.values)
    k = int(np.argmax(gap))
    sup = float(gap[k])
    end_gap = float(abs(estimate.values[-1] - 0.8))
    return CriterionResult(
        5,
        "spectrum recovery",
        sup <= 0.1 and end_gap <= 0.1,
        {
            "sup_deviation": sup,
            "witness_theta": float(estimate.thetas[k]),
            "endpoint_gap": end_gap,
            "tolerance": 0.1,
            "window": "[15, 19]",
        },
    )


def criterion_6(ctx: VerifyContext) -> CriterionResult:
    """Critical exponents: closed forms and counting agreement."""
    half = SimilarityIFS(1, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))
    quarter = SimilarityIFS(1, np.array([0.25, 0.25]), np.array([[0.0], [0.75]]))
    mixed = SimilarityIFS(1, np.array([0.5, 0.25]), np.array([[0.0], [0.75]]))
    golden = -np.log2((np.sqrt(5.0) - 1.0) / 2.0)
    checks = {
        "half_moran": abs(critical_exponent(half, "moran") - 1.0),
        "half_counting": abs(critical_exponent(half, "counting", resolution=24.0) - 1.0),
        "quarter_moran": abs(critical_exponent(quarter, "moran") - 0.5),
        "mixed_moran": abs(critical_exponent(mixed, "moran") - golden),
        "mixed_gap": abs(
            critical_exponent(mixed, "counting", resolution=24.0)
            - critical_exponent(mixed, "moran")
        ),
    }
    passed = (
        checks["half_moran"] <= EXACT_TOL
        and checks["half_counting"] <= 0.02
        and checks["quarter_moran"] <= EXACT_TOL
        and checks["mixed_moran"] <= 1e-3
        and checks["mixed_gap"] <= 0.02
    )
    return CriterionResult(6, "critical exponent", passed, checks)


def criterion_7(ctx: VerifyContext) -> CriterionResult:
    """Inhomogeneous attractors track the projection of their condensation grid."""
    art = ctx.inhomog_artifacts()
    dev_a = art["A"].normalized_deviation
    dev_b = art["B"].normalized_deviation
    return CriterionResult(
        7,
        "inhomogeneous dimension formula",
        dev_a <= 0.1 and dev_b <= 0.1,
        {
            "point_condensation_dev": dev_a,
            "tree_condensation_dev": dev_b,
            "growth": art["A"].growth,
            "window": str(art["A"].window),
            "tolerance": 0.1,
        },
    )


def criterion_8(ctx: VerifyContext) -> CriterionResult:
    """Lower-box profile value, the equality dichotomy and the attainable range on a test family."""
    ramp = PiecewiseLinear(np.array([0.0, 5.0]), np.array([0.8, 0.0]))
    profile = lower_box_profile(ramp, 0.5, 12.0)
    spot = abs(float(profile.evaluate(10.0)) - 6.5)

    # (lower, upper, growth): first six satisfy upper <= max(growth, lower)
    # and must come out equal; the last four must separate by > 0.05
    cases = [
        (0.5, 0.5, 0.2),
        (0.2, 0.36, 0.7),
        (0.35, 0.6, 0.7),
        (0.3, 0.5, 0.5),
        (0.5, 0.5, 0.5),
        (0.25, 0.5, 0.5),
        (0.3, 0.55, 0.35),
        (0.3, 0.5, 0.2),
        (0.35, 0.6, 0.3),
        (0.45, 0.55, 0.0),
    ]
    window = (256.0, 16384.0)
    mismatches = []
    excursions = 0
    for lower, upper, growth in cases:
        g_f = _block_profile(lower, upper)
        lo_f, hi_f = box_dims(g_f.breakpoints, g_f.knot_values, window)
        g_l = lower_box_profile(g_f, growth, window[1], step=1.0)
        lo_l, hi_l = box_dims(g_l.breakpoints, g_l.knot_values, window)
        predicted_equal = hi_f <= max(growth, lo_f) + 0.05
        actual_equal = (hi_l - lo_l) <= 0.05
        if predicted_equal != actual_equal:
            mismatches.append((lower, upper, growth))
        lo_r, hi_r = dimension_range(growth, lo_f, hi_f, 1.0)
        if not lo_r - EXACT_TOL <= lo_l <= hi_r + EXACT_TOL:
            excursions += 1
    passed = spot <= EXACT_TOL and not mismatches and excursions == 0
    return CriterionResult(
        8,
        "lower-box dichotomy",
        passed,
        {
            "spot_error": spot,
            "dichotomy_mismatches": len(mismatches),
            "cases": len(cases),
            "range_excursions": excursions,
        },
    )


def _block_profile(lower: float, upper: float, blocks: int = 7) -> PiecewiseLinear:
    """Alternating-slope profile whose box dimension surrogates hit (lower, upper).

    Slope 2*upper - lower on [4^k, 2*4^k] and 2*lower - upper on
    [2*4^k, 4^(k+1)] give extremes of g(u)/u equal to the targets at block
    ends, up to a 4^-k transient.
    """
    t = 2.0 * upper - lower
    s = 2.0 * lower - upper
    if s < 0 or t > 1.0:
        raise ValueError("targets must satisfy upper <= 2*lower and 2*upper - lower <= 1")
    bps = [0.0, 1.0]
    slopes = [s]
    for k in range(blocks):
        bps.extend([2.0 * 4.0**k, 4.0 ** (k + 1)])
        slopes.extend([t, s])
    return PiecewiseLinear(np.array(bps), np.array(slopes))


def direct_upper_spectrum(grid: TwoScaleGrid, u_min: float) -> SpectrumGrid:
    """Upper spectrum estimated by a direct double supremum.

    For each theta takes max over grid lambdas <= theta (lambda < 1) and
    window u of value(u, lambda*u) / (u * (1 - lambda)); independent of the
    composed running-max pipeline it cross-checks.
    """
    top = grid.spec.u_max
    if not 0 < u_min < top:
        raise ValueError("need 0 < u_min < u_max within the grid")
    coords = grid.spec.coords
    us = coords[(coords >= u_min - EXACT_TOL) & (coords <= top + EXACT_TOL) & (coords > 0)]
    theta_step = DEFAULT_THETA_STEP
    m = round(1.0 / theta_step)
    lams = np.arange(m) * theta_step  # lambda < 1
    uu = np.repeat(us, m)
    ll = np.tile(lams, us.size)
    table = grid.evaluate(uu, ll * uu).reshape(us.size, m)
    per_lam = (table / (us[:, None] * (1.0 - lams[None, :]))).max(axis=0)
    out = np.empty(m + 1)
    out[:m] = np.maximum.accumulate(per_lam)
    out[m] = per_lam.max()
    return SpectrumGrid(theta_step, out)


def criterion_9(ctx: VerifyContext) -> CriterionResult:
    """Composed upper spectrum equals the direct double supremum."""
    rng = ctx.rng(9)
    spec = GridSpec(32.0, 0.25)
    worst = 0.0
    for _ in range(10):
        psi = families.random_branching_grid(rng, spec, 1.0)
        composed = upper_spectrum(assouad_spectrum(scaling_limit(psi, 8.0)))
        direct = direct_upper_spectrum(psi, 8.0)
        worst = max(worst, float(np.abs(composed.values - direct.values).max()))
    return CriterionResult(
        9, "upper-spectrum swap", worst <= EXACT_TOL, {"sup_deviation": worst}
    )


def criterion_10(ctx: VerifyContext) -> CriterionResult:
    """Monotone-class curves are automatically subadditive."""
    rng = ctx.rng(10)
    theta_step = DEFAULT_THETA_STEP
    failures = 0
    worst = 0.0
    for _ in range(1000):
        lips = rng.uniform(0.2, 2.0)
        growth = rng.uniform(0.0, lips)
        curve = families.random_monotone_limit_curve(rng, lips, growth)
        tol = 2.0 * theta_step * lips
        report = validate_limit_curve(curve, lips, tol)
        if not report.passed:
            failures += 1
            worst = max(worst, report.worst("subadditivity"))
    return CriterionResult(
        10,
        "monotone-class subadditivity",
        failures == 0,
        {"curves": 1000, "failures": failures, "worst_violation": worst},
    )


def criterion_11(ctx: VerifyContext) -> CriterionResult:
    """Every empirical grid measured in this run satisfies the branching axioms."""
    if not ctx.coverages:
        ctx.attain_artifacts()
    failing = [name for name, cov in ctx.coverages if not cov.membership.passed]
    return CriterionResult(
        11,
        "empirical membership",
        not failing,
        {"grids_checked": len(ctx.coverages), "failures": len(failing)},
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}

SUITES = {
    "core": [1],
    "operators": [2, 3, 9, 10],
    "attain": [4, 5, 11],
    "inhomog": [6, 7, 8, 11],
    "all": list(range(1, 12)),
}


def run_suite(suite: str, seed: int = 0) -> list[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    ctx = VerifyContext(seed)
    return [CRITERIA[cid](ctx) for cid in SUITES[suite]]


def report_payload(suite: str, seed: int, results: list[CriterionResult]) -> dict:
    """The verify report: the suite, the seed, whether all passed and each criterion's record."""
    return {
        "suite": suite,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
