import numpy as np
import pytest

from helpers import curve_evaluate, grid_from_function, values_close
from twoscale import (
    GridSpec,
    SpectrumGrid,
    TwoScaleGrid,
    assouad_spectrum,
    commuting_deviation,
    cone_extension,
    monotone_envelope,
    plateau_curve,
    pointwise_max,
    scaling_limit,
    spectrum_envelope,
    upper_spectrum,
    validate_limit_curve,
    validate_monotone_curve,
    validate_monotone_grid,
)
from twoscale.families import (
    random_branching_grid,
    random_monotone_limit_curve,
    random_monotone_majorant_curve,
)
from twoscale.verify import direct_upper_spectrum

STEP = 1.0 / 64.0


def line_curve(lipschitz, theta_step=STEP):
    th = np.arange(round(1 / theta_step) + 1) * theta_step
    return SpectrumGrid(theta_step, lipschitz * (1 - th))


# ---------------------------------------------------------------------------
# curve validators
# ---------------------------------------------------------------------------

def test_limit_curve_validator_examples():
    assert validate_limit_curve(line_curve(0.7), 0.7, 1e-9).passed

    th = np.arange(65) / 64.0
    squared = SpectrumGrid(STEP, 0.7 * (1 - th) ** 2)
    report = validate_limit_curve(squared, 0.7, 1e-9)
    assert any(v.prop == "subadditivity" for v in report.violations)

    bad_end = SpectrumGrid(STEP, np.concatenate([0.5 * (1 - th[:-1]), [0.1]]))
    report = validate_limit_curve(bad_end, np.inf, 1e-9)
    assert any(v.prop == "endpoint_zero" for v in report.violations)


def test_monotone_curve_validator_examples():
    assert validate_monotone_curve(plateau_curve(0.8, 0.5), 1.0, 0.0).passed
    assert validate_monotone_curve(plateau_curve(0.8, 0.5), 1.0, 0.4).passed

    th = np.arange(65) / 64.0
    half_floor = SpectrumGrid(STEP, 0.3 * (1 - th) / 2)
    report = validate_monotone_curve(half_floor, 1.0, 0.3)
    assert any(v.prop == "floor_at_zero" for v in report.violations)

    dropping_ratio = SpectrumGrid(STEP, 0.5 * (1 - th) ** 2 + 0.1 * (1 - th))
    report = validate_monotone_curve(dropping_ratio, 2.0, 0.0)
    props = {v.prop for v in report.violations}
    assert props == {"ratio_increasing"}


def test_monotone_grid_validator_examples():
    spec = GridSpec(4.0, 0.25)
    lin = grid_from_function(spec, lambda u, v: 0.9 * (u - v))
    assert validate_monotone_grid(lin, 1.0, 0.5).passed

    capped = grid_from_function(spec, lambda u, v: np.minimum(u, 1) - np.minimum(v, 1))
    report = validate_monotone_grid(capped, 1.0, 0.0)
    assert any(v.prop == "diagonal_monotone" for v in report.violations)


def test_monotone_envelope_output_always_validates():
    rng = np.random.default_rng(10)
    spec = GridSpec(8.0, 0.25)
    for growth in (0.0, 0.4, 1.0):
        psi = random_branching_grid(rng, spec, 1.0)
        env = monotone_envelope(psi, growth)
        assert validate_monotone_grid(env, 1.0, growth).passed


# ---------------------------------------------------------------------------
# scaling_limit / cone_extension / assouad_spectrum
# ---------------------------------------------------------------------------

def test_scaling_limit_recovers_homogeneous_curves():
    spec = GridSpec(32.0, 0.25)
    curve = plateau_curve(0.8, 0.5)
    psi = cone_extension(curve, spec)
    limit = scaling_limit(psi, 8.0)
    assert np.max(np.abs(limit.values - curve.values)) <= 0.25 / 8.0 + 1e-9

    lin = grid_from_function(spec, lambda u, v: 0.6 * (u - v))
    limit = scaling_limit(lin, 8.0)
    assert np.allclose(limit.values, 0.6 * (1 - limit.thetas), atol=1e-9)


def test_scaling_limit_of_bounded_grid_decays_with_window():
    spec = GridSpec(32.0, 0.25)
    capped = grid_from_function(spec, lambda u, v: np.minimum(u, 1) - np.minimum(v, 1))
    limit = scaling_limit(capped, 16.0)
    assert np.max(limit.values) <= 1.0 / 16.0 + 1e-12


def test_scaling_limit_preserves_order_exactly():
    rng = np.random.default_rng(11)
    spec = GridSpec(16.0, 0.25)
    a = random_branching_grid(rng, spec, 1.0)
    b = pointwise_max([a, random_branching_grid(rng, spec, 1.0)])
    la, lb = scaling_limit(a, 4.0), scaling_limit(b, 4.0)
    assert np.all(la.values <= lb.values + 1e-12)


def test_scaling_limit_window_errors():
    spec = GridSpec(8.0, 0.5)
    g = grid_from_function(spec, lambda u, v: u - v)
    with pytest.raises(ValueError):
        scaling_limit(g, 8.0)
    with pytest.raises(ValueError):
        scaling_limit(g, 0.0)


def test_cone_extension_examples():
    spec = GridSpec(8.0, 0.25)
    lin = cone_extension(line_curve(0.9), spec)
    assert values_close(lin, grid_from_function(spec, lambda u, v: 0.9 * (u - v)), tol=1e-9)

    psi = cone_extension(plateau_curve(1.0, 0.5), spec)
    assert psi.evaluate(4.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    zero = cone_extension(SpectrumGrid(STEP, np.zeros(65)), spec)
    assert np.all(zero.values == 0.0)


def test_cone_extension_is_near_maximal_for_its_limit():
    # any grid is dominated by the lift of its full-window limit, up to the
    # theta-grid interpolation slack u * lipschitz * theta_step
    rng = np.random.default_rng(12)
    spec = GridSpec(16.0, 0.25)
    for _ in range(5):
        psi = random_branching_grid(rng, spec, 1.0)
        curve = scaling_limit(psi, spec.step)
        lift = cone_extension(curve, spec)
        slack = spec.coords[:, None] * STEP + 1e-9
        assert np.all(psi.values <= lift.values + slack)


def test_cone_extension_rejects_invalid_curves():
    th = np.arange(65) / 64.0
    bad = SpectrumGrid(STEP, 0.7 * (1 - th) ** 2)
    with pytest.raises(ValueError):
        cone_extension(bad, GridSpec(4.0, 0.5))


def test_assouad_spectrum_examples():
    flat = assouad_spectrum(line_curve(0.7))
    assert np.allclose(flat.values, 0.7, atol=1e-12)
    assert flat.values[-1] == pytest.approx(0.7)

    kinked = assouad_spectrum(plateau_curve(1.0, 0.5))
    assert curve_evaluate(kinked, 0.0) == pytest.approx(0.5)
    assert curve_evaluate(kinked, 0.5) == pytest.approx(1.0)
    assert kinked.values[-1] == pytest.approx(1.0)
    assert kinked.values[-1] == pytest.approx(np.max(kinked.values[:-1]))


# ---------------------------------------------------------------------------
# monotone_envelope / spectrum_envelope
# ---------------------------------------------------------------------------

def brute_envelope(grid, growth):
    V, n, step = grid.values, grid.spec.n, grid.spec.step
    out = np.zeros_like(V)
    for i in range(n + 1):
        for j in range(i + 1):
            best = 0.0
            for z in range(i + 1):
                if z <= j:
                    best = max(best, V[i - z, j - z])
                else:
                    best = max(best, growth * step * (z - j) + V[i - z, 0])
            out[i, j] = best
    return out


def test_monotone_envelope_examples_and_oracle():
    spec = GridSpec(4.0, 0.5)
    zero = TwoScaleGrid(spec, np.zeros((spec.n + 1, spec.n + 1)))
    env = monotone_envelope(zero, 0.5)
    assert values_close(env, grid_from_function(spec, lambda u, v: 0.5 * (u - v)), tol=1e-12)

    capped = grid_from_function(spec, lambda u, v: np.minimum(u, 1) - np.minimum(v, 1))
    env0 = monotone_envelope(capped, 0.0)
    assert env0.evaluate(3.0, 2.0) == pytest.approx(1.0)
    assert np.allclose(env0.values, brute_envelope(capped, 0.0), atol=1e-12)

    rng = np.random.default_rng(13)
    for growth in (0.0, 0.3, 0.9):
        psi = random_branching_grid(rng, spec, 1.0)
        env = monotone_envelope(psi, growth)
        assert np.allclose(env.values, brute_envelope(psi, growth), atol=1e-12)
        assert np.all(env.values >= psi.values - 1e-12)


def test_monotone_envelope_idempotent():
    rng = np.random.default_rng(14)
    spec = GridSpec(8.0, 0.25)
    psi = random_branching_grid(rng, spec, 1.0)
    env = monotone_envelope(psi, 0.4)
    assert values_close(monotone_envelope(env, 0.4), env, tol=1e-12)


def test_monotone_envelope_rejects_bad_growth():
    spec = GridSpec(2.0, 1.0)
    zero = TwoScaleGrid(spec, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        monotone_envelope(zero, -0.1)


def brute_spectrum_envelope(curve, growth):
    v, th = curve.values, curve.thetas
    out = np.empty_like(v)
    for k, t in enumerate(th[:-1]):
        best = growth
        for j in range(k + 1):
            best = max(best, v[j] / (1 - th[j]))
        out[k] = (1 - t) * best
    out[-1] = 0.0
    return out


def test_spectrum_envelope_examples_and_oracle():
    already = plateau_curve(0.8, 0.5)
    assert values_close(spectrum_envelope(already, 0.3), already, tol=1e-12)

    floored = spectrum_envelope(plateau_curve(1.0, 0.5), 1.0)
    assert np.allclose(floored.values, 1.0 - floored.thetas, atol=1e-12)

    zero = SpectrumGrid(STEP, np.zeros(65))
    assert np.all(spectrum_envelope(zero, 0.0).values == 0.0)

    rng = np.random.default_rng(15)
    for _ in range(10):
        curve = random_monotone_limit_curve(rng, 1.0, 0.0)
        mixed = SpectrumGrid(STEP, np.maximum(curve.values, plateau_curve(0.5, 0.7).values))
        growth = rng.uniform(0.0, 1.0)
        env = spectrum_envelope(mixed, growth)
        assert np.allclose(env.values, brute_spectrum_envelope(mixed, growth), atol=1e-12)
        assert np.all(env.values >= mixed.values - 1e-12)
        assert values_close(spectrum_envelope(env, growth), env, tol=1e-12)


@pytest.mark.parametrize("family", [random_monotone_limit_curve, random_monotone_majorant_curve])
@pytest.mark.parametrize("lipschitz, growth", [(1.0, 2.0), (1.0, -0.5), (np.nan, 0.0), (1.0, np.nan)])
def test_monotone_families_reject_out_of_class_parameters(family, lipschitz, growth):
    # a growth above the lipschitz bound gave a limit curve outside its class
    with pytest.raises(ValueError):
        family(np.random.default_rng(0), lipschitz, growth)


@pytest.mark.parametrize("family", [random_monotone_limit_curve, random_monotone_majorant_curve])
def test_monotone_families_reject_an_infinite_lipschitz_bound(family):
    with pytest.raises(ValueError, match="lipschitz < inf"):
        family(np.random.default_rng(0), np.inf, 0.5)


# ---------------------------------------------------------------------------
# plateau_curve
# ---------------------------------------------------------------------------

def test_plateau_curve_values_and_degenerate_kink():
    c = plateau_curve(0.8, 0.5)
    assert curve_evaluate(c, 0.25) == pytest.approx(0.4)
    assert curve_evaluate(c, 0.75) == pytest.approx(0.2)
    assert np.all(plateau_curve(0.9, 1.0).values == 0.0)
    assert validate_limit_curve(c, 0.8, 1e-9).passed


def test_plateau_minimality_in_envelopes():
    # once a plateau fits under an envelope at its kink, it fits everywhere
    rng = np.random.default_rng(16)
    for _ in range(20):
        curve = random_monotone_limit_curve(rng, 1.0, 0.0)
        growth = rng.uniform(0.0, 0.5)
        env = spectrum_envelope(curve, growth)
        for lam in (0.0, 0.25, 0.5, 0.75):
            k = int(lam * 64)
            kappa = env.values[k] / (1 - lam)
            pl = plateau_curve(kappa, lam)
            assert np.all(pl.values <= env.values + 1e-9)


# ---------------------------------------------------------------------------
# upper_spectrum
# ---------------------------------------------------------------------------

def test_upper_spectrum_running_max():
    phi = SpectrumGrid(0.25, np.array([0.5, 0.8, 0.6, 0.7, 0.8]))
    out = upper_spectrum(phi)
    assert np.allclose(out.values, [0.5, 0.8, 0.8, 0.8, 0.8])
    rising = SpectrumGrid(0.25, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert values_close(upper_spectrum(rising), rising, tol=0.0)


def test_upper_spectrum_matches_direct_double_sup():
    rng = np.random.default_rng(17)
    spec = GridSpec(16.0, 0.25)
    for _ in range(5):
        psi = random_branching_grid(rng, spec, 1.0)
        composed = upper_spectrum(assouad_spectrum(scaling_limit(psi, 4.0)))
        direct = direct_upper_spectrum(psi, 4.0)
        assert np.max(np.abs(composed.values - direct.values)) <= 1e-9


# ---------------------------------------------------------------------------
# commuting deviation
# ---------------------------------------------------------------------------

def test_commuting_deviation_zero_and_linear():
    spec = GridSpec(16.0, 0.25)
    zero = TwoScaleGrid(spec, np.zeros((spec.n + 1, spec.n + 1)))
    assert [r.sup_deviation for r in commuting_deviation(zero, [0.0], 4.0)] == [0.0]

    lin = grid_from_function(spec, lambda u, v: u - v)
    reports = commuting_deviation(lin, [0.0, 0.5, 1.0], 4.0)
    assert len(reports) == 3 and all(r.sup_deviation <= 1e-9 for r in reports)


def test_commuting_deviation_homogeneous_bound():
    spec = GridSpec(32.0, 0.25)
    rng = np.random.default_rng(18)
    for _ in range(5):
        psi = cone_extension(random_monotone_limit_curve(rng, 1.0, 0.0), spec)
        [rep] = commuting_deviation(psi, [0.3], 8.0)
        assert rep.sup_deviation <= 2 * 0.25 + 2 / 8.0
        assert rep.window == (8.0, 32.0)


def test_limits_of_monotone_grids_stay_monotone():
    # projected grids have projected limits, with finite-window slack on the floor
    rng = np.random.default_rng(19)
    spec = GridSpec(32.0, 0.25)
    for growth in (0.0, 0.4):
        psi = monotone_envelope(random_branching_grid(rng, spec, 1.0), growth)
        curve = scaling_limit(psi, 8.0)
        rep = validate_monotone_curve(curve, 1.0, growth)
        assert rep.worst() <= 0.05 + growth / 8.0, rep.summary()


def test_plateau_minimality_against_monotone_curves():
    # once a plateau fits under a monotone-class curve at its kink, it fits
    # everywhere (the curves are minimal elements of the class)
    rng = np.random.default_rng(23)
    for _ in range(20):
        curve = random_monotone_limit_curve(rng, 1.0, growth=rng.uniform(0.0, 0.5))
        for lam in (0.0, 0.25, 0.5, 0.875):
            k = int(lam * 64)
            kappa = curve.values[k] / (1 - lam)
            pl = plateau_curve(kappa, lam)
            assert np.all(pl.values <= curve.values + 1e-9)
