"""Acceptance suite: one test per verification criterion, fixed seed.

Each test prints its measured line so a `pytest -s` run doubles as a report.
Criterion 5 is a strict expected failure: the windowed spectrum estimator's
finite-depth bias exceeds the stated tolerance at the reference depth (see
README, "Known limits of the estimators"); the test documents the defect
rather than recalibrating it away.

The last test hashes the report `twoscale verify all --seed 0` would write,
built from the criterion runs above, against the golden digest.
"""

import hashlib

import pytest

from twoscale.io import json_text
from twoscale.verify import CRITERIA, VerifyContext, report_payload, run_suite

SEED = 0
RESULTS = {}  # criterion id -> result of its run in this module


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(SEED)


def _run(ctx, cid):
    result = CRITERIA[cid](ctx)
    RESULTS[cid] = result
    print(result.line())
    return result


def test_criterion_01_lipschitz_approximation(ctx):
    r = _run(ctx, 1)
    assert r.passed, r.details


def test_criterion_02_projection_laws(ctx):
    r = _run(ctx, 2)
    assert r.passed, r.details
    assert r.details["idempotency"] <= 1e-9
    assert r.details["majorant_violations"] == 0
    assert r.details["class_violations"] == 0


def test_criterion_03_commuting_diagram(ctx):
    r = _run(ctx, 3)
    assert r.passed, r.details
    assert r.details["sup_deviation"] <= 0.05


def test_criterion_04_attainability(ctx):
    r = _run(ctx, 4)
    assert r.passed, r.details
    assert r.details["worst_margin"] <= 0.0


@pytest.mark.xfail(
    strict=True,
    reason="finite-depth estimator bias: the windowed scaling limit inherits "
    "the synthesized set's log-pileup at theta=0 and the cell-count constant "
    "amplified by 1/(1-theta) near theta=1; both exceed 0.1 at depth 20",
)
def test_criterion_05_spectrum_recovery(ctx):
    r = _run(ctx, 5)
    assert r.passed, r.details


def test_criterion_06_critical_exponent(ctx):
    r = _run(ctx, 6)
    assert r.passed, r.details
    assert r.details["mixed_moran"] <= 1e-3
    assert r.details["mixed_gap"] <= 0.02


def test_criterion_07_dimension_formula(ctx):
    r = _run(ctx, 7)
    assert r.passed, r.details
    assert r.details["point_condensation_dev"] <= 0.1
    assert r.details["tree_condensation_dev"] <= 0.1


def test_criterion_08_lower_box(ctx):
    r = _run(ctx, 8)
    assert r.passed, r.details
    assert r.details["spot_error"] <= 1e-9
    assert r.details["dichotomy_mismatches"] == 0
    assert r.details["range_excursions"] == 0


def test_criterion_09_upper_spectrum_swap(ctx):
    r = _run(ctx, 9)
    assert r.passed, r.details
    assert r.details["sup_deviation"] <= 1e-9


def test_criterion_10_monotone_subadditivity(ctx):
    r = _run(ctx, 10)
    assert r.passed, r.details
    assert r.details["failures"] == 0


def test_criterion_11_empirical_membership(ctx):
    r = _run(ctx, 11)
    assert r.passed, r.details
    assert r.details["failures"] == 0


def test_verify_all_report_matches_golden_digest(golden):
    if list(RESULTS) == list(CRITERIA):
        results = [RESULTS[cid] for cid in CRITERIA]
    else:  # some criteria were deselected: run the suite as the CLI does
        results = run_suite("all", SEED)
    payload = report_payload("all", SEED, results)
    assert hashlib.sha256(json_text(payload).encode()).hexdigest() == golden["verify/verify_report.json"]
