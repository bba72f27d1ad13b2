"""The constructive half of the paper's classification over random targets, and its converse.

A target from ``families.random_branching_grid`` satisfies the branching
axioms with slope bound 1, so the d = 1 synthesis builds a set whose measured
grid stays inside criterion 4's envelope 4 + 2 log2(u - v + 1) of it.  A
target from ``random_perturbed_branching`` exceeds the slope bound, so
synthesis refuses it until ``lipschitz_approximation`` brings it into the
class, where the same envelope holds against the approximated grid.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from twoscale import GridSpec, empirical_branching, lipschitz_approximation, synthesize_set
from twoscale import io as tsio
from twoscale.cli import main
from twoscale.families import random_branching_grid, random_perturbed_branching

ENVELOPE_C1 = 4.0


def fitted_constant(grid, depth: int) -> float:
    """The additive constant that the set synthesized from ``grid`` at ``depth``
    needs: the largest deviation of its measured grid from ``grid`` beyond
    2 log2(u - v + 1), measured one level short of ``depth`` on the lattice of
    step 0.25, as criterion 4 measures."""
    spec = GridSpec(depth - 1.0, 0.25)
    coverage = empirical_branching(synthesize_set(grid, 1, depth), spec)
    i, j = np.tril_indices(spec.n + 1)
    u, v = spec.coords[i], spec.coords[j]
    deviation = np.abs(coverage.grid.values[i, j] - grid.evaluate(u, v))
    return float(np.max(deviation - 2.0 * np.log2(u - v + 1.0)))


def admissible_targets(count: int = 20) -> list:
    rng = np.random.default_rng(7)
    return [random_branching_grid(rng, GridSpec(20.0, 0.25), 1.0) for _ in range(count)]


def perturbed_targets(count: int = 10) -> list:
    rng = np.random.default_rng(7)
    return [random_perturbed_branching(rng, GridSpec(14.0, 0.25), 1.0) for _ in range(count)]


def test_random_admissible_targets_are_attained_inside_the_envelope():
    constants = [fitted_constant(grid, 20) for grid in admissible_targets()]
    # the diagonal, where the deviation is 0, makes every constant at least 0
    assert min(constants) >= 0.0
    assert max(constants) <= ENVELOPE_C1, constants


def test_an_admissible_target_keeps_membership_through_synth_and_estimate(tmp_path):
    (tmp_path / "target.csv").write_text(tsio.grid_to_csv(admissible_targets(1)[0]))
    synth = tmp_path / "synth"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", str(tmp_path / "target.csv"), "-d", "1", "--depth", "20", "--out", str(synth)]) == 0
        assert main(["estimate", str(synth / "points.csv"), "--metadata", str(synth / "metadata.json"),
                     "--u-min", "8", "--out", str(tmp_path / "est")]) == 0
    assert json.loads((tmp_path / "est" / "box_dims.json").read_text())["membership"] == "passed"


def test_perturbed_targets_are_refused_and_attained_once_approximated(tmp_path, capsys):
    for grid in perturbed_targets():
        with pytest.raises(ValueError, match=r"^grid slope bound \S+ exceeds the ambient dimension 1$"):
            synthesize_set(grid, 1, 14)
        (tmp_path / "target.csv").write_text(tsio.grid_to_csv(grid))
        synth = tmp_path / "synth"
        assert main(["synth", str(tmp_path / "target.csv"), "-d", "1", "--depth", "14", "--out", str(synth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: target grid fails the branching axioms") and "Traceback" not in err
        assert not synth.exists()
        assert 0.0 <= fitted_constant(lipschitz_approximation(grid, 1.0), 14) <= ENVELOPE_C1
