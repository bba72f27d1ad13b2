import numpy as np
import pytest

from helpers import grid_from_function
from twoscale import (
    CapExceeded,
    GridSpec,
    SimilarityIFS,
    TwoScaleGrid,
    generate_attractor,
    validate_branching,
)
from twoscale.ifs import DEFAULT_WORD_CAP, count_words_at_resolution


def test_subadditivity_scan_above_n_256():
    # the triple scan is exhaustive at every lattice size
    spec = GridSpec(75.0, 0.25)  # n = 300
    lin = grid_from_function(spec, lambda u, v: 0.5 * (u - v))
    assert validate_branching(lin, 1.0, 1e-9).passed

    bad = grid_from_function(spec, lambda u, v: np.maximum(u - v, 0.0) ** 1.5 / 8.0)
    report = validate_branching(bad, np.inf, 1e-9)
    assert any(v.prop == "subadditivity" for v in report.violations)


@pytest.mark.parametrize("entry", [(150, 148), (299, 297), (20, 18)])
def test_subadditivity_count_is_exact_above_n_256(entry):
    # g(u) - g(v) is additive at every triple; one entry raised two steps off
    # the diagonal breaks exactly the one triple through the entry between
    spec = GridSpec(75.0, 0.25)  # n = 300
    values = grid_from_function(spec, lambda u, v: u**2 - v**2).values.copy()
    values[entry] += 1e-3
    report = validate_branching(TwoScaleGrid(spec, values), np.inf, 1e-9)
    assert report.counts["subadditivity"] == 1
    i, j = entry
    [witness] = [v.witness for v in report.violations if v.prop == "subadditivity"]
    assert witness == (i * 0.25, (i - 1) * 0.25, j * 0.25)


def test_word_and_attractor_caps():
    # the float word expansion stops at the cap
    nondyadic = SimilarityIFS(1, np.array([0.3, 0.3]), np.array([[0.0], [0.7]]))
    with pytest.raises(CapExceeded):
        count_words_at_resolution(nondyadic, 18.0, cap=1000)
    binary = SimilarityIFS(1, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))
    with pytest.raises(CapExceeded):
        generate_attractor(binary, None, 18.0, cap=1000)


def test_dyadic_word_count_ignores_the_cap():
    # dyadic weights are snapped to integers and their families are not capped:
    # a full binary system counts 2^u words, above the default cap from u = 21 on
    binary = SimilarityIFS(1, np.array([0.5, 0.5]), np.array([[0.0], [0.5]]))
    assert count_words_at_resolution(binary, 18.0, cap=1000) == 1 << 18
    assert count_words_at_resolution(binary, 21.0) == 1 << 21 > DEFAULT_WORD_CAP
    # the same family with a float ratio is capped
    nearly = SimilarityIFS(1, np.array([0.5, 0.5 - 1e-6]), np.array([[0.0], [0.5]]))
    assert count_words_at_resolution(nearly, 10.0) == 1 << 10
    with pytest.raises(CapExceeded):
        count_words_at_resolution(nearly, 10.0, cap=1000)

