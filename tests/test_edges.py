import numpy as np
import pytest

from twoscale import (
    CapExceeded,
    GridSpec,
    SimilarityIFS,
    TwoScaleGrid,
    generate_attractor,
    validate_branching,
)
from twoscale.ifs import DEFAULT_WORD_CAP, count_words_at_resolution


def test_sampled_subadditivity_path():
    # above the exhaustive limit the triple scan switches to random sampling
    spec = GridSpec(75.0, 0.25)  # n = 300
    lin = TwoScaleGrid.from_function(spec, lambda u, v: 0.5 * (u - v))
    assert validate_branching(lin, 1.0, 1e-9).passed

    bad = TwoScaleGrid.from_function(spec, lambda u, v: np.maximum(u - v, 0.0) ** 1.5 / 8.0)
    report = validate_branching(bad, np.inf, 1e-9)
    assert any(v.prop == "subadditivity" for v in report.violations)


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

