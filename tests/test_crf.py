"""Linear-chain CRF numerics cross-checked against explicit path enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emrkg.errors import DataError
from emrkg.tagger.crf import (
    gold_score,
    logsumexp,
    nll_with_grad,
    viterbi,
)
from tests.oracles import enumerate_paths, path_score, viterbi_by_sentence


def nll(emissions, transitions, tags) -> float:
    return nll_with_grad(emissions, transitions, tags)[0]


def log_partition(emissions, transitions, tags) -> float:
    """log Z, as the NLL of ``tags`` plus their score."""
    return nll(emissions, transitions, tags) + gold_score(emissions, transitions, tags)


def random_instance(rng: np.random.Generator, forbid: bool = True):
    """Random emissions/transitions/gold tags; optionally a few -inf entries
    (never enough to make every path or the gold path impossible)."""
    length = int(rng.integers(1, 7))
    num_tags = int(rng.integers(2, 5))
    emissions = rng.normal(size=(length, num_tags)) * 2.0
    transitions = rng.normal(size=(num_tags + 2, num_tags + 2)) * 1.5
    if forbid:
        # Forbid transitions into tag 0 from everything but tag 0 and START;
        # paths through the remaining tags stay available.
        for i in range(1, num_tags):
            transitions[i, 0] = -np.inf
    tags = rng.integers(1, num_tags, size=length)
    return emissions, transitions, tags


def test_log_partition_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        emissions, transitions, tags = random_instance(rng)
        expected, _, _ = enumerate_paths(emissions, transitions)
        assert log_partition(emissions, transitions, tags) == pytest.approx(expected, abs=1e-10)


def test_nll_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(43)
    for _ in range(60):
        emissions, transitions, tags = random_instance(rng)
        log_z, _, _ = enumerate_paths(emissions, transitions)
        expected = log_z - path_score(emissions, transitions, tags)
        assert nll(emissions, transitions, tags) == pytest.approx(expected, abs=1e-10)


def test_viterbi_matches_enumeration_argmax():
    rng = np.random.default_rng(44)
    for _ in range(60):
        emissions, transitions, _ = random_instance(rng)
        _, best_score, best_path = enumerate_paths(emissions, transitions)
        (path,) = viterbi(emissions[None], transitions, np.array([len(emissions)]))
        assert tuple(path) == best_path
        assert path_score(emissions, transitions, path) == pytest.approx(
            best_score, abs=1e-10
        )


# Few distinct scores, so that equal-scoring paths (exact ties) are common.
_SCORES = st.sampled_from([-1.0, 0.0, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_viterbi_equals_the_per_sentence_oracle_row_by_row(data):
    num_tags = data.draw(st.integers(1, 4))
    lengths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    width = max(lengths) + data.draw(st.integers(0, 2))
    emissions = data.draw(arrays(np.float64, (len(lengths), width, num_tags), elements=_SCORES))
    transitions = data.draw(arrays(
        np.float64, (num_tags + 2, num_tags + 2), elements=_SCORES | st.just(-np.inf)
    ))
    paths = viterbi(emissions, transitions, np.array(lengths))
    assert len(paths) == len(lengths)
    for row, (length, path) in enumerate(zip(lengths, paths)):
        np.testing.assert_array_equal(
            path, viterbi_by_sentence(emissions[row, :length], transitions)
        )
    # One sentence alone, without padding, is the same path.
    np.testing.assert_array_equal(
        viterbi(emissions[:1, : lengths[0]], transitions, np.array(lengths[:1]))[0], paths[0]
    )


def test_batched_viterbi_rejects_zero_and_overlong_lengths():
    emissions, transitions = np.zeros((2, 3, 2)), np.zeros((4, 4))
    with pytest.raises(DataError, match="^a row of the emission batch has zero length$"):
        viterbi(emissions, transitions, np.array([3, 0]))
    with pytest.raises(ValueError):
        viterbi(emissions, transitions, np.array([3, 4]))


def test_uniform_scores_give_log_of_path_count():
    emissions = np.zeros((1, 2))
    transitions = np.zeros((4, 4))
    assert log_partition(emissions, transitions, np.array([1])) == pytest.approx(math.log(2))
    assert nll(emissions, transitions, np.array([0])) == pytest.approx(math.log(2))

    emissions = np.zeros((3, 2))
    tags = np.array([0, 1, 1])
    assert log_partition(emissions, transitions, tags) == pytest.approx(3 * math.log(2))


def test_gold_score_sums_start_emission_transition_stop():
    emissions = np.array([[1.0, 2.0], [3.0, 4.0]])
    transitions = np.zeros((4, 4))
    transitions[2, 1] = 0.5  # START -> tag 1
    transitions[1, 0] = 0.25
    transitions[0, 3] = 0.125  # tag 0 -> STOP
    score = gold_score(emissions, transitions, np.array([1, 0]))
    assert score == pytest.approx(0.5 + 2.0 + 0.25 + 3.0 + 0.125)


def test_forbidden_gold_path_has_infinite_nll():
    emissions = np.zeros((2, 2))
    transitions = np.zeros((4, 4))
    transitions[0, 1] = -np.inf
    assert math.isinf(nll(emissions, transitions, np.array([0, 1])))
    assert nll(emissions, transitions, np.array([0, 0])) < math.inf


def test_nll_is_nonnegative():
    rng = np.random.default_rng(45)
    for _ in range(50):
        emissions, transitions, tags = random_instance(rng)
        assert nll(emissions, transitions, tags) >= -1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(46)
    emissions, transitions, tags = random_instance(rng)
    value, d_emissions, d_transitions = nll_with_grad(emissions, transitions, tags)
    log_z, _, _ = enumerate_paths(emissions, transitions)
    assert value == pytest.approx(log_z - path_score(emissions, transitions, tags), abs=1e-12)

    eps = 1e-6
    for index in np.ndindex(emissions.shape):
        emissions[index] += eps
        up = nll(emissions, transitions, tags)
        emissions[index] -= 2 * eps
        down = nll(emissions, transitions, tags)
        emissions[index] += eps
        assert d_emissions[index] == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    for index in np.ndindex(transitions.shape):
        if not np.isfinite(transitions[index]):
            assert d_transitions[index] == 0.0
            continue
        transitions[index] += eps
        up = nll(emissions, transitions, tags)
        transitions[index] -= 2 * eps
        down = nll(emissions, transitions, tags)
        transitions[index] += eps
        assert d_transitions[index] == pytest.approx((up - down) / (2 * eps), abs=1e-6)


def test_emission_gradient_rows_sum_to_zero():
    # Rows are marginal distributions minus a one-hot row: both sum to 1.
    rng = np.random.default_rng(47)
    for _ in range(20):
        emissions, transitions, tags = random_instance(rng)
        _, d_emissions, _ = nll_with_grad(emissions, transitions, tags)
        np.testing.assert_allclose(d_emissions.sum(axis=1), 0.0, atol=1e-12)


def test_transition_gradient_is_zero_at_forbidden_entries():
    rng = np.random.default_rng(48)
    emissions, transitions, tags = random_instance(rng)
    _, _, d_transitions = nll_with_grad(emissions, transitions, tags)
    assert np.all(d_transitions[~np.isfinite(transitions)] == 0.0)


def test_single_position_marginals_are_softmax():
    emissions = np.array([[0.3, -0.7, 1.1]])
    transitions = np.zeros((5, 5))
    _, d_emissions, _ = nll_with_grad(emissions, transitions, np.array([2]))
    softmax = np.exp(emissions[0]) / np.exp(emissions[0]).sum()
    expected = softmax - np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(d_emissions[0], expected, atol=1e-12)


def test_empty_sentence_is_rejected():
    transitions = np.zeros((4, 4))
    with pytest.raises(DataError, match="^emission matrix has zero rows$"):
        nll(np.zeros((0, 2)), transitions, np.zeros(0, dtype=int))


def test_mismatched_transition_shape_is_rejected():
    with pytest.raises(ValueError):
        nll(np.zeros((2, 2)), np.zeros((3, 3)), np.array([0, 1]))


def test_invalid_gold_tags_are_rejected():
    emissions = np.zeros((2, 2))
    transitions = np.zeros((4, 4))
    with pytest.raises(DataError, match="^gold tags invalid for length 2, 2 tags$"):
        gold_score(emissions, transitions, np.array([0, 5]))
    with pytest.raises(DataError, match="^gold tags invalid for length 2, 2 tags$"):
        nll_with_grad(emissions, transitions, np.array([0]))


def test_logsumexp_is_stable_for_large_and_degenerate_inputs():
    assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2))
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp(np.array([-np.inf, 3.0])) == pytest.approx(3.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partition_dominates_gold_score(seed):
    rng = np.random.default_rng(seed)
    emissions, transitions, tags = random_instance(rng, forbid=False)
    log_z = log_partition(emissions, transitions, tags)
    assert log_z >= gold_score(emissions, transitions, tags) - 1e-12
