"""Unit and property tests for confusion-matrix utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import AnswerSet
from repro.core.confusion import (
    accuracy,
    error_rate,
    normalize_rows,
    rank_one_distance,
    sensitivity_specificity,
    validated_answer_counts,
    validated_confusion_counts,
    validated_confusions,
)
from repro.core.em_kernel import encode_answers
from repro.core.validation import ExpertValidation
from repro.errors import InvalidProbabilityError
from repro.streaming import ValidationSession

import reference


class TestNormalizeRows:
    def test_plain_normalization(self):
        result = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]]))
        assert np.allclose(result, [[0.5, 0.5], [0.25, 0.75]])

    def test_zero_rows_become_uniform(self):
        result = normalize_rows(np.array([[0.0, 0.0], [4.0, 0.0]]))
        assert np.allclose(result[0], [0.5, 0.5])
        assert np.allclose(result[1], [1.0, 0.0])

    def test_smoothing(self):
        result = normalize_rows(np.array([[1.0, 0.0]]), smoothing=1.0)
        assert np.allclose(result, [[2 / 3, 1 / 3]])

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            normalize_rows(np.array([[-1.0, 2.0]]))

    def test_stacked_matrices(self):
        stacked = np.ones((3, 2, 2))
        result = normalize_rows(stacked)
        assert result.shape == (3, 2, 2)
        assert np.allclose(result.sum(axis=-1), 1.0)


class TestRankOneDistance:
    def test_random_spammer_scores_zero(self):
        assert rank_one_distance(np.array([[0.5, 0.5], [0.5, 0.5]])) == \
            pytest.approx(0.0, abs=1e-12)

    def test_uniform_spammer_scores_zero(self):
        assert rank_one_distance(np.array([[0.0, 1.0], [0.0, 1.0]])) == \
            pytest.approx(0.0, abs=1e-12)

    def test_perfect_worker_scores_high(self):
        assert rank_one_distance(np.eye(2)) == pytest.approx(1.0)
        assert rank_one_distance(np.eye(3)) == pytest.approx(np.sqrt(2.0))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            rank_one_distance(np.ones((2, 3)))

    def test_1x1_is_zero(self):
        assert rank_one_distance(np.array([[1.0]])) == 0.0


class TestErrorRateAccuracy:
    def test_uniform_priors_default(self):
        conf = np.array([[0.9, 0.1], [0.3, 0.7]])
        assert error_rate(conf) == pytest.approx(0.2)
        assert accuracy(conf) == pytest.approx(0.8)

    def test_weighted_priors(self):
        conf = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert error_rate(conf, np.array([1.0, 0.0])) == pytest.approx(0.0)
        assert error_rate(conf, np.array([0.0, 1.0])) == pytest.approx(1.0)


class TestValidatedConfusions:
    def test_counts_only_over_validated(self, table2_answer_sets, table2_gold):
        answers = encode_answers(table2_answer_sets)
        validation = ExpertValidation.from_mapping(
            {i: int(table2_gold[i]) for i in range(4)}, 8, 2)
        counts = validated_confusion_counts(answers, validation)
        # worker A on first 4 objects (gold T,T,F,F; answers T,F,T,F)
        assert counts[0].tolist() == [[1, 1], [1, 1]]
        # worker A' always answers F
        assert counts[1].tolist() == [[0, 2], [0, 2]]
        evidence = validated_answer_counts(answers, validation)
        assert evidence.tolist() == [4, 4]

    def test_no_validations_gives_zero_counts(self, table2_answer_sets):
        answers = encode_answers(table2_answer_sets)
        validation = ExpertValidation.empty_for(table2_answer_sets)
        counts = validated_confusion_counts(answers, validation)
        assert counts.sum() == 0
        evidence = validated_answer_counts(answers, validation)
        assert evidence.tolist() == [0, 0]

    def test_table2_worker_matrices(self, table2_answer_sets, table2_gold):
        """Full validation reproduces the confusion matrices printed in
        Table 2 (A: all 0.5; A': ones column on F)."""
        validation = ExpertValidation.from_mapping(
            {i: int(table2_gold[i]) for i in range(8)}, 8, 2)
        confusions = validated_confusions(encode_answers(table2_answer_sets),
                                          validation)
        assert np.allclose(confusions[0], 0.5)
        assert np.allclose(confusions[1], [[0.0, 1.0], [0.0, 1.0]])

    def test_missing_answers_ignored(self):
        answers = AnswerSet(np.array([[0], [-1]]), labels=("T", "F"))
        validation = ExpertValidation.from_mapping({0: 0, 1: 1}, 2, 2)
        counts = validated_confusion_counts(encode_answers(answers),
                                            validation)
        assert counts.sum() == 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), k=st.integers(1, 7), m=st.integers(2, 4),
           seed=st.integers(0, 10_000))
    def test_encoding_counts_match_dense_rows(self, n, k, m, seed):
        """A session's encoding, masked workers left out, gives the counts
        the dense formula reads from the validated rows of the masked
        matrix."""
        rng = np.random.default_rng(seed)
        answer_set = AnswerSet(rng.integers(-1, m, size=(n, k)),
                               tuple(f"l{i}" for i in range(m)))
        masked = np.flatnonzero(rng.random(k) < 0.3).tolist()
        session = ValidationSession.from_answer_set(answer_set)
        session.set_masked_workers(masked)
        validation = ExpertValidation(n, m)
        for obj in np.flatnonzero(rng.random(n) < 0.5):
            validation.assign(int(obj), int(rng.integers(m)))
        dense = answer_set.mask_workers(masked)
        encoded = session.stats.encoded()
        for count, oracle in (
                (validated_confusion_counts,
                 reference.validated_confusion_counts),
                (validated_answer_counts, reference.validated_answer_counts)):
            got = count(encoded, validation)
            want = oracle(dense, validation)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestSensitivitySpecificity:
    def test_binary_values(self):
        sens, spec = sensitivity_specificity(np.array([[0.8, 0.2],
                                                       [0.4, 0.6]]))
        assert sens == pytest.approx(0.8)
        assert spec == pytest.approx(0.6)

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            sensitivity_specificity(np.eye(3))


@st.composite
def stochastic_matrix(draw, max_m: int = 4):
    m = draw(st.integers(min_value=2, max_value=max_m))
    rows = [draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                          min_size=m, max_size=m)) for _ in range(m)]
    matrix = np.array(rows)
    return matrix / matrix.sum(axis=1, keepdims=True)


@given(matrix=stochastic_matrix())
@settings(max_examples=50, deadline=None)
def test_property_rank_one_distance_bounds(matrix):
    """0 ≤ s(w) ≤ √(m−1) for any row-stochastic confusion matrix."""
    m = matrix.shape[0]
    score = rank_one_distance(matrix)
    assert -1e-9 <= score <= np.sqrt(m - 1) + 1e-9


@given(matrix=stochastic_matrix())
@settings(max_examples=50, deadline=None)
def test_property_error_rate_in_unit_interval(matrix):
    assert 0.0 <= error_rate(matrix) <= 1.0 + 1e-12
    assert error_rate(matrix) + accuracy(matrix) == pytest.approx(1.0)


@given(counts=st.lists(
    st.lists(st.integers(min_value=0, max_value=20), min_size=3, max_size=3),
    min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_property_normalize_rows_is_stochastic(counts):
    result = normalize_rows(np.array(counts, dtype=float))
    assert np.allclose(result.sum(axis=1), 1.0)
    assert np.all(result >= 0)
