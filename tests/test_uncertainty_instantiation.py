"""Tests for entropy measures, majority voting, and instantiation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.instantiation import assignment_confidence, deterministic_assignment
from repro.core.majority import majority_probabilistic, majority_vote
from repro.core.uncertainty import (
    answer_set_uncertainty,
    entropy_of_distribution,
    max_entropy_object,
    normalized_uncertainty,
    object_entropies,
)
from repro.core.validation import ExpertValidation


class TestEntropy:
    def test_certain_distribution_is_zero(self):
        assert entropy_of_distribution(np.array([1.0, 0.0])) == 0.0

    def test_uniform_is_log_m(self):
        assert entropy_of_distribution(np.full(4, 0.25)) == \
            pytest.approx(np.log(4))

    def test_object_entropies_eq6(self):
        assignment = np.array([[1.0, 0.0], [0.5, 0.5]])
        entropies = object_entropies(assignment)
        assert entropies[0] == pytest.approx(0.0)
        assert entropies[1] == pytest.approx(np.log(2))

    def test_uncertainty_eq7_sums_objects(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        assert answer_set_uncertainty(prob_set) == pytest.approx(
            object_entropies(prob_set.assignment).sum())

    def test_normalized_uncertainty_bounds(self, small_crowd):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(small_crowd.answer_set)
        assert 0.0 <= normalized_uncertainty(prob_set) <= 1.0

    def test_max_entropy_object_with_candidates(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        top = max_entropy_object(prob_set)
        entropies = object_entropies(prob_set.assignment)
        assert entropies[top] == entropies.max()
        restricted = max_entropy_object(prob_set, np.array([0, 1]))
        assert restricted in (0, 1)

    def test_max_entropy_object_empty_candidates(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        with pytest.raises(ValueError):
            max_entropy_object(prob_set, np.array([], dtype=np.int64))


@given(rows=st.lists(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_property_entropy_bounds(rows):
    """0 ≤ H(o) ≤ log m for every normalized row."""
    matrix = np.array(rows)
    matrix /= matrix.sum(axis=1, keepdims=True)
    entropies = object_entropies(matrix)
    assert np.all(entropies >= -1e-12)
    assert np.all(entropies <= np.log(3) + 1e-9)


class TestMajorityVote:
    def test_table1_majority(self, table1_answer_set):
        """Table 1's 'Majority Voting' column: o1→2, o2→3, o3→tie(1,4),
        o4→1 (wrong)."""
        labels = majority_vote(table1_answer_set)
        assert labels[0] == 1  # label "2"
        assert labels[1] == 2  # label "3"
        assert labels[2] in (0, 3)  # tie between labels "1" and "4"
        assert labels[3] == 0  # label "1" (incorrect, per the paper)

    def test_random_tie_break_seeded(self, table1_answer_set):
        a = majority_vote(table1_answer_set, tie_break="random", rng=1)
        b = majority_vote(table1_answer_set, tie_break="random", rng=1)
        assert np.array_equal(a, b)

    def test_unknown_tie_break(self, table1_answer_set):
        with pytest.raises(ValueError):
            majority_vote(table1_answer_set, tie_break="bogus")

    def test_majority_probabilistic_rows_are_distributions(
            self, table1_answer_set):
        prob_set = majority_probabilistic(table1_answer_set)
        assert np.allclose(prob_set.assignment.sum(axis=1), 1.0)

    def test_majority_probabilistic_clamps_validation(self, table1_answer_set):
        validation = ExpertValidation.from_mapping({3: 1}, 4, 4)
        prob_set = majority_probabilistic(table1_answer_set, validation)
        assert prob_set.probability(3, 1) == 1.0

    def test_object_with_no_votes_uniform(self):
        answers = AnswerSet(np.array([[0], [MISSING]]), labels=("a", "b"))
        prob_set = majority_probabilistic(answers)
        assert np.allclose(prob_set.assignment[1], 0.5)


class TestInstantiation:
    def test_filter_prefers_expert_labels(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        validation = ExpertValidation.from_mapping({2: 3}, 4, 4)
        prob_set = DawidSkeneEM().fit(table1_answer_set, validation)
        assignment = deterministic_assignment(prob_set)
        assert assignment[2] == 3

    def test_filter_is_argmax_otherwise(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        assignment = deterministic_assignment(prob_set)
        assert np.array_equal(assignment,
                              np.argmax(prob_set.assignment, axis=1))

    def test_confidence_one_for_validated(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        validation = ExpertValidation.from_mapping({0: 0}, 4, 4)
        prob_set = DawidSkeneEM().fit(table1_answer_set, validation)
        confidence = assignment_confidence(prob_set)
        assert confidence[0] == 1.0
        assert np.all(confidence >= 1.0 / 4 - 1e-12)


class TestProbabilisticAnswerSet:
    def test_shape_validation(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        from repro.core.probabilistic import ProbabilisticAnswerSet
        from repro.errors import InvalidProbabilityError
        good = DawidSkeneEM().fit(table1_answer_set)
        with pytest.raises(InvalidProbabilityError):
            ProbabilisticAnswerSet(
                encoded=good.encoded,
                validation=good.validation,
                assignment=good.assignment[:2],
                confusions=good.confusions,
                priors=good.priors)

    def test_correct_label_probabilities(self, table1_answer_set, table1_gold):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        probs = prob_set.correct_label_probabilities(table1_gold)
        assert probs.shape == (4,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_confusion_of_by_name(self, table1_answer_set):
        from repro.core.em import DawidSkeneEM
        prob_set = DawidSkeneEM().fit(table1_answer_set)
        w3 = table1_answer_set.worker_index("w3")
        assert prob_set.confusions[w3].shape == (4, 4)
