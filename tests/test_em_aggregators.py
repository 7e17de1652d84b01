"""Tests for the batch EM baseline and the incremental i-EM aggregators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import AnswerSet
from repro.core.em import DawidSkeneEM
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.metrics.evaluation import precision
from repro.streaming import ValidationSession


class TestDawidSkeneEM:
    def test_recovers_table1_with_em(self, table1_answer_set, table1_gold):
        """EM weighs the reliable worker W3 and beats majority voting on
        the paper's Table 1 example."""
        result = DawidSkeneEM().fit(table1_answer_set)
        labels = result.map_labels()
        # o1 and o2 are easy; EM must at least match MV there.
        assert labels[0] == table1_gold[0]
        assert labels[1] == table1_gold[1]
        assert precision(labels, table1_gold) >= 0.5

    def test_init_policies(self, table1_answer_set):
        for init in ("majority", "random", "uniform"):
            result = DawidSkeneEM(init=init, rng=0).fit(table1_answer_set)
            assert result.assignment.shape == (4, 4)
        with pytest.raises(ValueError, match="init"):
            DawidSkeneEM(init="bogus")

    def test_validation_clamps(self, table1_answer_set):
        validation = ExpertValidation.from_mapping({3: 1}, 4, 4)
        result = DawidSkeneEM().fit(table1_answer_set, validation)
        assert result.probability(3, 1) == 1.0

    def test_random_init_seeded(self, table1_answer_set):
        a = DawidSkeneEM(init="random", rng=5).fit(table1_answer_set)
        b = DawidSkeneEM(init="random", rng=5).fit(table1_answer_set)
        assert np.allclose(a.assignment, b.assignment)

    def test_validation_copy_independent(self, table1_answer_set):
        validation = ExpertValidation.empty_for(table1_answer_set)
        result = DawidSkeneEM().fit(table1_answer_set, validation)
        validation.assign(0, 0)
        assert result.validation.count == 0


class TestIncrementalEM:
    def test_first_call_equals_batch_majority(self, table1_answer_set):
        batch = DawidSkeneEM(init="majority").fit(table1_answer_set)
        validation = ExpertValidation.empty_for(table1_answer_set)
        incremental = IncrementalEM().conclude(table1_answer_set, validation)
        assert np.allclose(batch.assignment, incremental.assignment)

    def test_warm_start_uses_fewer_iterations(self, small_crowd):
        """The i-EM promise (Figure 8): warm starts converge faster than
        cold restarts after a single new validation."""
        answers = small_crowd.answer_set
        iem = IncrementalEM()
        validation = ExpertValidation.empty_for(answers)
        state = iem.conclude(answers, validation)
        cold_total, warm_total = 0, 0
        for obj in range(5):
            validation.assign(obj, int(small_crowd.gold[obj]))
            warm = iem.conclude(answers, validation, previous=state)
            cold = iem.conclude(answers, validation, previous=None)
            warm_total += warm.n_em_iterations
            cold_total += cold.n_em_iterations
            state = warm
        assert warm_total < cold_total

    def test_clamping_eq4(self, table1_answer_set):
        validation = ExpertValidation.from_mapping({0: 1, 3: 1}, 4, 4)
        result = IncrementalEM().conclude(table1_answer_set, validation)
        assert result.probability(0, 1) == 1.0
        assert result.probability(3, 1) == 1.0

    def test_validation_drives_worker_assessment(self, table1_answer_set,
                                                 table1_gold):
        """Validating o4 (where only W3 is right) boosts W3's estimated
        reliability and with it the belief in W3's answer on the tied
        object o3 — the motivating example of §2."""
        iem = IncrementalEM()
        validation = ExpertValidation.empty_for(table1_answer_set)
        state = iem.conclude(table1_answer_set, validation)
        w3_before = float(np.diag(state.confusion_of("w3")).mean())
        validation.assign(3, int(table1_gold[3]))
        state = iem.conclude(table1_answer_set, validation, previous=state)
        w3_after = float(np.diag(state.confusion_of("w3")).mean())
        assert w3_after >= w3_before
        # The validated object itself is always right afterwards.
        assert state.map_labels()[3] == table1_gold[3]

    def test_incompatible_previous_rejected(self, table1_answer_set):
        iem = IncrementalEM()
        validation = ExpertValidation.empty_for(table1_answer_set)
        state = iem.conclude(table1_answer_set, validation)
        other = AnswerSet(np.array([[0, 1]]), labels=("a", "b"))
        with pytest.raises(ValueError, match="shape"):
            iem.conclude(other, ExpertValidation.empty_for(other),
                         previous=state)

    def test_masked_answer_set_is_compatible(self, table1_answer_set):
        """Worker masking preserves shape, so warm starts survive it."""
        iem = IncrementalEM()
        validation = ExpertValidation.empty_for(table1_answer_set)
        state = iem.conclude(table1_answer_set, validation)
        masked = table1_answer_set.mask_workers([4])
        result = iem.conclude(masked, validation, previous=state)
        assert result.n_objects == 4

    def test_unknown_init_policy(self):
        """Both aggregators reject an unknown policy at construction."""
        for aggregator in (IncrementalEM, DawidSkeneEM):
            with pytest.raises(ValueError, match="init"):
                aggregator(init="bogus")

    def test_em_iteration_count_reported(self, table1_answer_set):
        result = IncrementalEM().conclude(
            table1_answer_set, ExpertValidation.empty_for(table1_answer_set))
        assert result.n_em_iterations >= 1


class TestOneSolvePath:
    """Batch EM, i-EM and the streaming session solve through one method,
    so from the same start they return the same floats."""

    @pytest.mark.parametrize("init", ["majority", "random", "uniform"])
    def test_fit_conclude_and_session_agree(self, small_crowd, init):
        answers = small_crowd.answer_set
        gold = small_crowd.gold
        validation = ExpertValidation.from_mapping(
            {obj: int(gold[obj]) for obj in range(3)},
            answers.n_objects, answers.n_labels)

        def aggregator(cls=IncrementalEM):
            return cls(init=init, max_iter=60, smoothing=0.1, rng=11)

        fitted = aggregator(DawidSkeneEM).fit(answers, validation)
        concluded = aggregator().conclude(answers, validation)
        session = ValidationSession.from_answer_set(
            answers, validation, aggregator=aggregator())
        streamed = session.conclude()
        for result in (concluded, streamed):
            assert np.array_equal(result.assignment, fitted.assignment)
            assert np.array_equal(result.confusions, fitted.confusions)
            assert np.array_equal(result.priors, fitted.priors)
        assert concluded.n_em_iterations == fitted.n_em_iterations \
            == streamed.n_iterations

        # One warm step: both warm-start from their previous model.
        validation.assign(3, int(gold[3]))
        session.add_validation(3, int(gold[3]))
        warm = aggregator().conclude(answers, validation, previous=concluded)
        streamed = session.conclude()
        assert np.array_equal(streamed.assignment, warm.assignment)
        assert np.array_equal(streamed.confusions, warm.confusions)
        assert np.array_equal(streamed.priors, warm.priors)
        assert streamed.n_iterations == warm.n_em_iterations


class TestSeparateVsCombined:
    def test_separate_beats_combined(self, spammy_crowd):
        """§6.3: clamping expert input (Separate) yields at least the
        precision of feeding it in as one more worker (Combined)."""
        answers = spammy_crowd.answer_set
        gold = spammy_crowd.gold
        n_validated = 12
        validated = {i: int(gold[i]) for i in range(n_validated)}

        separate = DawidSkeneEM().fit(
            answers,
            ExpertValidation.from_mapping(validated, answers.n_objects,
                                          answers.n_labels))
        combined_answers = answers.with_worker(
            "expert", {obj: int(lab) for obj, lab in validated.items()})
        combined = DawidSkeneEM().fit(combined_answers)

        separate_precision = precision(separate.map_labels(), gold)
        combined_precision = precision(combined.map_labels(), gold)
        assert separate_precision >= combined_precision
