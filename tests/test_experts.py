"""Tests for simulated experts and the confirmation check (§5.5, §6.7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import AnswerSet
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.errors import ExpertError
from repro.experts.confirmation import ConfirmationCheck
from repro.experts.simulated import (
    CallbackExpert,
    NoisyExpert,
    OracleExpert,
    ScriptedExpert,
)
from repro.streaming import ValidationSession


class TestOracleExpert:
    def test_returns_gold(self):
        expert = OracleExpert([1, 0, 1])
        assert expert.validate(0) == 1
        assert expert.validate(2) == 1
        assert expert.reconsider(1) == 0

    def test_rejects_non_vector_gold(self):
        with pytest.raises(ExpertError):
            OracleExpert(np.zeros((2, 2)))


class TestNoisyExpert:
    def test_zero_probability_is_oracle(self):
        expert = NoisyExpert([0, 1, 0], 2, mistake_probability=0.0, rng=0)
        assert [expert.validate(i) for i in range(3)] == [0, 1, 0]
        assert expert.mistakes == set()

    def test_mistake_rate_roughly_p(self):
        gold = np.zeros(400, dtype=int)
        expert = NoisyExpert(gold, 2, mistake_probability=0.25, rng=1)
        answers = [expert.validate(i) for i in range(400)]
        rate = float(np.mean(np.array(answers) != 0))
        assert 0.15 < rate < 0.35

    def test_confirm_bias_prefers_wrong_aggregate(self):
        gold = np.zeros(300, dtype=int)
        expert = NoisyExpert(gold, 3, mistake_probability=1.0,
                             confirm_bias=1.0, rng=2)
        # When the aggregated answer is wrong, a slip confirms it.
        answer = expert.validate(0, {"aggregated": 2})
        assert answer == 2
        # When the aggregated answer is correct, the slip is a random wrong
        # label instead (cannot "wrongly confirm" a correct answer).
        answer = expert.validate(1, {"aggregated": 0})
        assert answer != 0

    def test_reconsider_returns_truth_and_clears_mistake(self):
        expert = NoisyExpert([1], 2, mistake_probability=1.0, rng=0)
        assert expert.validate(0) == 0  # slipped
        assert 0 in expert.mistakes
        assert expert.reconsider(0) == 1
        assert 0 not in expert.mistakes

    def test_single_label_cannot_slip(self):
        expert = NoisyExpert([0], 1, mistake_probability=1.0, rng=0)
        assert expert.validate(0) == 0
        assert expert.mistakes == set()

    def test_parameter_validation(self):
        with pytest.raises(ExpertError):
            NoisyExpert([0], 2, mistake_probability=1.5)
        with pytest.raises(ExpertError):
            NoisyExpert([0], 2, mistake_probability=0.1, confirm_bias=-0.1)


class TestScriptedAndCallback:
    def test_scripted_replays(self):
        expert = ScriptedExpert({0: 1, 2: 0})
        assert expert.validate(0) == 1
        with pytest.raises(ExpertError):
            expert.validate(1)

    def test_callback_bridges(self):
        expert = CallbackExpert(lambda obj, ctx: obj % 2)
        assert expert.validate(3) == 1
        assert expert.validate(4) == 0


class TestConfirmationCheck:
    def test_flags_injected_mistake(self, small_crowd):
        """Validate several objects correctly, inject one wrong validation;
        the leave-one-out check should flag exactly the wrong one."""
        answers = small_crowd.answer_set
        gold = small_crowd.gold
        validation = ExpertValidation.empty_for(answers)
        for obj in range(6):
            validation.assign(obj, int(gold[obj]))
        wrong_obj = 7
        validation.assign(wrong_obj, int(1 - gold[wrong_obj]))
        aggregator = IncrementalEM()
        current = aggregator.conclude(answers, validation)
        report = ConfirmationCheck(aggregator).run(current)
        assert wrong_obj in report.flagged.tolist()
        assert report.n_flagged <= 2  # at most one extra borderline flag

    def test_clean_validations_mostly_unflagged(self, small_crowd):
        answers = small_crowd.answer_set
        gold = small_crowd.gold
        validation = ExpertValidation.empty_for(answers)
        for obj in range(8):
            validation.assign(obj, int(gold[obj]))
        aggregator = IncrementalEM()
        current = aggregator.conclude(answers, validation)
        report = ConfirmationCheck(aggregator).run(current)
        assert report.n_flagged <= 1

    def test_skips_with_too_few_validations(self, small_crowd):
        validation = ExpertValidation.empty_for(small_crowd.answer_set)
        validation.assign(0, int(small_crowd.gold[0]))
        current = IncrementalEM().conclude(small_crowd.answer_set,
                                           validation)
        report = ConfirmationCheck(min_other_validations=1).run(current)
        assert report.checked.size == 0
        assert report.n_flagged == 0

    def test_masked_snapshot_matches_dense_leave_one_out(self, small_crowd):
        """After a mask toggle the check reads the snapshot's encoding and
        flags what a leave-one-out conclude over the masked dense matrix
        flags."""
        answers, gold = small_crowd.answer_set, small_crowd.gold
        session = ValidationSession.from_answer_set(answers)
        for obj in range(8):
            session.add_validation(obj, int(gold[obj]))
        for obj in (9, 11):  # two wrong validations
            session.add_validation(obj, int(1 - gold[obj]))
        session.set_masked_workers([0, 3])
        current = session.conclude_snapshot()
        report = ConfirmationCheck(session.aggregator).run(current)

        dense = AnswerSet(session.stats.to_matrix(include_masked=False),
                          answers.labels)
        validation = current.validation
        flagged = []
        for obj in validation.validated_indices().tolist():
            posterior = IncrementalEM().conclude(
                dense, validation.without(obj), previous=current)
            if int(np.argmax(posterior.assignment[obj])) \
                    != validation.label_of(obj):
                flagged.append(obj)
        assert report.checked.tolist() \
            == validation.validated_indices().tolist()
        assert report.flagged.tolist() == flagged
        assert flagged  # the sweep does flag something
