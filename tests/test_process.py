"""Integration tests for the validation process (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import AnswerSet
from repro.errors import BudgetExhaustedError, GoalError, GuidanceError
from repro.experts.simulated import NoisyExpert, OracleExpert
from repro.guidance import (
    HybridStrategy,
    InformationGainStrategy,
    MaxEntropyStrategy,
    RandomStrategy,
    WorkerDrivenStrategy,
)
from repro.process import (
    AllValidated,
    FaultyWorkerFilter,
    NeverSatisfied,
    PrecisionReached,
    UncertaintyBelow,
    ValidationProcess,
    dynamic_weight,
)
from repro.streaming import ValidationSession
from repro.workers.spammer_detection import SpammerDetector


class TestDynamicWeight:
    def test_eq15_formula(self):
        import math
        eps, ratio, f = 0.4, 0.3, 0.5
        expected = 1.0 - math.exp(-(eps * (1 - f) + ratio * f))
        assert dynamic_weight(eps, ratio, f) == pytest.approx(expected)

    def test_bounds(self):
        assert dynamic_weight(0.0, 0.0, 0.0) == 0.0
        assert 0.0 < dynamic_weight(1.0, 1.0, 0.5) < 1.0

    def test_early_iterations_dominated_by_error_rate(self):
        early_err = dynamic_weight(0.9, 0.0, 0.05)
        early_spam = dynamic_weight(0.0, 0.9, 0.05)
        assert early_err > early_spam

    def test_late_iterations_dominated_by_spam_ratio(self):
        late_err = dynamic_weight(0.9, 0.0, 0.95)
        late_spam = dynamic_weight(0.0, 0.9, 0.95)
        assert late_spam > late_err

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dynamic_weight(1.5, 0.0, 0.0)


class TestGoals:
    def test_precision_goal_requires_gold(self, small_crowd):
        # The misconfiguration surfaces at construction, not mid-loop.
        with pytest.raises(GoalError, match="gold"):
            ValidationProcess(
                small_crowd.answer_set, OracleExpert(small_crowd.gold),
                strategy=MaxEntropyStrategy(), goal=PrecisionReached(1.0),
                rng=0)  # no gold passed

    def test_precision_goal_requires_gold_inside_combined_goal(
            self, small_crowd):
        goal = NeverSatisfied() | (PrecisionReached(1.0) & AllValidated())
        with pytest.raises(GoalError, match="PrecisionReached"):
            ValidationProcess(
                small_crowd.answer_set, OracleExpert(small_crowd.gold),
                strategy=MaxEntropyStrategy(), goal=goal, rng=0)

    def test_uncertainty_goal(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(),
            goal=UncertaintyBelow(0.01), budget=30,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert report.goal_reached or report.total_effort == 30

    def test_all_validated_goal(self, table1_answer_set, table1_gold):
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=MaxEntropyStrategy(), goal=AllValidated(),
            budget=10, gold=table1_gold, rng=0)
        report = process.run()
        assert process.validation.count == 4
        assert report.goal_reached

    def test_goal_combinators(self, small_crowd):
        goal = UncertaintyBelow(0.0) | PrecisionReached(0.5)
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), goal=goal, budget=30,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert report.goal_reached

    def test_goal_parameter_validation(self):
        with pytest.raises(ValueError):
            UncertaintyBelow(-1.0)
        with pytest.raises(ValueError):
            PrecisionReached(1.5)


class TestValidationProcess:
    def test_reaches_perfect_precision_with_oracle(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), goal=PrecisionReached(1.0),
            budget=small_crowd.answer_set.n_objects,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert report.final_precision() == 1.0

    def test_budget_respected(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=RandomStrategy(), goal=NeverSatisfied(), budget=5,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert report.total_effort == 5
        with pytest.raises(BudgetExhaustedError):
            process.step()

    def test_step_past_exhaustion_raises(self, table1_answer_set,
                                         table1_gold):
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=RandomStrategy(), budget=10, gold=table1_gold, rng=0)
        for _ in range(4):
            process.step()
        with pytest.raises(GuidanceError):
            process.step()

    def test_all_strategies_run(self, spammy_crowd):
        for strategy in (RandomStrategy(), MaxEntropyStrategy(),
                         InformationGainStrategy(candidate_limit=5),
                         WorkerDrivenStrategy(candidate_limit=5),
                         HybridStrategy(
                             uncertainty=InformationGainStrategy(
                                 candidate_limit=5),
                             worker=WorkerDrivenStrategy(candidate_limit=5))):
            process = ValidationProcess(
                spammy_crowd.answer_set, OracleExpert(spammy_crowd.gold),
                strategy=strategy, budget=6, gold=spammy_crowd.gold, rng=1)
            report = process.run()
            assert report.total_effort == 6
            assert not np.isnan(report.final_precision())

    def test_records_track_metrics(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), budget=4,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert len(report.records) == 4
        first = report.records[0]
        assert first.iteration == 1
        assert 0.0 <= first.error_rate <= 1.0
        assert 0.0 <= first.hybrid_weight < 1.0
        assert first.effort == 1
        assert first.em_iterations >= 1
        assert first.elapsed_seconds >= 0.0

    def test_validated_objects_never_reselected(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=RandomStrategy(), budget=10,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        selected = [r.object_index for r in report.records]
        assert len(selected) == len(set(selected))

    def test_faulty_handling_masks_answers(self, spammy_crowd):
        """Force the worker branch every iteration (weight stays high via
        a noisy start) and check suspects get masked at some point."""
        process = ValidationProcess(
            spammy_crowd.answer_set, OracleExpert(spammy_crowd.gold),
            strategy=HybridStrategy(
                uncertainty=MaxEntropyStrategy(),
                worker=WorkerDrivenStrategy(candidate_limit=5)),
            detector=SpammerDetector(tau_s=0.35),
            budget=20, gold=spammy_crowd.gold, rng=3)
        report = process.run()
        assert report.total_effort == 20
        # detection ratio recorded and in range
        assert all(0.0 <= r.spammer_ratio <= 1.0 for r in report.records)

    def test_handle_faulty_disabled(self, spammy_crowd):
        process = ValidationProcess(
            spammy_crowd.answer_set, OracleExpert(spammy_crowd.gold),
            strategy=MaxEntropyStrategy(), handle_faulty=False,
            budget=5, gold=spammy_crowd.gold, rng=0)
        process.run()
        assert process.faulty_filter.suspected == frozenset()

    def test_gold_shape_checked(self, table1_answer_set):
        with pytest.raises(ValueError, match="gold"):
            ValidationProcess(table1_answer_set, OracleExpert([0]),
                              gold=np.array([0]), rng=0)

    def test_invalid_budget_and_interval(self, table1_answer_set,
                                         table1_gold):
        with pytest.raises(ValueError):
            ValidationProcess(table1_answer_set, OracleExpert(table1_gold),
                              budget=-1, rng=0)
        with pytest.raises(ValueError):
            ValidationProcess(table1_answer_set, OracleExpert(table1_gold),
                              confirmation_interval=0, rng=0)

    def test_report_curves_align(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), budget=6,
            gold=small_crowd.gold, rng=0)
        report = process.run()
        assert report.efforts().shape == report.precisions().shape
        assert report.efforts()[0] == 0.0
        assert np.all(np.diff(report.efforts()) >= 0)
        improvements = report.improvements()
        assert improvements[0] == pytest.approx(0.0)


class TestFaultyWorkerFilter:
    def test_handle_and_reinclude(self, table2_answer_sets):
        from repro.workers.spammer_detection import DetectionResult
        filt = FaultyWorkerFilter(persistence=1)
        detection = DetectionResult(
            spammer_scores=np.array([0.0, 1.0]),
            error_rates=np.zeros(2),
            evidence=np.array([4, 4]),
            spammer_mask=np.array([True, False]),
            sloppy_mask=np.zeros(2, dtype=bool))
        filt.handle(detection)
        assert filt.suspected == frozenset({0})
        session = ValidationSession.from_answer_set(table2_answer_sets)
        session.set_masked_workers(filt.suspected)
        assert 0 not in session.stats.encoded().worker_index
        # A later clean detection re-includes the worker.
        clean = DetectionResult(
            spammer_scores=np.array([1.0, 1.0]),
            error_rates=np.zeros(2),
            evidence=np.array([8, 8]),
            spammer_mask=np.zeros(2, dtype=bool),
            sloppy_mask=np.zeros(2, dtype=bool))
        filt.handle(clean)
        assert filt.suspected == frozenset()
        session.set_masked_workers(filt.suspected)
        assert session.stats.encoded().n_answers \
            == table2_answer_sets.n_answers
        assert filt.history == [1, 0]

    def test_suspected_mask(self):
        filt = FaultyWorkerFilter()
        assert filt.suspected_mask(3).tolist() == [False, False, False]


class TestNoisyExpertIntegration:
    def test_confirmation_check_repairs_mistakes(self, small_crowd):
        """With a high mistake rate and the confirmation check on, the
        final precision should still be high (the §6.7 robustness claim)."""
        expert = NoisyExpert(small_crowd.gold, 2, mistake_probability=0.3,
                             rng=5)
        process = ValidationProcess(
            small_crowd.answer_set, expert,
            strategy=MaxEntropyStrategy(),
            confirmation_interval=3,
            budget=small_crowd.answer_set.n_objects + 15,
            goal=AllValidated(),
            gold=small_crowd.gold, rng=5)
        report = process.run()
        assert report.final_precision() >= 0.9
