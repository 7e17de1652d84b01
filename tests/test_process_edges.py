"""Edge cases of the validation process previously untested.

Covers the degenerate configurations a streaming deployment actually hits:
zero-budget runs (monitoring-only), campaigns whose objects were all
validated before the loop starts, and workers who answered nothing flowing
through detection and the faulty filter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import MISSING, AnswerSet
from repro.errors import BudgetExhaustedError, GuidanceError
from repro.experts.simulated import OracleExpert
from repro.guidance import MaxEntropyStrategy, WorkerDrivenStrategy
from repro.guidance.hybrid import HybridStrategy
from repro.process import ValidationProcess
from repro.streaming import ValidationSession
from repro.workers.spammer_detection import SpammerDetector


class TestZeroBudget:
    def test_run_returns_immediately(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), budget=0,
            gold=small_crowd.gold, rng=0)
        assert process.is_done()
        report = process.run()
        assert report.records == []
        assert report.total_effort == 0
        # The initial aggregation still happened: precision is measurable.
        assert not np.isnan(report.initial_precision)
        assert report.initial_uncertainty >= 0.0

    def test_step_raises_budget_exhausted(self, small_crowd):
        process = ValidationProcess(
            small_crowd.answer_set, OracleExpert(small_crowd.gold),
            strategy=MaxEntropyStrategy(), budget=0, rng=0)
        with pytest.raises(BudgetExhaustedError):
            process.step()


class TestAllObjectsPreValidated:
    def test_is_done_before_any_step(self, table1_answer_set, table1_gold):
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=MaxEntropyStrategy(), budget=10,
            gold=table1_gold, rng=0)
        for obj, label in enumerate(table1_gold):
            process.session.add_validation(int(obj), int(label))
        process.prob_set = process.session.conclude_snapshot()
        assert process.is_done()
        report = process.run()
        assert report.records == []
        with pytest.raises(GuidanceError):
            process.step()
        # Validated objects are clamped: precision is perfect.
        assert process.current_precision() == 1.0

    def test_partial_prevalidation_only_selects_the_rest(
            self, table1_answer_set, table1_gold):
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=MaxEntropyStrategy(), budget=10,
            gold=table1_gold, rng=0)
        for obj in (0, 1, 2):
            process.session.add_validation(obj, int(table1_gold[obj]))
        process.prob_set = process.session.conclude_snapshot()
        record = process.step()
        assert record.object_index == 3  # the only unvalidated object
        assert process.validation.count == 4


class TestCustomAggregator:
    """The streaming session is the conclude; the aggregator configures it."""

    @pytest.mark.parametrize("method", ["conclude", "refine"])
    def test_overridden_conclude_is_rejected(self, table1_answer_set,
                                             table1_gold, method):
        """A custom conclude or refine would never run (and neither the
        WAL nor a restored checkpoint could replay it), so the process
        refuses it up front instead of ignoring it."""
        from repro.core.iem import IncrementalEM

        calls = []

        def counting(self, *args, **kwargs):
            calls.append(method)
            return getattr(IncrementalEM, method)(self, *args, **kwargs)

        CountingIEM = type("CountingIEM", (IncrementalEM,),
                           {method: counting})
        with pytest.raises(TypeError,
                           match=f"CountingIEM overrides {method}"):
            ValidationProcess(
                table1_answer_set, OracleExpert(table1_gold),
                strategy=MaxEntropyStrategy(), aggregator=CountingIEM(),
                budget=2, gold=table1_gold, rng=0)
        assert calls == []

    def test_stock_aggregator_uses_the_session(self, table1_answer_set,
                                               table1_gold):
        from repro.core.iem import IncrementalEM

        aggregator = IncrementalEM(init="uniform", max_iter=7, tol=1e-3,
                                   smoothing=0.5)
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=MaxEntropyStrategy(), aggregator=aggregator, budget=2,
            gold=table1_gold, rng=0)
        session = process.session
        knobs = session.aggregator
        assert (knobs.init, knobs.max_iter, knobs.tol,
                knobs.smoothing) == ("uniform", 7, 1e-3, 0.5)
        assert knobs.rng is aggregator.rng
        before = session.n_concludes
        process.step()
        assert session.n_concludes == before + 1

    def test_default_confirmation_check_uses_the_aggregator(
            self, table1_answer_set, table1_gold):
        """The leave-one-out concludes run at the process's knobs, not at
        a fresh ``IncrementalEM()``'s defaults."""
        from repro.core.iem import IncrementalEM

        aggregator = IncrementalEM(smoothing=1.0)
        process = ValidationProcess(
            table1_answer_set, OracleExpert(table1_gold),
            strategy=MaxEntropyStrategy(), aggregator=aggregator,
            confirmation_interval=1, budget=2, gold=table1_gold, rng=0)
        assert process.confirmation_check.aggregator is aggregator


class TestSilentWorker:
    """A worker who answered nothing must survive detection and masking."""

    @pytest.fixture
    def crowd_with_silent_worker(self, small_crowd):
        answers = small_crowd.answer_set
        silent = np.full((answers.n_objects, 1), MISSING, dtype=np.int64)
        matrix = np.hstack([answers.matrix, silent])
        return AnswerSet(matrix, answers.labels,
                         answers.objects,
                         answers.workers + ("silent",)), small_crowd.gold

    def test_process_runs_and_never_suspects_silent(
            self, crowd_with_silent_worker):
        answers, gold = crowd_with_silent_worker
        silent_index = answers.n_workers - 1
        process = ValidationProcess(
            answers, OracleExpert(gold),
            strategy=HybridStrategy(
                uncertainty=MaxEntropyStrategy(),
                worker=WorkerDrivenStrategy(candidate_limit=5)),
            detector=SpammerDetector(tau_s=0.35),
            budget=12, gold=gold, rng=3)
        report = process.run()
        assert report.total_effort == 12
        assert silent_index not in process.faulty_filter.suspected

    def test_masking_a_silent_worker_is_harmless(
            self, crowd_with_silent_worker):
        answers, gold = crowd_with_silent_worker
        silent_index = answers.n_workers - 1
        session = ValidationSession.from_answer_set(answers)
        twin = ValidationSession.from_answer_set(answers)
        session.conclude()
        twin.conclude()
        session.set_masked_workers([silent_index])
        masked = session.conclude()
        unmasked = twin.conclude()
        # No answers were removed, so the refinements are identical.
        assert np.array_equal(masked.assignment, unmasked.assignment)
        assert session.answer_set.n_answers == answers.n_answers

    def test_faulty_filter_apply_with_silent_worker(
            self, crowd_with_silent_worker):
        from repro.process.faulty_filter import FaultyWorkerFilter
        from repro.workers.spammer_detection import DetectionResult
        answers, _gold = crowd_with_silent_worker
        k = answers.n_workers
        silent_index = k - 1
        filt = FaultyWorkerFilter(persistence=1, max_masked_fraction=1.0)
        mask = np.zeros(k, dtype=bool)
        mask[silent_index] = True
        detection = DetectionResult(
            spammer_scores=np.zeros(k),
            error_rates=np.zeros(k),
            evidence=np.zeros(k, dtype=np.int64),
            spammer_mask=mask,
            sloppy_mask=np.zeros(k, dtype=bool))
        filt.handle(detection)
        assert silent_index in filt.suspected
        masked = filt.apply(answers)
        assert masked.n_answers == answers.n_answers  # nothing to remove
