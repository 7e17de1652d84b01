"""Tests for the guidance strategies (§5.2–§5.4, §6.6 baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import MISSING
from repro.core.iem import IncrementalEM
from repro.core.uncertainty import object_entropies
from repro.core.validation import ExpertValidation
from repro.errors import GuidanceError
from repro.guidance import (
    GuidanceContext,
    HybridStrategy,
    InformationGainStrategy,
    MaxEntropyStrategy,
    RandomStrategy,
    Selection,
    WorkerDrivenStrategy,
    argmax_with_ties,
)
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.streaming import ValidationSession
from repro.workers.spammer_detection import SpammerDetector


def make_context(answer_set, validation=None, rng_seed=0, weight=0.0):
    validation = validation or ExpertValidation.empty_for(answer_set)
    aggregator = IncrementalEM()
    prob_set = aggregator.conclude(answer_set, validation)
    return GuidanceContext(
        prob_set=prob_set,
        aggregator=aggregator,
        detector=SpammerDetector(),
        rng=np.random.default_rng(rng_seed),
        hybrid_weight=weight,
    )


class TestArgmaxWithTies:
    def test_deterministic_first_max(self):
        scores = np.array([1.0, 3.0, 3.0])
        candidates = np.array([10, 20, 30])
        assert argmax_with_ties(scores, candidates) == 20

    def test_random_tie_break_is_among_tied(self):
        scores = np.array([3.0, 3.0, 1.0])
        candidates = np.array([10, 20, 30])
        rng = np.random.default_rng(0)
        picks = {argmax_with_ties(scores, candidates, rng) for _ in range(20)}
        assert picks <= {10, 20}
        assert len(picks) == 2


class TestRandomStrategy:
    def test_selects_unvalidated_only(self, table1_answer_set):
        validation = ExpertValidation.from_mapping({0: 1, 1: 2}, 4, 4)
        context = make_context(table1_answer_set, validation)
        for _ in range(10):
            selection = RandomStrategy().select(context)
            assert selection.object_index in (2, 3)
            assert selection.strategy == "random"

    def test_raises_when_exhausted(self, table1_answer_set):
        validation = ExpertValidation.from_mapping(
            {0: 0, 1: 0, 2: 0, 3: 0}, 4, 4)
        context = make_context(table1_answer_set, validation)
        with pytest.raises(GuidanceError):
            RandomStrategy().select(context)


class TestMaxEntropyStrategy:
    def test_selects_highest_entropy_object(self, table1_answer_set):
        context = make_context(table1_answer_set)
        selection = MaxEntropyStrategy(random_ties=False).select(context)
        entropies = object_entropies(context.prob_set.assignment)
        assert entropies[selection.object_index] == pytest.approx(
            entropies.max())
        assert selection.strategy == "baseline"

    def test_scores_align_with_candidates(self, table1_answer_set):
        validation = ExpertValidation.from_mapping({1: 2}, 4, 4)
        context = make_context(table1_answer_set, validation)
        selection = MaxEntropyStrategy().select(context)
        assert selection.candidate_indices.tolist() == [0, 2, 3]
        assert selection.scores.shape == (3,)
        assert selection.object_index != 1


class TestInformationGain:
    def test_validated_object_has_no_gain(self, small_crowd):
        """Hypothetically validating an object the model is certain about
        cannot reduce entropy more than an uncertain one (on average the
        chosen object should carry positive gain)."""
        context = make_context(small_crowd.answer_set)
        strategy = InformationGainStrategy()
        selection = strategy.select(context)
        assert selection.strategy == "uncertainty"
        assert selection.scores is not None
        best = selection.scores.max()
        assert best >= -1e-6  # gain of the best object is non-negative

    def test_candidate_limit_prunes_to_top_entropy(self, small_crowd):
        context = make_context(small_crowd.answer_set)
        strategy = InformationGainStrategy(candidate_limit=3)
        selection = strategy.select(context)
        assert selection.candidate_indices.size == 3
        entropies = object_entropies(context.prob_set.assignment)
        chosen_floor = entropies[selection.candidate_indices].min()
        others = np.setdiff1d(np.arange(small_crowd.answer_set.n_objects),
                              selection.candidate_indices)
        assert np.all(entropies[others] <= chosen_floor + 1e-9)

    def test_invalid_candidate_limit(self):
        with pytest.raises(ValueError):
            InformationGainStrategy(candidate_limit=0)

    def test_threaded_executor_matches_serial(self, table1_answer_set):
        from repro.parallel import Executor
        context = make_context(table1_answer_set)
        serial = InformationGainStrategy().select(context)
        with Executor("threads", max_workers=2) as executor:
            threaded = InformationGainStrategy(executor=executor).select(
                make_context(table1_answer_set))
        assert serial.object_index == threaded.object_index


class TestWorkerDriven:
    def test_prefers_objects_answered_by_suspects(self, spammy_crowd):
        """After some validations, the worker-driven pick lands on an
        object whose validation can change detection status — one that
        suspect workers answered."""
        gold = spammy_crowd.gold
        validation = ExpertValidation.from_mapping(
            {i: int(gold[i]) for i in range(6)},
            spammy_crowd.answer_set.n_objects, 2)
        context = make_context(spammy_crowd.answer_set, validation)
        selection = WorkerDrivenStrategy().select(context)
        assert selection.strategy == "worker"
        assert not validation.is_validated(selection.object_index)
        assert selection.scores is not None
        assert np.all(selection.scores >= 0)

    def test_candidate_limit(self, spammy_crowd):
        context = make_context(spammy_crowd.answer_set)
        selection = WorkerDrivenStrategy(candidate_limit=5).select(context)
        assert selection.candidate_indices.size == 5

    def test_invalid_candidate_limit(self):
        with pytest.raises(ValueError):
            WorkerDrivenStrategy(candidate_limit=0)

    @pytest.mark.parametrize("limit", [1, 7, 39])
    def test_pruning_matches_dense_answer_counts(self, limit):
        """Counts read from the encoding rank candidates exactly as the
        dense ``(matrix[candidates] != MISSING).sum(axis=1)`` did, masked
        workers' answers excluded."""
        crowd = simulate_crowd(CrowdConfig(n_objects=60, n_workers=20,
                                           answers_per_object=5), rng=4)
        session = ValidationSession.from_answer_set(crowd.answer_set)
        session.set_masked_workers([0, 2, 5, 11])
        session.add_validation(3, int(crowd.gold[3]))
        context = GuidanceContext(
            prob_set=session.conclude_snapshot(),
            aggregator=session.aggregator, detector=SpammerDetector(),
            rng=np.random.default_rng(0))
        candidates = context.candidates()
        matrix = session.stats.to_matrix(include_masked=False)
        coverage = (matrix[candidates] != MISSING).sum(axis=1)
        top = np.argsort(-coverage, kind="stable")[:limit]
        selection = WorkerDrivenStrategy(candidate_limit=limit).select(
            context)
        assert selection.candidate_indices.tolist() \
            == candidates[np.sort(top)].tolist()

    def test_expected_detections_weighting(self, table2_answer_sets,
                                           table2_gold):
        """R(W|o) is a belief-weighted average of per-label counts, so it
        lies between the min and max hypothetical counts."""
        validation = ExpertValidation.from_mapping(
            {i: int(table2_gold[i]) for i in range(4)}, 8, 2)
        context = make_context(table2_answer_sets, validation)
        selection = WorkerDrivenStrategy().select(context)
        assert selection.scores.max() <= table2_answer_sets.n_workers


class TestHybrid:
    def test_zero_weight_always_uncertainty(self, table1_answer_set):
        strategy = HybridStrategy()
        context = make_context(table1_answer_set, weight=0.0)
        for _ in range(5):
            assert strategy.select(context).strategy == "uncertainty"

    def test_weight_one_nearly_always_worker(self, table1_answer_set):
        strategy = HybridStrategy()
        context = make_context(table1_answer_set, weight=0.999999)
        picks = {strategy.select(context).strategy for _ in range(5)}
        assert picks == {"worker"}

    def test_mixture_uses_both(self, table1_answer_set):
        strategy = HybridStrategy()
        context = make_context(table1_answer_set, weight=0.5, rng_seed=123)
        picks = {strategy.select(context).strategy for _ in range(30)}
        assert picks == {"worker", "uncertainty"}

    def test_custom_substrategies(self, table1_answer_set):
        strategy = HybridStrategy(uncertainty=MaxEntropyStrategy(),
                                  worker=RandomStrategy())
        context = make_context(table1_answer_set, weight=0.0)
        assert strategy.select(context).strategy == "baseline"


class TestSelection:
    def test_selection_equality_ignores_scores(self):
        a = Selection(object_index=1, strategy="x",
                      scores=np.array([1.0]))
        b = Selection(object_index=1, strategy="x",
                      scores=np.array([2.0]))
        assert a == b


class TestArgmaxGuards:
    """Regression tests for the NaN / tie-band fixes in argmax_with_ties."""

    def test_nan_scores_raise_typed_error(self):
        scores = np.array([0.5, float("nan"), 0.3])
        candidates = np.array([4, 7, 9])
        with pytest.raises(GuidanceError, match="NaN"):
            argmax_with_ties(scores, candidates)

    def test_nan_error_names_the_offending_objects(self):
        scores = np.array([0.5, float("nan")])
        candidates = np.array([4, 7])
        with pytest.raises(GuidanceError, match=r"objects \[7\]"):
            argmax_with_ties(scores, candidates, np.random.default_rng(0))

    def test_empty_scores_raise_typed_error(self):
        with pytest.raises(GuidanceError, match="no scores"):
            argmax_with_ties(np.array([]), np.array([], dtype=int))

    def test_all_nan_raises_not_index_error(self):
        # Pre-fix: np.flatnonzero(scores >= nan band) was empty and
        # tied[0] blew up with an opaque IndexError.
        scores = np.full(3, np.nan)
        with pytest.raises(GuidanceError):
            argmax_with_ties(scores, np.arange(3))

    def test_tie_band_is_scale_relative(self):
        # 1e6 and 1e6 − 1e-8 are equal up to float noise at this scale;
        # the absolute 1e-12 band used to split them, so the random tie
        # break never saw the second candidate.
        scores = np.array([1e6, 1e6 - 1e-8, 0.0])
        candidates = np.array([10, 20, 30])
        picks = {argmax_with_ties(scores, candidates,
                                  np.random.default_rng(seed))
                 for seed in range(40)}
        assert picks == {10, 20}

    def test_small_scale_band_unchanged(self):
        # At |best| <= 1 the band is still exactly 1e-12: clearly distinct
        # small scores must not collapse into a tie.
        scores = np.array([1e-3, 1e-3 - 1e-6])
        candidates = np.array([1, 2])
        picks = {argmax_with_ties(scores, candidates,
                                  np.random.default_rng(seed))
                 for seed in range(20)}
        assert picks == {1}


class TestStableTopKPruning:
    """Regression tests: boundary ties in top-K pruning keep lowest index."""

    @staticmethod
    def _uniform_answer_set(n_objects=8, n_workers=5):
        # Every object has the identical answer pattern, so entropies and
        # coverages tie exactly across all objects.
        row = np.array([0, 1, 0, 1, 1])[:n_workers]
        from repro.core.answer_set import AnswerSet
        return AnswerSet(np.tile(row, (n_objects, 1)), labels=("T", "F"))

    def test_information_gain_prunes_lowest_indices_on_ties(self):
        answer_set = self._uniform_answer_set()
        context = make_context(answer_set)
        strategy = InformationGainStrategy(candidate_limit=3)
        selection = strategy.select(context)
        # Pre-fix np.argsort(x)[::-1][:K] kept the HIGHEST indices {5,6,7}.
        assert selection.candidate_indices.tolist() == [0, 1, 2]

    def test_worker_driven_prunes_lowest_indices_on_ties(self):
        answer_set = self._uniform_answer_set()
        context = make_context(answer_set)
        strategy = WorkerDrivenStrategy(candidate_limit=4)
        selection = strategy.select(context)
        assert selection.candidate_indices.tolist() == [0, 1, 2, 3]

    def test_pruned_set_deterministic_across_runs(self, small_crowd):
        strategy = InformationGainStrategy(candidate_limit=5)
        sets = []
        for _ in range(3):
            context = make_context(small_crowd.answer_set)
            sets.append(strategy.select(context).candidate_indices.tolist())
        assert sets[0] == sets[1] == sets[2]
