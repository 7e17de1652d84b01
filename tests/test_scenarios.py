"""Unit tests for the adversarial scenario subsystem (repro.scenarios)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import MISSING
from repro.errors import DatasetError
from repro.scenarios import (
    BurstySchedule,
    CollusionClique,
    ExpertSpec,
    PoissonSchedule,
    ReliabilityDrift,
    ScenarioSpec,
    SleeperSpammer,
    compile_registered,
    compile_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.registry import SCENARIO_REGISTRY
from repro.simulation.stream import replay
from repro.streaming import ValidationSession
from repro.workers.types import WorkerType


class TestSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(DatasetError):
            ScenarioSpec(name="")

    def test_rejects_bad_strata(self):
        with pytest.raises(DatasetError):
            ScenarioSpec(name="x", difficulty_strata=((-0.5, 0.2),))

    def test_budget_defaults_to_half(self):
        assert ScenarioSpec(name="x", n_objects=30).budget == 15

    def test_budget_capped_by_objects(self):
        spec = ScenarioSpec(name="x", n_objects=10,
                            expert=ExpertSpec(n_validations=99))
        assert spec.budget == 10

    def test_with_seed_and_size(self):
        spec = ScenarioSpec(name="x", n_objects=30, seed=1)
        resized = spec.with_size(n_objects=8, n_workers=5).with_seed(9)
        assert (resized.n_objects, resized.n_workers, resized.seed) == (8, 5, 9)
        assert spec.seed == 1  # original untouched


class TestCompiler:
    def test_same_seed_bit_identical(self):
        spec = get_scenario("sleeper-spammers")
        a, b = compile_scenario(spec), compile_scenario(spec)
        assert np.array_equal(a.answer_set.matrix, b.answer_set.matrix)
        assert np.array_equal(a.gold, b.gold)
        assert np.array_equal(a.expert_labels, b.expert_labels)
        assert a.answer_events == b.answer_events
        assert a.validation_events == b.validation_events

    def test_different_seed_differs(self):
        spec = get_scenario("sleeper-spammers")
        a = compile_scenario(spec)
        b = compile_scenario(spec, seed=spec.seed + 1)
        assert not np.array_equal(a.answer_set.matrix, b.answer_set.matrix)

    def test_events_cover_matrix_exactly(self):
        compiled = compile_registered("colluding-clique")
        matrix = compiled.answer_set.matrix
        assert len(compiled.answer_events) == compiled.answer_set.n_answers
        for event in compiled.answer_events:
            assert matrix[event.object_index, event.worker_index] \
                == event.label

    def test_event_times_strictly_ordered_per_stream(self):
        compiled = compile_registered("bursty-arrivals")
        times = [e.time for e in compiled.answer_events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_label_skew_respected(self):
        compiled = compile_registered("label-skew")
        majority_share = float(np.mean(compiled.gold == 0))
        assert majority_share > 0.7  # priors are (0.85, 0.15)

    def test_difficulty_strata_assignment(self):
        compiled = compile_registered("difficulty-strata")
        values, counts = np.unique(compiled.difficulty, return_counts=True)
        assert set(values) == {0.05, 0.35, 0.7}
        assert counts.sum() == compiled.n_objects

    def test_fallible_expert_sheet_deviates_from_gold(self):
        compiled = compile_registered("fallible-expert")
        mistakes = compiled.expert_mistake_indices()
        assert mistakes.size > 0
        agree = np.mean(compiled.expert_labels == compiled.gold)
        assert agree > 0.6  # slips are the exception, not the rule

    def test_oracle_expert_sheet_matches_gold(self):
        compiled = compile_registered("colluding-clique")
        assert np.array_equal(compiled.expert_labels, compiled.gold)

    def test_as_crowd_adapter(self):
        compiled = compile_registered("reliability-drift")
        crowd = compiled.as_crowd()
        assert crowd.answer_set is compiled.answer_set
        assert crowd.true_confusions.shape == (
            compiled.n_workers, compiled.n_labels, compiled.n_labels)

    def test_stream_replay_reaches_batch_answer_set(self):
        """Replaying the compiled events reconstructs the batch matrix."""
        compiled = compile_registered("sleeper-spammers")
        session = ValidationSession(1, 1, compiled.n_labels)
        replay(compiled.events(), session)
        assert np.array_equal(
            session.stats.to_matrix(include_masked=False),
            compiled.answer_set.matrix)
        validated = {e.object_index for e in compiled.validation_events}
        assert session.n_validated == len(validated)


class TestBehaviors:
    def _compile(self, behavior, seed=5, **kwargs):
        kwargs = {"n_objects": 30, "n_workers": 10, **kwargs}
        spec = ScenarioSpec(
            name="unit", reliability=0.85,
            population={WorkerType.NORMAL: 1.0},
            behaviors=(behavior,), seed=seed, **kwargs)
        return compile_scenario(spec)

    def test_sleeper_turns_after_honest_phase(self):
        compiled = self._compile(
            SleeperSpammer(fraction=0.4, honest_answers=3))
        sleepers = compiled.behavior_workers["sleeper_spammer"]
        assert sleepers
        events_of = {w: [] for w in sleepers}
        for event in compiled.answer_events:
            if event.worker_index in events_of:
                events_of[event.worker_index].append(event.label)
        for worker, labels in events_of.items():
            spam_phase = labels[3:]
            # uniform mode: a single pet label after the turn
            assert len(set(spam_phase)) == 1
        assert compiled.true_spammer_mask[list(sleepers)].all()

    def test_collusion_copies_leader(self):
        behavior = CollusionClique(size=4, copy_probability=1.0)
        compiled = self._compile(behavior)
        clique = compiled.behavior_workers["collusion_clique"]
        assert len(clique) == 4
        matrix = compiled.answer_set.matrix
        leader = clique[0]
        for follower in clique[1:]:
            both = (matrix[:, leader] != MISSING) \
                & (matrix[:, follower] != MISSING)
            assert np.array_equal(matrix[both, leader],
                                  matrix[both, follower])
        assert compiled.true_spammer_mask[list(clique)].all()

    def test_drift_degrades_late_answers(self):
        compiled = self._compile(
            ReliabilityDrift(fraction=1.0, start_accuracy=0.95,
                             end_accuracy=0.05),
            n_objects=60, n_workers=8)
        drifters = compiled.behavior_workers["reliability_drift"]
        assert drifters
        # drifting workers are degraded, not adversarial
        assert not compiled.true_faulty_mask[list(drifters)].any()
        correct_early, correct_late, ordinal = [], [], {}
        for event in compiled.answer_events:
            w = event.worker_index
            if w not in drifters:
                continue
            a = ordinal.get(w, 0)
            ordinal[w] = a + 1
            hit = event.label == compiled.gold[event.object_index]
            (correct_early if a < 20 else correct_late).append(hit)
        assert np.mean(correct_early) > np.mean(correct_late) + 0.2

    def test_bursty_schedule_has_heavier_tail_than_poisson(self):
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        poisson = np.diff(PoissonSchedule(rate=100.0).times(2000, rng_a))
        bursty = np.diff(
            BurstySchedule(rate=100.0, burst_size=20, alpha=1.2).times(
                2000, rng_b))
        assert bursty.max() > poisson.max() * 5
        assert np.median(bursty) < np.percentile(bursty, 99) / 10

    def test_zero_fraction_governs_no_workers(self):
        """fraction=0.0 is a clean control arm, not a one-worker floor."""
        compiled = self._compile(ReliabilityDrift(fraction=0.0))
        assert compiled.behavior_workers["reliability_drift"] == ()
        baseline = compile_scenario(ScenarioSpec(
            name="unit", n_objects=30, n_workers=10, reliability=0.85,
            population={WorkerType.NORMAL: 1.0}, seed=5))
        np.testing.assert_array_equal(
            compiled.answer_set.matrix, baseline.answer_set.matrix)

    def test_drift_respects_difficulty(self):
        """Honest drifters still guess on maximally hard questions."""
        easy = self._compile(
            ReliabilityDrift(fraction=1.0, start_accuracy=0.95,
                             end_accuracy=0.95),
            n_objects=80, n_workers=6)
        hard = self._compile(
            ReliabilityDrift(fraction=1.0, start_accuracy=0.95,
                             end_accuracy=0.95),
            n_objects=80, n_workers=6,
            difficulty_strata=((1.0, 1.0),))
        def accuracy(compiled):
            matrix = compiled.answer_set.matrix
            answered = matrix != MISSING
            hits = matrix == compiled.gold[:, None]
            return np.mean(hits[answered])
        assert accuracy(easy) > 0.85
        assert abs(accuracy(hard) - 0.5) < 0.15  # binary: chance level

    def test_zero_eligible_workers_is_harmless(self):
        spec = ScenarioSpec(
            name="unit", n_objects=10, n_workers=4,
            population={WorkerType.RANDOM_SPAMMER: 1.0},
            behaviors=(SleeperSpammer(fraction=0.5),), seed=2)
        compiled = compile_scenario(spec)
        assert compiled.behavior_workers["sleeper_spammer"] == ()


class TestRegistry:
    REQUIRED = {"reliability-drift", "sleeper-spammers", "colluding-clique",
                "bursty-arrivals", "label-skew", "fallible-expert"}

    def test_builtin_coverage(self):
        assert self.REQUIRED <= set(scenario_names())
        assert len(scenario_names()) >= 6

    def test_get_unknown_raises(self):
        with pytest.raises(DatasetError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("label-skew")
        with pytest.raises(DatasetError, match="already registered"):
            register_scenario(spec)
        register_scenario(spec, replace=True)  # explicit replace is fine
        assert SCENARIO_REGISTRY["label-skew"] is spec

    def test_compile_registered_matches_spec_seed(self):
        compiled = compile_registered("bursty-arrivals")
        assert compiled.seed == get_scenario("bursty-arrivals").seed
