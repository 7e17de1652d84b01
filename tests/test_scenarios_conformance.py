"""Differential end-to-end conformance for adversarial scenarios.

Two layers:

* the **registry matrix** — every registered scenario is executed by
  :class:`~repro.scenarios.ScenarioRunner` through the batch, streaming,
  and sharded execution paths under both guidance look-ahead modes, with
  the runner's cross-path agreement assertions armed;
* the **property layer** (hypothesis) — on randomly drawn small scenarios,
  batch and streaming posteriors must agree, and the kernel's operator
  path must stay bit-for-bit equal to the ``np.add.at`` reference
  (``tests/reference.py``) under drift/collusion workloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.guidance import LOOKAHEAD_MODES
from repro.scenarios import (
    PRODUCTION_SCALE,
    BurstySchedule,
    CollusionClique,
    ExpertSpec,
    PoissonSchedule,
    ReliabilityDrift,
    ScenarioRunner,
    ScenarioSpec,
    SleeperSpammer,
    compile_registered,
    compile_scenario,
    scenario_names,
)
from repro.streaming import ValidationSession

import reference

#: The workloads the acceptance criteria require, at minimum.
REQUIRED_SCENARIOS = ("reliability-drift", "sleeper-spammers",
                      "colluding-clique", "bursty-arrivals", "label-skew",
                      "fallible-expert", "worker-churn",
                      "duplicate-resubmissions")


# ----------------------------------------------------------------------
# Registry matrix: every scenario × every look-ahead, all three paths
# ----------------------------------------------------------------------
class TestRegistryMatrix:
    @pytest.fixture(scope="class")
    def runner(self) -> ScenarioRunner:
        return ScenarioRunner()

    def test_required_scenarios_registered(self):
        assert set(REQUIRED_SCENARIOS) <= set(scenario_names())

    @pytest.mark.parametrize("name", REQUIRED_SCENARIOS)
    @pytest.mark.parametrize("lookahead", LOOKAHEAD_MODES)
    def test_cross_path_agreement(self, runner, name, lookahead):
        """batch vs streaming vs sharded, tolerances enforced by check."""
        outcome = runner.run(compile_registered(name), lookahead)
        # The exact streaming replay feeds identical floats to the same
        # kernel: the divergence is not merely small, it is zero.
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0
        assert outcome.streaming_divergence.map_agreement == 1.0
        # Single-block sharded refresh is the same solve modulo cold-start
        # bookkeeping; MAP conclusions must be identical.
        assert outcome.sharded_divergence.map_agreement == 1.0

    @pytest.mark.parametrize("name", ["difficulty-strata"])
    def test_extra_registered_scenarios_also_conform(self, runner, name):
        outcome = runner.run(compile_registered(name), "exact")
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0

    def test_validation_helps_under_adversity(self, runner):
        """Guided validation must not leave precision below its start."""
        for name in ("colluding-clique", "sleeper-spammers"):
            outcome = runner.run(compile_registered(name), "exact")
            assert outcome.report.final_precision() \
                >= outcome.report.initial_precision

    def test_multi_block_sharded_is_a_documented_approximation(self):
        """Coarse partitions may move mass but keep conclusions sane."""
        runner = ScenarioRunner(max_objects_per_block=12)
        outcome = runner.run(compile_registered("colluding-clique"),
                             "exact", check=False)
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0
        assert outcome.sharded_divergence.map_agreement >= 0.9


# ----------------------------------------------------------------------
# Sharded multi-block: the regime where partitioning is near-exact
# ----------------------------------------------------------------------
class TestShardedMultiBlock:
    """The ``sharded-multiblock`` scenario: a block-diagonal answer matrix
    (four disjoint object/worker blocks) where the §5.4 independent-blocks
    approximation is exact up to the globally re-estimated priors."""

    @pytest.fixture(scope="class")
    def runner(self) -> ScenarioRunner:
        return ScenarioRunner()

    def test_answer_matrix_is_block_diagonal(self):
        """No worker answers outside their block — the structural premise
        the documented tolerance rests on."""
        compiled = compile_registered("sharded-multiblock")
        matrix = compiled.answer_set.matrix
        n_blocks = compiled.spec.n_blocks
        object_blocks = np.array_split(np.arange(compiled.n_objects),
                                       n_blocks)
        worker_blocks = np.array_split(np.arange(compiled.n_workers),
                                       n_blocks)
        for objs, workers in zip(object_blocks, worker_blocks):
            outside = np.setdiff1d(np.arange(compiled.n_workers), workers)
            assert (matrix[np.ix_(objs, outside)] < 0).all()
        # Inside the blocks the scenario is genuinely sparse, not dense.
        assert compiled.answer_set.n_answers \
            == compiled.n_objects * compiled.spec.answers_per_object

    @pytest.mark.parametrize("lookahead", LOOKAHEAD_MODES)
    def test_all_five_paths_agree_single_block(self, runner, lookahead):
        """Default (single-block) runner: all five paths, exact layers at
        zero, sharded MAP conclusions identical."""
        outcome = runner.run(compile_registered("sharded-multiblock"),
                             lookahead)
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0
        assert outcome.resume_divergence.max_abs_posterior_gap == 0.0
        assert outcome.fault_divergence.max_abs_posterior_gap == 0.0
        assert outcome.n_faults_fired > 0
        assert outcome.sharded_divergence.map_agreement == 1.0

    def test_block_aligned_partition_is_near_exact(self):
        """Partitioning at the true block granularity (12 objects per
        block = the scenario's 4 blocks exactly): the only divergence
        left is the globally re-estimated priors, so the posterior gap is
        small (documented tolerance 0.08; measured ≈0.053) and not a
        single MAP conclusion flips — much tighter than the generic
        ``sharded_atol``/MAP tolerance coarse partitions are held to."""
        runner = ScenarioRunner(max_objects_per_block=12)
        outcome = runner.run(compile_registered("sharded-multiblock"),
                             "exact", check=False)
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0
        assert outcome.sharded_divergence.max_abs_posterior_gap <= 0.08
        assert outcome.sharded_divergence.map_agreement == 1.0


# ----------------------------------------------------------------------
# Property layer
# ----------------------------------------------------------------------
def _behavior_strategy():
    return st.sampled_from([
        (),
        (ReliabilityDrift(fraction=0.5, start_accuracy=0.9,
                          end_accuracy=0.3),),
        (SleeperSpammer(fraction=0.4, honest_answers=2),),
        (CollusionClique(size=3, copy_probability=0.9),),
        (SleeperSpammer(fraction=0.3, honest_answers=3),
         CollusionClique(size=3, copy_probability=1.0)),
    ])


small_scenarios = st.builds(
    lambda n, k, m, behaviors, schedule, mistake, seed: ScenarioSpec(
        name="prop",
        n_objects=n, n_workers=k, n_labels=m,
        answers_per_object=min(4, k),
        behaviors=behaviors,
        schedule=schedule,
        expert=ExpertSpec(mistake_probability=mistake,
                          n_validations=max(2, n // 3)),
        seed=seed,
    ),
    n=st.integers(min_value=6, max_value=14),
    k=st.integers(min_value=4, max_value=8),
    m=st.integers(min_value=2, max_value=3),
    behaviors=_behavior_strategy(),
    schedule=st.sampled_from([PoissonSchedule(rate=50.0),
                              BurstySchedule(rate=50.0, burst_size=8)]),
    mistake=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=2**20),
)


class TestScenarioProperties:
    @given(spec=small_scenarios)
    @settings(max_examples=20, deadline=None)
    def test_batch_and_streaming_posteriors_agree(self, spec):
        """The view-maintenance contract holds on arbitrary workloads."""
        compiled = compile_scenario(spec)
        validations = {e.object_index: e.label
                       for e in compiled.validation_events}

        batch_validation = ExpertValidation.from_mapping(
            validations, compiled.n_objects, compiled.n_labels)
        batch = IncrementalEM().conclude(compiled.answer_set,
                                         batch_validation)

        session = ValidationSession.from_answer_set(compiled.answer_set)
        for obj, label in validations.items():
            session.add_validation(obj, label, overwrite=True)
        result = session.conclude()

        np.testing.assert_array_equal(batch.assignment, result.assignment)
        np.testing.assert_array_equal(batch.priors, result.priors)

    @given(spec=small_scenarios)
    @settings(max_examples=20, deadline=None)
    def test_kernel_plan_paths_bit_equal(self, spec):
        """Operator path ≡ np.add.at reference, bit for bit, on scenario
        data."""
        compiled = compile_scenario(spec)
        encoded = em_kernel.encode_answers(compiled.answer_set)
        initial = em_kernel.initial_assignment_majority(encoded)
        validations = {e.object_index: e.label
                       for e in compiled.validation_events}
        validated = np.array(sorted(validations), dtype=np.int64)
        labels = np.array([validations[i] for i in validated],
                          dtype=np.int64)
        fast = em_kernel.run_em(encoded, initial, validated, labels)
        scattered = reference.run_em(encoded, initial, validated, labels)
        np.testing.assert_array_equal(fast.assignment, scattered.assignment)
        np.testing.assert_array_equal(fast.confusions, scattered.confusions)
        np.testing.assert_array_equal(fast.priors, scattered.priors)
        assert fast.n_iterations == scattered.n_iterations

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_compile_is_replayable_from_one_seed(self, seed):
        spec = ScenarioSpec(
            name="prop", n_objects=8, n_workers=5,
            behaviors=(SleeperSpammer(fraction=0.5, honest_answers=2),),
            seed=0)
        a = compile_scenario(spec, seed=seed)
        b = compile_scenario(spec, seed=seed)
        assert np.array_equal(a.answer_set.matrix, b.answer_set.matrix)
        assert a.answer_events == b.answer_events
        assert a.validation_events == b.validation_events


class TestTimedReplayCadence:
    """The stream view under a wall-clock refresh cadence: this is where
    arrival *timing* (not just content) becomes load-bearing."""

    def _drain(self, compiled, **replay_kwargs):
        from repro.simulation.stream import replay
        session = ValidationSession(1, 1, compiled.n_labels)
        summary = replay(compiled.events(), session, **replay_kwargs)
        return session, summary

    def test_bursty_timing_changes_refresh_cadence(self):
        """Same spec, bursty vs Poisson arrivals: under a timer-driven
        cadence the burst structure concentrates events into fewer
        refinements per event — the property the scenario exists to
        stress, invisible to event-count cadences."""
        import dataclasses
        from repro.scenarios import get_scenario
        bursty_spec = get_scenario("bursty-arrivals")
        poisson_spec = dataclasses.replace(
            bursty_spec, schedule=PoissonSchedule(rate=200.0))
        bursty = compile_scenario(bursty_spec)
        poisson = compile_scenario(poisson_spec)
        # Identical content (timing is an independent seed stream)...
        np.testing.assert_array_equal(bursty.answer_set.matrix,
                                      poisson.answer_set.matrix)
        interval = bursty.answer_events[-1].time / 20.0
        _, bursty_summary = self._drain(
            bursty, conclude_every_seconds=interval)
        _, poisson_summary = self._drain(
            poisson,
            conclude_every_seconds=poisson.answer_events[-1].time / 20.0)
        # ...but bursty time concentrates events into lulls and bursts, so
        # the timer fires on fewer distinct intervals than smooth Poisson.
        assert bursty_summary.n_concludes < poisson_summary.n_concludes

    def test_timed_replay_drains_to_batch_posteriors(self):
        """After the stream drains, the session's *data* is exactly the
        batch problem: a cold re-conclude over the drained state matches
        the batch solve bit for bit. The warm drained model itself may sit
        in a different EM basin (warm starts from partial-burst models are
        a different trajectory than one cold solve — that conditionality
        is the documented contract since the streaming engine landed), so
        it is held to MAP-agreement bounds, not bit-equality."""
        compiled = compile_registered("bursty-arrivals")
        interval = compiled.answer_events[-1].time / 10.0
        session, summary = self._drain(
            compiled, conclude_every_seconds=interval)
        assert summary.n_concludes > 1  # cadence actually fired mid-stream

        validations = {e.object_index: e.label
                       for e in compiled.validation_events}
        batch_validation = ExpertValidation.from_mapping(
            validations, compiled.n_objects, compiled.n_labels)
        batch = IncrementalEM().conclude(compiled.answer_set,
                                         batch_validation)

        # Exact layer: drained data == batch data, solved cold.
        np.testing.assert_array_equal(session.answer_set.matrix,
                                      compiled.answer_set.matrix)
        cold = ValidationSession.from_answer_set(session.answer_set)
        for obj, label in validations.items():
            cold.add_validation(obj, label, overwrite=True)
        np.testing.assert_array_equal(cold.conclude().assignment,
                                      batch.assignment)

        # Approximation layer: the warm drained model's conclusions.
        streamed = session.model.assignment
        agreement = np.mean(np.argmax(streamed, axis=1)
                            == np.argmax(batch.assignment, axis=1))
        assert agreement >= 0.75

    def test_composed_same_class_behaviors_report_union(self):
        """Two sleeper cohorts: behavior_workers reports both."""
        spec = ScenarioSpec(
            name="two-cohorts", n_objects=20, n_workers=10,
            behaviors=(SleeperSpammer(fraction=0.2, honest_answers=2),
                       SleeperSpammer(fraction=0.2, honest_answers=6)),
            seed=31)
        compiled = compile_scenario(spec)
        governed = compiled.behavior_workers["sleeper_spammer"]
        assert len(governed) >= 2
        assert set(np.flatnonzero(compiled.true_spammer_mask)) \
            >= set(governed)


class TestWorkerChurn:
    """The worker-churn scenario: generational arrival, grow cold-start."""

    def test_arrivals_group_into_generations(self):
        """Merging per-worker arrival-position intervals yields exactly
        the configured number of generations: cohorts overlap internally
        but never across the generation boundary."""
        compiled = compile_registered("worker-churn")
        positions: dict[int, list[int]] = {}
        for pos, event in enumerate(compiled.answer_events):
            interval = positions.setdefault(event.worker_index, [pos, pos])
            interval[1] = pos
        merged = 0
        previous_end = -1
        for start, end in sorted(positions.values()):
            if start > previous_end:
                merged += 1
            previous_end = max(previous_end, end)
        assert merged == compiled.spec.behaviors[0].generations

    def test_same_cells_as_churn_free_compile(self):
        """Churn permutes arrival order only — the set of answered cells
        (the sparsity mask) matches the same spec compiled without the
        behavior. Labels themselves may differ: they are drawn from one
        stream in arrival order, so the permutation re-deals the draws."""
        import dataclasses
        spec = compile_registered("worker-churn").spec
        churn_free = dataclasses.replace(spec, behaviors=())
        churned = compile_scenario(spec).answer_set.matrix
        baseline = compile_scenario(churn_free).answer_set.matrix
        np.testing.assert_array_equal(churned >= 0, baseline >= 0)

    def test_grow_cold_start_drains_to_batch(self):
        """A 1×1 session grown answer-by-answer through churn arrivals
        holds exactly the batch data, and a conclude over it matches the
        batch solve bit for bit (batch↔streaming conformance under
        churn)."""
        from repro.simulation.stream import replay
        compiled = compile_registered("worker-churn")
        session = ValidationSession(1, 1, compiled.n_labels)
        replay(compiled.events(), session,
               conclude_every=len(compiled.answer_events) // 4)
        grown = session.answer_set.matrix[:compiled.n_objects,
                                          :compiled.n_workers]
        np.testing.assert_array_equal(grown, compiled.answer_set.matrix)

        validations = {e.object_index: e.label
                       for e in compiled.validation_events}
        batch_validation = ExpertValidation.from_mapping(
            validations, compiled.n_objects, compiled.n_labels)
        batch = IncrementalEM().conclude(compiled.answer_set,
                                         batch_validation)
        cold = ValidationSession.from_answer_set(compiled.answer_set)
        for obj, label in validations.items():
            cold.add_validation(obj, label, overwrite=True)
        np.testing.assert_array_equal(cold.conclude().assignment,
                                      batch.assignment)


class TestDuplicateResubmissions:
    """The duplicate-resubmissions scenario pins the conflict policy."""

    def test_resubmissions_are_stream_only_first_write_wins(self):
        compiled = compile_registered("duplicate-resubmissions")
        extra = len(compiled.answer_events) - compiled.answer_set.n_answers
        assert extra > 0  # the behavior actually fired
        # The batch matrix holds the FIRST submission of every cell.
        first_seen: dict[tuple[int, int], int] = {}
        for event in compiled.answer_events:
            first_seen.setdefault(
                (event.object_index, event.worker_index), event.label)
        for (i, j), label in first_seen.items():
            assert compiled.answer_set.matrix[i, j] == label

    def test_default_policy_rejects_conflicts(self):
        """on_conflict='error' (the default): the first conflicting
        resubmission raises — last-write-wins is not on offer."""
        from repro.errors import InvalidAnswerSetError
        from repro.simulation.stream import replay
        compiled = compile_registered("duplicate-resubmissions")
        session = ValidationSession(1, 1, compiled.n_labels)
        with pytest.raises(InvalidAnswerSetError):
            replay(compiled.events(), session)

    def test_ignore_policy_drops_conflicts_and_matches_batch(self):
        """on_conflict='ignore': conflicts are dropped (and counted), the
        drained data equals the batch view bit for bit, and a cold solve
        over it matches the batch solve bit for bit (the drained warm
        model itself is a different trajectory — the documented streaming
        contract)."""
        from repro.simulation.stream import replay
        compiled = compile_registered("duplicate-resubmissions")
        session = ValidationSession(1, 1, compiled.n_labels)
        summary = replay(compiled.events(), session, on_conflict="ignore")
        assert summary.n_answers == len(compiled.answer_events)
        assert session.n_conflicts > 0
        drained = session.answer_set.matrix[:compiled.n_objects,
                                            :compiled.n_workers]
        np.testing.assert_array_equal(drained, compiled.answer_set.matrix)

        validations = {e.object_index: e.label
                       for e in compiled.validation_events}
        batch_validation = ExpertValidation.from_mapping(
            validations, compiled.n_objects, compiled.n_labels)
        batch = IncrementalEM().conclude(compiled.answer_set,
                                         batch_validation)
        cold = ValidationSession.from_answer_set(session.answer_set)
        for obj, label in validations.items():
            cold.add_validation(obj, label, overwrite=True)
        np.testing.assert_array_equal(cold.conclude().assignment,
                                      batch.assignment)

    def test_exact_duplicates_are_free_under_both_policies(self):
        """A re-sent identical answer is a no-op everywhere: it neither
        raises under 'error' nor bumps n_conflicts under 'ignore'."""
        session = ValidationSession(4, 3, 2)
        session.add_answer(0, 0, 1)
        assert session.add_answer(0, 0, 1) is False  # error policy: fine
        assert session.add_answer(0, 0, 1, on_conflict="ignore") is False
        assert session.n_conflicts == 0


@pytest.mark.slow
class TestFullMatrixSlow:
    """The exhaustive matrix (every scenario × mode), kept out of the CI
    scenarios job's -m "not slow" selection."""

    def test_full_registry_matrix(self):
        runner = ScenarioRunner()
        outcomes = runner.run_matrix(
            (compile_registered(name) for name in scenario_names()))
        assert len(outcomes) == len(scenario_names()) * len(LOOKAHEAD_MODES)
        for outcome in outcomes:
            assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0


@pytest.mark.slow
class TestProductionScaleSlow:
    """:data:`~repro.scenarios.PRODUCTION_SCALE` (n=5 000, k=500, 25
    disjoint blocks, 30 000 answers) through all five runner paths — the
    production-size sharded workload the every-PR sweeps deliberately skip.
    CI runs this behind the nightly/manual ``-m slow`` trigger."""

    def test_stays_out_of_the_registry(self):
        """The spec must NOT be registered: the chaos and full-matrix
        sweeps parametrize over :func:`scenario_names` and would drag a
        minutes-long workload into every PR."""
        assert PRODUCTION_SCALE.name not in scenario_names()

    def test_production_scale_all_five_paths(self):
        compiled = compile_scenario(PRODUCTION_SCALE)
        assert compiled.answer_set.n_answers \
            == PRODUCTION_SCALE.n_objects * PRODUCTION_SCALE.answers_per_object
        # Partition at the true block granularity (5 000 / 25 = 200).
        runner = ScenarioRunner(max_objects_per_block=200)
        outcome = runner.run(compiled, "local", check=False)
        # Exact layers stay exact at production size.
        assert outcome.streaming_divergence.max_abs_posterior_gap == 0.0
        assert outcome.resume_divergence.max_abs_posterior_gap == 0.0
        assert outcome.fault_divergence.max_abs_posterior_gap == 0.0
        assert outcome.n_faults_fired > 0
        # The sharded path solves 25 independent blocks; with only 12
        # expert anchors over 25 blocks, unanchored blocks may settle in
        # a flipped per-block basin, so the contract is MAP-level, not
        # posterior-level (measured agreement 0.950).
        assert outcome.sharded_divergence.map_agreement >= 0.9
        # Guided validation still helps at scale.
        assert outcome.report.final_precision() \
            >= outcome.report.initial_precision
