"""Equivalence guarantees for the sublinear guidance engine (ISSUE 2).

Three seams, each with a property suite:

* **Kernel plans** — the sparse incidence-operator E/M scatters must be
  *bit-for-bit* equal to the ``np.add.at`` reference (``tests/reference.py``)
  on arbitrary answer matrices; ``np.array_equal``, never ``allclose``.
* **Lazy greedy** — CELF over the incremental Cholesky factor must select
  the identical subset (and return the identical entropy float) as the
  quadratic slogdet-per-candidate greedy of ``tests/reference.py``, with
  reproducible lowest-index tie-breaking.
* **Look-ahead rework** — ``InformationGainStrategy`` with the shared
  encoding must reproduce the PR-1 rebuild-per-conclude selection choices
  and scores exactly; one select takes one E-step in either mode, because
  a block's sub-encoding reproduces the whole E-step's rows; the
  localized mode must degrade gracefully to the exact result when the
  worker neighborhood spans the whole matrix, hold the evidence outside
  its block at the reference sums, and track converged exact Eq. 8 where
  each hypothesis stays inside its block; and the look-ahead counters
  must count exactly the solves it ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.iem import IncrementalEM
from repro.core.uncertainty import answer_set_uncertainty
from repro.core.validation import ExpertValidation
from repro.guidance import InformationGainStrategy, greedy_max_entropy_subset
from repro.guidance.base import GuidanceContext
from repro.guidance.information_gain import _Lookahead
from repro.guidance.joint_entropy import gaussian_joint_entropy
from repro.parallel import Executor
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.telemetry import Telemetry
from repro.workers.spammer_detection import SpammerDetector

import reference


@st.composite
def encoded_instances(draw, max_n=10, max_k=8, max_m=4):
    """A random answer matrix flattened to an encoding, plus dimensions."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(2, max_m))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, m, size=(n, k))
    labels = tuple(f"l{i}" for i in range(m))
    return em_kernel.encode_answers(AnswerSet(matrix, labels)), n, k, m, rng


class TestKernelPlanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(encoded_instances())
    def test_m_step_bit_for_bit(self, instance):
        encoded, n, k, m, rng = instance
        assignment = rng.dirichlet(np.ones(m), size=n)
        for smoothing in (0.0, em_kernel.DEFAULT_SMOOTHING):
            fast = em_kernel.m_step(encoded, assignment, smoothing)
            scattered = reference.m_step(encoded, assignment, smoothing)
            assert np.array_equal(fast, scattered)

    @settings(max_examples=60, deadline=None)
    @given(encoded_instances())
    def test_e_step_bit_for_bit(self, instance):
        encoded, n, k, m, rng = instance
        confusions = rng.dirichlet(np.ones(m), size=(k, m))
        priors = rng.dirichlet(np.ones(m))
        fast = em_kernel.e_step(encoded, confusions, priors)
        scattered = reference.e_step(encoded, confusions, priors)
        assert np.array_equal(fast, scattered)

    @settings(max_examples=40, deadline=None)
    @given(encoded_instances())
    def test_run_em_bit_for_bit(self, instance):
        encoded, n, k, m, rng = instance
        initial = em_kernel.initial_assignment_majority(encoded)
        validated = np.array([0], dtype=np.int64)
        labels = np.array([m - 1], dtype=np.int64)
        fast = em_kernel.run_em(encoded, initial, validated, labels,
                                max_iter=15)
        scattered = reference.run_em(encoded, initial, validated, labels,
                                     max_iter=15)
        assert np.array_equal(fast.assignment, scattered.assignment)
        assert np.array_equal(fast.confusions, scattered.confusions)
        assert np.array_equal(fast.priors, scattered.priors)
        assert fast.n_iterations == scattered.n_iterations

    def test_plan_is_memoized_per_encoding(self):
        encoded = em_kernel.encode_answers(
            AnswerSet(np.array([[0, 1], [1, 0]]), ("a", "b")))
        assert em_kernel.kernel_plan(encoded) \
            is em_kernel.kernel_plan(encoded)

    def test_stats_encoding_cache_shares_the_plan(self):
        stats = em_kernel.AnswerStats(3, 2, 2)
        stats.add_answers(np.array([0, 1, 2]), np.array([0, 1, 0]),
                          np.array([1, 0, 1]))
        first = em_kernel.kernel_plan(stats.encoded())
        assert em_kernel.kernel_plan(stats.encoded()) is first
        stats.add_answer(0, 1, 0)  # version bump -> fresh encoding + plan
        assert em_kernel.kernel_plan(stats.encoded()) is not first

    def test_empty_encoding(self):
        encoded = em_kernel.encode_answers(
            AnswerSet(np.full((2, 2), -1), ("a", "b")))
        assignment = np.full((2, 2), 0.5)
        assert np.array_equal(
            em_kernel.m_step(encoded, assignment),
            reference.m_step(encoded, assignment))

    def test_memoized_plan_is_not_pickled(self):
        """Process-executor tasks ship encodings; the plan memo must not
        ride along (workers re-derive it from the same memoization)."""
        import pickle
        encoded = em_kernel.encode_answers(
            AnswerSet(np.array([[0, 1], [1, 0]]), ("a", "b")))
        em_kernel.kernel_plan(encoded)
        restored = pickle.loads(pickle.dumps(encoded))
        assert "_kernel_plan" not in restored.__dict__
        assert np.array_equal(restored.object_index, encoded.object_index)
        assert np.array_equal(restored.worker_index, encoded.worker_index)
        assert np.array_equal(restored.label_index, encoded.label_index)
        assert restored.n_objects == encoded.n_objects
        # A fresh memoization on the restored copy works as usual.
        assert em_kernel.kernel_plan(restored) \
            is em_kernel.kernel_plan(restored)


class TestLazyGreedyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 10_000))
    def test_identical_subsets_on_random_covariances(self, n, seed):
        rng = np.random.default_rng(seed)
        basis = rng.normal(size=(n, n + 3))
        covariance = basis @ basis.T / (n + 3) + 0.05 * np.eye(n)
        size = int(rng.integers(1, n + 1))
        lazy, lazy_value = greedy_max_entropy_subset(covariance, size)
        quad = reference.quadratic_greedy_indices(covariance, size)
        assert np.array_equal(lazy, quad)
        assert lazy_value == gaussian_joint_entropy(covariance, quad)

    def test_ties_resolve_to_lowest_index(self):
        covariance = np.eye(8)  # all gains identical every round
        lazy, _ = greedy_max_entropy_subset(covariance, 3)
        assert lazy.tolist() == [0, 1, 2]
        assert reference.quadratic_greedy_indices(covariance, 3).tolist() \
            == [0, 1, 2]

    def test_singular_covariance_matches_quadratic_fallback(self):
        """Rank-one covariance: after the first pick every extension is
        singular; both solvers must fall back to lowest remaining indices
        instead of crashing."""
        covariance = np.outer(np.ones(5), np.ones(5))
        lazy, lazy_value = greedy_max_entropy_subset(covariance, 4)
        quad = reference.quadratic_greedy_indices(covariance, 4)
        assert np.array_equal(lazy, quad)
        assert lazy_value == gaussian_joint_entropy(covariance, quad) \
            == float("-inf")


def _context(crowd, n_validated=4, rng_seed=0):
    validation = ExpertValidation.empty_for(crowd.answer_set)
    for obj in range(n_validated):
        validation.assign(obj, int(crowd.gold[obj]))
    aggregator = IncrementalEM()
    prob_set = aggregator.conclude(crowd.answer_set, validation)
    return GuidanceContext(prob_set=prob_set, aggregator=aggregator,
                           detector=SpammerDetector(),
                           rng=np.random.default_rng(rng_seed))


@pytest.fixture(scope="module")
def fifteen_per_object():
    """``(prob_set, aggregator)`` of a 3000×300 crowd at 15 answers per
    object, five objects validated: blocks hold a hypothesis' reach."""
    crowd = simulate_crowd(
        CrowdConfig(n_objects=3000, n_workers=300, answers_per_object=15),
        rng=0)
    context = _context(crowd, n_validated=5)
    return context.prob_set, context.aggregator


def _select(state, strategy, telemetry=None):
    prob_set, aggregator = state
    context = GuidanceContext(prob_set=prob_set, aggregator=aggregator,
                              detector=SpammerDetector(),
                              rng=np.random.default_rng(0))
    if telemetry is not None:
        context.telemetry = telemetry
    return strategy.select(context)


class TestSharedLookaheadEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_select_reproduces_pr1_choices(self, seed):
        """The shared-encoding select must match a per-candidate scoring
        through the PR-1 interface (`reference.expected_posterior_entropy`:
        a fresh conclude, hence a fresh encoding, per call) bit-for-bit."""
        crowd = simulate_crowd(
            CrowdConfig(n_objects=12, n_workers=5, answers_per_object=3),
            rng=seed)
        context = _context(crowd)
        strategy = InformationGainStrategy()
        selection = strategy.select(context)

        lookahead = IncrementalEM(max_iter=strategy.lookahead_max_iter,
                                  tol=context.aggregator.tol,
                                  smoothing=context.aggregator.smoothing)
        current = answer_set_uncertainty(context.prob_set)
        pr1_scores = np.array([
            current - reference.expected_posterior_entropy(
                context.prob_set, lookahead, int(obj), strategy.label_floor)
            for obj in selection.candidate_indices])
        assert np.array_equal(selection.scores, pr1_scores)
        chosen = np.flatnonzero(
            selection.candidate_indices == selection.object_index)[0]
        # argmax_with_ties may pick any score within its 1e-12 tie band.
        assert selection.scores[chosen] >= pr1_scores.max() - 1e-12


class TestOneWarmStartPerSelect:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 14), k=st.integers(1, 8), m=st.integers(2, 4),
           seed=st.integers(0, 10_000))
    def test_block_e_step_rows_equal_the_whole_e_step(self, n, k, m, seed):
        """In a worker neighborhood's sub-encoding an object's E-step row
        sums the same answers in the same order as in the whole encoding,
        so the select's one E-step holds every block's start rows."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-1, m, size=(n, k))
        matrix[rng.random(n) < 0.2] = MISSING  # unanswered objects
        stats = em_kernel.AnswerStats(n, k, m)
        objects, workers = np.nonzero(matrix != MISSING)
        stats.add_answers(objects, workers, matrix[objects, workers])
        stats.set_masked_workers(np.flatnonzero(rng.random(k) < 0.25))
        encoded = stats.encoded()
        confusions = rng.dirichlet(np.ones(m), size=(k, m))
        priors = rng.dirichlet(np.ones(m))
        whole = em_kernel.e_step(encoded, confusions, priors)
        for obj in rng.choice(n, size=min(n, 4), replace=False):
            shared = encoded.worker_index[encoded.object_index == obj]
            block = np.union1d([obj], encoded.object_index[
                np.isin(encoded.worker_index, shared)])
            sub, block_workers = em_kernel.block_subencoding(encoded, block)
            rows = em_kernel.e_step(sub, confusions[block_workers], priors)
            assert np.array_equal(rows, whole[block])

    @pytest.mark.parametrize("lookahead", ["exact", "local"])
    def test_select_runs_one_e_step(self, lookahead, monkeypatch):
        crowd = simulate_crowd(
            CrowdConfig(n_objects=30, n_workers=15, answers_per_object=2),
            rng=1)
        context = _context(crowd)
        calls = []
        e_step = em_kernel.e_step

        def counted(*args, **kwargs):
            calls.append(args[0].n_objects)
            return e_step(*args, **kwargs)

        monkeypatch.setattr(em_kernel, "e_step", counted)
        selection = InformationGainStrategy(
            lookahead=lookahead, candidate_limit=4).select(context)
        assert selection.candidate_indices.size == 4
        assert calls == [crowd.answer_set.n_objects]


class TestLocalizedLookahead:
    def test_degenerates_to_exact_on_dense_matrices(self):
        """When every object shares a worker with every other, the
        neighborhood block is the whole matrix and the localized solve is
        the exact solve — selections and scores must match bitwise."""
        crowd = simulate_crowd(
            CrowdConfig(n_objects=10, n_workers=4, answers_per_object=4),
            rng=3)
        exact = InformationGainStrategy().select(_context(crowd))
        localized = InformationGainStrategy(lookahead="local").select(
            _context(crowd))
        assert exact.object_index == localized.object_index
        assert np.array_equal(exact.scores, localized.scores)

    def test_tracks_converged_exact_where_blocks_hold_the_reach(
            self, fifteen_per_object):
        """Holding the rows outside the block at the session's fixed point
        leaves a block solve moving only with its hypothesis: within
        0.05 nats of converged exact Eq. 8 and the same pick (dropping
        the outside evidence put the scores 50.7 nats off, on another
        object)."""
        local = _select(fifteen_per_object, InformationGainStrategy(
            candidate_limit=10, lookahead="local"))
        exact = _select(fifteen_per_object, InformationGainStrategy(
            candidate_limit=10, lookahead_max_iter=500))
        assert np.array_equal(local.candidate_indices,
                              exact.candidate_indices)
        assert np.max(np.abs(local.scores - exact.scores)) <= 0.05
        assert local.object_index == exact.object_index

    def test_block_solves_converge_under_the_cap(self, fifteen_per_object):
        hub = Telemetry()
        _select(fifteen_per_object, InformationGainStrategy(
            candidate_limit=10, lookahead="local"), hub)
        solves, iterations, cap_hits = (
            int(hub.registry.counter(f"lookahead.{name}").value)
            for name in ("solves", "iterations", "cap_hits"))
        assert solves > 0
        assert cap_hits == 0
        # About 7 maps a solve; without the outside evidence, 21.
        assert iterations <= 10 * solves

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), k=st.integers(1, 6), m=st.integers(2, 4),
           seed=st.integers(0, 10_000))
    def test_outside_evidence_matches_reference_sums(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        answer_set = AnswerSet(rng.integers(-1, m, size=(n, k)),
                               tuple(f"l{i}" for i in range(m)))
        validation = ExpertValidation.empty_for(answer_set)
        validation.assign(0, m - 1)
        aggregator = IncrementalEM()
        prob_set = aggregator.conclude(answer_set, validation)
        encoded = prob_set.encoded
        scorer = _Lookahead(
            prob_set, local=True, label_floor=1e-3,
            current_entropy=answer_set_uncertainty(prob_set),
            max_iter=25, tol=aggregator.tol, smoothing=aggregator.smoothing)
        objects = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False))
        sub, workers = em_kernel.block_subencoding(encoded, objects)
        counts, mass = scorer.outside_evidence(sub, objects, workers)
        want_counts, want_mass = reference.outside_block_evidence(
            encoded, prob_set.assignment, objects, workers)
        for got, want in ((counts, want_counts), (mass, want_mass)):
            assert got.shape == want.shape
            np.testing.assert_allclose(
                got, want, rtol=1e-9, atol=1e-9 * max(1.0, want.max(initial=0.0)))

    def test_runs_on_sparse_matrices(self):
        crowd = simulate_crowd(
            CrowdConfig(n_objects=30, n_workers=15, answers_per_object=2),
            rng=1)
        context = _context(crowd)
        selection = InformationGainStrategy(lookahead="local",
                                            candidate_limit=8).select(context)
        assert not context.prob_set.validation.is_validated(
            selection.object_index)
        assert selection.candidate_indices.size == 8
        assert np.all(np.isfinite(selection.scores))

    def test_isolated_object_is_scorable(self):
        """An object with no answers has an empty worker neighborhood; the
        localized scorer must still produce a finite expected entropy."""
        matrix = np.array([[0, 0], [1, 0], [-1, -1]])
        answer_set = AnswerSet(matrix, ("a", "b"))
        validation = ExpertValidation.empty_for(answer_set)
        aggregator = IncrementalEM()
        prob_set = aggregator.conclude(answer_set, validation)
        context = GuidanceContext(prob_set=prob_set, aggregator=aggregator,
                                  detector=SpammerDetector(),
                                  rng=np.random.default_rng(0))
        selection = InformationGainStrategy(lookahead="local").select(context)
        assert np.all(np.isfinite(selection.scores))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InformationGainStrategy(lookahead="global")

    @pytest.mark.parametrize("lookahead", ["exact", "local"])
    def test_map_cap_below_one_rejected(self, lookahead):
        with pytest.raises(ValueError):
            InformationGainStrategy(lookahead=lookahead,
                                    lookahead_max_iter=0)


class TestBlockSubencoding:
    @settings(max_examples=40, deadline=None)
    @given(encoded_instances(), st.integers(0, 10_000))
    def test_segment_path_matches_isin_path(self, instance, seed):
        encoded, n, k, m, _ = instance
        rng = np.random.default_rng(seed)
        block_size = int(rng.integers(1, n + 1))
        objects = np.sort(rng.choice(n, size=block_size, replace=False))
        via_scan, workers_scan = reference.block_subencoding(encoded, objects)
        via_segments, workers_seg = em_kernel.block_subencoding(
            encoded, objects)
        assert np.array_equal(workers_scan, workers_seg)
        assert np.array_equal(via_scan.object_index,
                              via_segments.object_index)
        assert np.array_equal(via_scan.worker_index,
                              via_segments.worker_index)
        assert np.array_equal(via_scan.label_index, via_segments.label_index)
        assert via_scan.n_objects == via_segments.n_objects == objects.size
        assert via_scan.n_workers == via_segments.n_workers


class TestBatchSelection:
    def test_select_batch_is_diverse_and_unvalidated(self, small_crowd):
        from repro.guidance import MaxEntropyStrategy
        context = _context(small_crowd, n_validated=3)
        batch = MaxEntropyStrategy().select_batch(context, size=5)
        assert batch.size == 5
        assert np.unique(batch).size == 5
        for obj in batch:
            assert not context.prob_set.validation.is_validated(int(obj))


class TestLookaheadTelemetry:
    @staticmethod
    def _direct_tally(context, strategy, candidates):
        """(solves, iterations, cap_hits) of the same hypotheses, each
        run through run_em directly."""
        prob_set = context.prob_set
        encoded = prob_set.encoded
        initial = em_kernel.e_step(encoded, prob_set.confusions,
                                   prob_set.priors)
        validated = prob_set.validation.as_array()
        results = []
        for obj in candidates:
            for label, weight in enumerate(prob_set.assignment[obj]):
                if weight < strategy.label_floor:
                    continue
                hypothetical = validated.copy()
                hypothetical[obj] = label
                objects = np.flatnonzero(hypothetical != MISSING)
                results.append(em_kernel.run_em(
                    encoded, initial, objects, hypothetical[objects],
                    max_iter=strategy.lookahead_max_iter,
                    tol=context.aggregator.tol,
                    smoothing=context.aggregator.smoothing))
        return (len(results), sum(r.n_iterations for r in results),
                sum(not r.converged for r in results))

    @staticmethod
    def _hub_tally(hub):
        return tuple(int(hub.registry.counter(f"lookahead.{name}").value)
                     for name in ("solves", "iterations", "cap_hits"))

    @pytest.mark.parametrize("max_iter", [3, 25])
    def test_counters_equal_direct_run_em_tallies(self, max_iter):
        crowd = simulate_crowd(
            CrowdConfig(n_objects=14, n_workers=6, answers_per_object=3),
            rng=5)
        hub = Telemetry()
        context = _context(crowd)
        context.telemetry = hub
        strategy = InformationGainStrategy(candidate_limit=4,
                                           lookahead_max_iter=max_iter)
        selection = strategy.select(context)
        expected = self._direct_tally(context, strategy,
                                      selection.candidate_indices)
        assert self._hub_tally(hub) == expected
        assert expected[0] > 0
        if max_iter == 3:
            assert expected[2] > 0  # the cap binds: cap hits are counted
        spans = [r for r in hub.tracer.records
                 if r.name == "guidance.lookahead"]
        assert len(spans) == 1
        assert (spans[0].attrs["solves"], spans[0].attrs["iterations"],
                spans[0].attrs["cap_hits"]) == expected

    def test_tallies_survive_a_process_executor(self):
        crowd = simulate_crowd(
            CrowdConfig(n_objects=14, n_workers=6, answers_per_object=3),
            rng=6)
        tallies = []
        for executor in (Executor("serial"),
                         Executor("processes", max_workers=2)):
            hub = Telemetry()
            context = _context(crowd)
            context.telemetry = hub
            with executor:
                InformationGainStrategy(candidate_limit=4,
                                        executor=executor).select(context)
            tallies.append(self._hub_tally(hub))
        assert tallies[0] == tallies[1]
        assert tallies[0][0] > 0
