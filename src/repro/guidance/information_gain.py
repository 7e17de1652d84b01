"""Uncertainty-driven expert guidance via information gain (paper §5.2).

For each candidate object ``o`` the strategy evaluates the *expected*
uncertainty of the probabilistic answer set after a hypothetical expert
validation of ``o`` (Eq. 8): for every label ``l`` it re-runs the i-EM
``conclude`` with ``e'(o) = l`` and measures the entropy of the resulting
answer set, weighting by the current belief ``U(o, l)``. The information
gain (Eq. 9) is the expected entropy drop; the strategy selects its argmax
(Eq. 10).

Because one selection requires ``O(|candidates| × m)`` i-EM invocations,
the cost controls mirror — and extend — the paper's implementation notes
(§5.4):

* **shared-encoding look-ahead**: the flat answer encoding, its kernel
  plan, the ``log(clip(...))`` of the current model, and the warm-start
  E-step are all computed **once per selection** and threaded through
  every hypothetical solve, instead of being rebuilt ``O(n·k)``-style
  inside each ``conclude``;
* an :class:`~repro.parallel.executor.Executor` can fan candidates out over
  threads or processes;
* ``candidate_limit`` optionally prunes candidates to the top-K by object
  entropy before the expensive look-ahead (an implementation choice, not
  part of the paper's Eq. 10; ``None`` scores every candidate);
* an opt-in **localized look-ahead** (``lookahead="local"``) lets only
  the rows of the candidate's worker-neighborhood block move — the
  objects coupled to it through shared workers, extracted by
  :func:`~repro.core.em_kernel.block_subencoding` — and holds every other
  row at the current posterior, whose answers enter each block solve's
  M-step as fixed counts. It trades the exact Eq. 8 expectation for
  block-local cost on large sparse answer sets; where a hypothesis
  reaches past one hop the two part (see :class:`_LocalizedLookahead`).

The default exact mode reproduces the rebuild-per-conclude selection
choices bit-for-bit: it feeds identical floats (same encoding, same warm
start, same clamps) to the same kernel; ``tests/reference.py`` keeps that
one-``conclude``-per-label form of Eq. 8 as the test oracle. "Exact"
means the full answer set, not converged solves (see
:class:`InformationGainStrategy`).

Each select reports its look-ahead as one ``guidance.lookahead`` span
plus three counters: ``lookahead.solves`` (hypothetical i-EM runs),
``lookahead.iterations`` (their E/M maps) and
``lookahead.cap_hits`` (solves that stopped at ``lookahead_max_iter``
without converging). Scorers return these tallies next to each score, so
the counts are exact under any executor, process pools included.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING
from repro.core.confusion import PROB_FLOOR
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.guidance.base import (
    GuidanceContext,
    GuidanceStrategy,
    Selection,
    argmax_with_ties,
)
from repro.parallel.executor import Executor

#: Labels with current belief below this floor are skipped in the
#: expectation of Eq. 8; their (negligible) mass keeps the current entropy.
DEFAULT_LABEL_FLOOR = 1e-3

#: Supported look-ahead modes.
LOOKAHEAD_MODES = ("exact", "local")


class LookaheadScore(NamedTuple):
    """One candidate's expected posterior entropy plus its solve tally."""

    expected: float
    solves: int
    iterations: int
    cap_hits: int

    @classmethod
    def of(cls, expected: float,
           results: list[em_kernel.EMResult]) -> "LookaheadScore":
        return cls(expected, len(results),
                   sum(result.n_iterations for result in results),
                   sum(not result.converged for result in results))


class _SharedLookahead:
    """Picklable per-candidate scorer over one shared encoding/plan.

    Everything invariant across the ``|candidates| × m`` hypothetical
    solves is computed once at construction: the flat encoding, its kernel
    plan, the clipped logs of the current model, and the warm-start E-step
    (the look-ahead ``conclude``'s initial assignment does not depend on
    the hypothesis — clamping happens inside ``run_em``). Each call is
    then ``m`` clamped ``run_em`` invocations and nothing else, producing
    floats identical to the rebuild-per-conclude path.
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        self.assignment = prob_set.assignment
        self.validated = prob_set.validation.as_array()
        self.encoded = prob_set.encoded
        self.label_floor = label_floor
        self.current_entropy = current_entropy
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        log_conf = np.log(np.clip(prob_set.confusions, PROB_FLOOR, None))
        log_priors = np.log(np.clip(prob_set.priors, PROB_FLOOR, None))
        self.initial = em_kernel.e_step(
            self.encoded, prob_set.confusions, prob_set.priors,
            log_confusions=log_conf, log_priors=log_priors)

    def __call__(self, obj: int) -> LookaheadScore:
        beliefs = self.assignment[obj]
        hypothetical = self.validated.copy()
        expected = 0.0
        results = []
        for label, weight in enumerate(beliefs):
            if weight < self.label_floor:
                expected += weight * self.current_entropy
                continue
            hypothetical[obj] = label
            validated_objects = np.flatnonzero(hypothetical != MISSING)
            result = em_kernel.run_em(
                self.encoded, self.initial,
                validated_objects, hypothetical[validated_objects],
                max_iter=self.max_iter, tol=self.tol,
                smoothing=self.smoothing)
            results.append(result)
            expected += weight * float(
                object_entropies(result.assignment).sum())
        return LookaheadScore.of(expected, results)


class _LocalizedLookahead:
    """Block-local per-candidate scorer (the opt-in ``"local"`` mode).

    For candidate ``o``, only the rows of ``o``'s *worker neighborhood*
    move: the objects sharing at least one worker with ``o``
    (:func:`~repro.core.em_kernel.block_subencoding`). Every other row
    stays at the current posterior ``U``, so its answers add a constant
    to the M-step: the block workers' cell counts from answers outside
    the block, and the label mass of the rows outside it. Each block
    solve adds both to its own counts and mass before normalizing, so
    its confusions and priors are those of the whole answer set with the
    outside rows held fixed. That is EM with an E-step over the block's
    rows only, a valid partial EM step (Neal & Hinton, 1998), started
    from the session's fixed point: it moves only with the hypothesis.

    The outside evidence is the whole answer set's counts and mass under
    ``U``, taken once per select, minus the block's own under ``U``
    (rounding negatives clipped to 0). When the block is the whole
    matrix the difference is exactly 0.0, and the solve is the exact
    solve bit for bit. Per candidate this costs EM over the block's
    answers instead of all ``A``. The block reaches one hop: a
    hypothesis that moves workers outside it is not followed (see
    PERFORMANCE.md for where that matters).
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        self.assignment = prob_set.assignment
        self.confusions = prob_set.confusions
        self.priors = prob_set.priors
        self.validated = prob_set.validation.as_array()
        self.encoded = prob_set.encoded
        self.label_floor = label_floor
        self.current_entropy = current_entropy
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.log_conf = np.log(np.clip(prob_set.confusions, PROB_FLOOR,
                                       None))
        self.log_priors = np.log(np.clip(prob_set.priors, PROB_FLOOR, None))
        self.base_entropies = object_entropies(prob_set.assignment)
        # The whole answer set's M-step evidence under U; a block's
        # outside evidence is this minus the block's own.
        self.counts = em_kernel.cell_counts(self.encoded, self.assignment)
        self.mass = em_kernel.label_mass(self.assignment)
        # Worker-neighborhood adjacency over the flat encoding: the
        # shared CSR view supplies both the per-object answer slices and
        # the per-worker (stable argsort) segments — built once per
        # encoding epoch, shared with the partitioner and session.
        self._csr = em_kernel.csr_view(self.encoded)

    def _neighborhood(self, obj: int) -> np.ndarray:
        """Sorted unique objects sharing a worker with ``obj`` (incl. it)."""
        workers = self.encoded.worker_index[self._csr.object_slice(obj)]
        if not workers.size:
            return np.array([obj], dtype=np.int64)
        positions = np.concatenate([
            self._csr.worker_positions(int(w)) for w in workers])
        return np.unique(self.encoded.object_index[positions])

    def outside_evidence(self, sub: em_kernel.EncodedAnswers,
                         objects: np.ndarray, workers: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """M-step counts of ``workers`` from answers outside the block
        ``objects`` (``sub`` is its encoding), laid out like
        :func:`~repro.core.em_kernel.cell_counts`, and the label mass of
        the rows outside it, both under the current posterior."""
        m = self.encoded.n_labels
        inside = self.assignment[objects]
        rows = (np.asarray(workers, dtype=np.int64)[:, None] * m
                + np.arange(m)).ravel()
        counts = self.counts[rows] - em_kernel.cell_counts(sub, inside)
        mass = self.mass - em_kernel.label_mass(inside)
        return np.maximum(counts, 0.0), np.maximum(mass, 0.0)

    def __call__(self, obj: int) -> LookaheadScore:
        objects = self._neighborhood(obj)
        sub, workers = em_kernel.block_subencoding(self.encoded, objects)
        initial = em_kernel.e_step(
            sub, self.confusions[workers], self.priors,
            log_confusions=self.log_conf[workers],
            log_priors=self.log_priors)
        outside_counts, outside_mass = self.outside_evidence(
            sub, objects, workers)
        n_objects, smoothing = self.assignment.shape[0], self.smoothing

        def model(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            counts = em_kernel.cell_counts(sub, block) + outside_counts
            mass = outside_mass + em_kernel.label_mass(block)
            return (em_kernel.confusions_from_counts(counts, smoothing),
                    em_kernel.priors_from_mass(mass, n_objects))

        def scatter(log_confusions: np.ndarray) -> np.ndarray:
            return em_kernel.scatter_log_likelihood(sub, log_confusions)

        entropy_of_rest = (float(self.base_entropies.sum())
                           - float(self.base_entropies[objects].sum()))
        block_validated = self.validated[objects]
        local_obj = int(np.searchsorted(objects, obj))
        beliefs = self.assignment[obj]
        expected = 0.0
        results = []
        for label, weight in enumerate(beliefs):
            if weight < self.label_floor:
                expected += weight * self.current_entropy
                continue
            hypothetical = block_validated.copy()
            hypothetical[local_obj] = label
            validated_objects = np.flatnonzero(hypothetical != MISSING)
            em_map = em_kernel.EMMap(model, scatter, validated_objects,
                                     hypothetical[validated_objects])
            result, _ = em_kernel.squarem(em_map, initial,
                                          max_iter=self.max_iter,
                                          tol=self.tol)
            results.append(result)
            expected += weight * (entropy_of_rest + float(
                object_entropies(result.assignment).sum()))
        return LookaheadScore.of(expected, results)


class InformationGainStrategy(GuidanceStrategy):
    """``select_u(O) = argmax_o IG(o)`` (Eq. 10).

    Parameters
    ----------
    candidate_limit:
        Evaluate the expensive look-ahead only for the top-``K`` candidates
        by object entropy (``None`` = all candidates). Objects with zero
        entropy can never have positive gain from their own validation, so
        pruning low-entropy objects is near-lossless in practice.
    label_floor:
        Belief threshold below which a hypothetical label is not simulated.
    executor:
        Parallel map for candidate scoring (defaults to serial).
    lookahead_max_iter:
        Cap on E/M maps per look-ahead i-EM run; it bounds the
        per-selection latency. With the accelerated ``run_em`` most
        ``guided-2k`` solves converge under the default 25: on the
        ``perfbench`` campaigns at seed 1, 157 of 891 solves (16,984
        maps) stopped at the cap, and at a cap of 100 none of 955 did
        (21,498 maps). The ``guided-20k-local`` block solves converge in
        about 8 maps, and none of them stops at 25. The
        ``lookahead.cap_hits`` counter reports this per run.
    lookahead:
        ``"exact"`` (default) runs each hypothetical solve over the full
        answer set through one shared encoding/plan — identical selections
        to the rebuild-per-conclude path, several times faster. "Exact"
        refers to the answer set, not to convergence: a solve that hits
        ``lookahead_max_iter`` scores Eq. 8 on its truncated posterior.
        ``"local"`` lets only the candidate's worker-neighborhood block
        move and holds the other rows at the current posterior (see
        :class:`_LocalizedLookahead`) — an approximation suited to large
        sparse answer sets where even the shared-encoding look-ahead is
        too slow.
    """

    name = "uncertainty"

    def __init__(self,
                 candidate_limit: int | None = None,
                 label_floor: float = DEFAULT_LABEL_FLOOR,
                 executor: Executor | None = None,
                 lookahead_max_iter: int = 25,
                 lookahead: str = "exact") -> None:
        if candidate_limit is not None and candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1 or None, got {candidate_limit}")
        if lookahead_max_iter < 1:
            raise ValueError(
                f"lookahead_max_iter must be >= 1, got {lookahead_max_iter}")
        if lookahead not in LOOKAHEAD_MODES:
            raise ValueError(
                f"lookahead must be one of {LOOKAHEAD_MODES}, "
                f"got {lookahead!r}")
        self.candidate_limit = candidate_limit
        self.label_floor = float(label_floor)
        self.executor = executor or Executor("serial")
        self.lookahead_max_iter = int(lookahead_max_iter)
        self.lookahead = lookahead

    # ------------------------------------------------------------------
    def select(self, context: GuidanceContext) -> Selection:
        candidates = self._require_candidates(context)
        prob_set = context.prob_set
        span = context.telemetry.span(
            "guidance.select", strategy=self.name, lookahead=self.lookahead,
            frontier_size=int(candidates.size))
        with span:
            if (self.candidate_limit is not None
                    and candidates.size > self.candidate_limit):
                entropies = object_entropies(prob_set.assignment)[candidates]
                # Stable argsort on the negated key: boundary ties resolve
                # to the lowest candidate index (the PR 2 tie-break
                # convention), unlike reversing an ascending argsort, which
                # picks the highest index and makes the pruned set
                # order-unstable.
                top = np.argsort(-entropies,
                                 kind="stable")[:self.candidate_limit]
                candidates = candidates[np.sort(top)]

            current_entropy = answer_set_uncertainty(prob_set)
            scorer_type = _LocalizedLookahead if self.lookahead == "local" \
                else _SharedLookahead
            scorer = scorer_type(
                prob_set, self.label_floor, current_entropy,
                max_iter=self.lookahead_max_iter,
                tol=context.aggregator.tol,
                smoothing=context.aggregator.smoothing,
            )
            telemetry = context.telemetry
            with telemetry.span("guidance.lookahead", mode=self.lookahead,
                                candidates=int(candidates.size)) as lookahead:
                scores = self.executor.map(scorer,
                                           [int(c) for c in candidates])
                for name in ("solves", "iterations", "cap_hits"):
                    total = sum(getattr(score, name) for score in scores)
                    lookahead.set(name, total)
                    telemetry.counter(f"lookahead.{name}").inc(total)
            posterior_entropies = np.array(
                [score.expected for score in scores])
            gains = current_entropy - posterior_entropies
            choice = argmax_with_ties(gains, candidates, context.rng)
            span.set("candidates_scored", int(candidates.size))
            span.set("object_index", choice)
        return Selection(object_index=choice, strategy=self.name,
                         scores=gains, candidate_indices=candidates)
