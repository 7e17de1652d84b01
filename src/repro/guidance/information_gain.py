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

* **one warm start per select**: the flat answer encoding, its kernel
  plan and the warm-start E-step are computed **once per selection**
  and threaded through every hypothetical solve, instead of being
  rebuilt ``O(n·k)``-style inside each ``conclude``;
* an :class:`~repro.parallel.executor.Executor` can fan candidates out over
  threads or processes;
* ``candidate_limit`` optionally prunes candidates to the top-K by object
  entropy before the expensive look-ahead (an implementation choice, not
  part of the paper's Eq. 10; ``None`` scores every candidate);
* one scorer, :class:`_Lookahead`, serves both look-ahead modes, and a
  mode only picks which rows of a hypothetical solve may move. The
  default ``lookahead="exact"`` moves every row. The opt-in
  ``lookahead="local"`` moves only the candidate's worker-neighborhood
  block — the objects coupled to it through shared workers, extracted
  by :func:`~repro.core.em_kernel.block_subencoding` — and holds every
  other row at the current posterior, whose answers enter each block
  solve's M-step as fixed counts. It trades the exact Eq. 8 expectation
  for block-local cost on large sparse answer sets; where a hypothesis
  reaches past one hop the two part. The block is the one place the
  local mode departs from Eq. 8 (``tools/lookahead_frontier.py``
  measures how far).

The exact mode reproduces the rebuild-per-conclude selection choices
bit-for-bit: it feeds identical floats (same encoding, same warm start,
same clamps) to the same kernel; ``tests/reference.py`` keeps that
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


class _Lookahead:
    """Picklable per-candidate scorer of Eq. 8 in either look-ahead mode.

    Everything invariant across the ``|candidates| × m`` hypothetical
    solves is computed once at construction, the warm-start E-step under
    the current model above all (clamping happens inside the map, so the
    start does not depend on the hypothesis). A call picks the
    candidate's block, the rows that may move, and runs one
    :func:`~repro.core.em_kernel.squarem` per label over the block's
    :func:`~repro.core.em_kernel.dawid_skene_map`:

    * exact (``local=False``): the block is the whole encoding and
      nothing is held fixed: ``run_em``'s solve, so the scores are the
      rebuild-per-conclude path's bit for bit;
    * local: the block is the candidate's *worker neighborhood*, the
      objects sharing a worker with it. Every other row stays at the
      current posterior ``U``, so its answers add a constant to the
      M-step (:meth:`outside_evidence`): EM with an E-step over the
      block's rows only, a valid partial EM step (Neal & Hinton, 1998)
      that moves only with the hypothesis. Its start rows are the
      select's E-step rows: in the block's sub-encoding an object's row
      sums the same answers in the same order.

    The outside evidence is the whole answer set's counts and mass under
    ``U``, taken once per select, minus the block's own (rounding
    negatives clipped to 0). When the block is the whole matrix it is
    exactly 0.0, and the local solve is the exact one bit for bit. The
    block reaches one hop: a hypothesis that moves workers outside it is
    not followed (see PERFORMANCE.md for where that matters).
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet, local: bool,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        self.assignment = prob_set.assignment
        self.validated = prob_set.validation.as_array()
        self.encoded = prob_set.encoded
        self.local = local
        self.label_floor = label_floor
        self.current_entropy = current_entropy
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.initial = em_kernel.e_step(self.encoded, prob_set.confusions,
                                        prob_set.priors)
        if local:
            self.base_entropies = object_entropies(prob_set.assignment)
            # The whole answer set's M-step evidence under U; a block's
            # outside evidence is this minus the block's own.
            self.counts = em_kernel.cell_counts(self.encoded,
                                                self.assignment)
            self.mass = em_kernel.label_mass(self.assignment)
            # Worker-neighborhood adjacency over the flat encoding: the
            # shared CSR view supplies both the per-object answer slices
            # and the per-worker (stable argsort) segments — built once
            # per encoding epoch, shared with the partitioner and session.
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
        if self.local:
            objects = self._neighborhood(obj)
            encoded, workers = em_kernel.block_subencoding(self.encoded,
                                                           objects)
            held = (*self.outside_evidence(encoded, objects, workers),
                    self.assignment.shape[0])
            initial = self.initial[objects]
            hypothetical = self.validated[objects]
            position = int(np.searchsorted(objects, obj))
            entropy_of_rest = (float(self.base_entropies.sum())
                               - float(self.base_entropies[objects].sum()))
        else:
            encoded, held, initial = self.encoded, None, self.initial
            hypothetical = self.validated.copy()
            position, entropy_of_rest = obj, 0.0
        expected = 0.0
        results = []
        for label, weight in enumerate(self.assignment[obj]):
            if weight < self.label_floor:
                expected += weight * self.current_entropy
                continue
            hypothetical[position] = label
            validated_objects = np.flatnonzero(hypothetical != MISSING)
            em_map = em_kernel.dawid_skene_map(
                encoded, validated_objects, hypothetical[validated_objects],
                self.smoothing, held=held)
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
        Which rows a hypothetical solve may move; both modes share one
        scorer (:class:`_Lookahead`) and one warm-start E-step per
        select. ``"exact"`` (default) moves every row of the full answer
        set — identical selections to the rebuild-per-conclude path,
        several times faster. "Exact" refers to the answer set, not to
        convergence: a solve that hits ``lookahead_max_iter`` scores
        Eq. 8 on its truncated posterior. ``"local"`` moves only the
        candidate's worker-neighborhood block and holds the other rows at
        the current posterior — an approximation suited to large sparse
        answer sets where even the exact look-ahead is too slow.
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
            scorer = _Lookahead(
                prob_set, self.lookahead == "local", self.label_floor,
                current_entropy,
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
