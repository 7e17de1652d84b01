"""Worker-driven expert guidance (paper §5.3).

Selects the object whose validation is expected to unmask the most faulty
workers. For a candidate object ``o`` and hypothetical expert label ``l``,
``R(W | o = l)`` (Eq. 12) counts the workers that the detectors would flag
after adding the validation ``(o → l)`` to the evidence; the expected count
``R(W | o) = Σ_l U(o, l) · R(W | o = l)`` (Eq. 13) weights the hypotheses by
the current beliefs, and the strategy selects the argmax (Eq. 14).

Only workers who answered ``o`` can change detection status under the
hypothesis, so the implementation splits the count into an invariant part
(non-answerers, computed once per selection) and a per-hypothesis part
(answerers re-scored against their incremented confusion counts).

Candidates' answers are read from the answer set's flat encoding
(:func:`repro.core.em_kernel.encode_answers`), never from rows of the
dense matrix. Inside a validation process that is the session's shared
encoding, so a select allocates nothing proportional to ``n·k``.
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.confusion import (
    validated_answer_counts,
    validated_confusion_counts,
)
from repro.guidance.base import (
    GuidanceContext,
    GuidanceStrategy,
    Selection,
    argmax_with_ties,
)


class WorkerDrivenStrategy(GuidanceStrategy):
    """``select_w(O) = argmax_o R(W | o)`` (Eq. 14).

    Parameters
    ----------
    candidate_limit:
        Score only the ``K`` candidates with the most answers from
        currently-unflagged workers (``None`` = all). More answers on an
        object means more workers whose status the validation could flip.
        The counts are the encoding's per-object segment lengths
        (:attr:`~repro.core.em_kernel.EncodingCSR.object_starts`); ties
        keep the lower object index.
    """

    name = "worker"

    def __init__(self, candidate_limit: int | None = None) -> None:
        if candidate_limit is not None and candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1 or None, got {candidate_limit}")
        self.candidate_limit = candidate_limit

    # ------------------------------------------------------------------
    def select(self, context: GuidanceContext) -> Selection:
        candidates = self._require_candidates(context)
        prob_set = context.prob_set
        answer_set = prob_set.answer_set
        detector = context.detector
        priors = prob_set.priors
        span = context.telemetry.span(
            "guidance.select", strategy=self.name,
            frontier_size=int(candidates.size))
        with span:
            encoded = em_kernel.encode_answers(answer_set)
            csr = em_kernel.csr_view(encoded)
            base_counts = validated_confusion_counts(answer_set,
                                                     prob_set.validation)
            base_evidence = validated_answer_counts(answer_set,
                                                    prob_set.validation)
            base_detection = detector.detect_from_counts(
                base_counts, base_evidence, priors)
            base_faulty = base_detection.faulty_mask

            if (self.candidate_limit is not None
                    and candidates.size > self.candidate_limit):
                starts = csr.object_starts
                coverage = starts[candidates + 1] - starts[candidates]
                # Stable argsort on the negated key so boundary ties keep
                # the lowest candidate index (see
                # InformationGainStrategy.select).
                top = np.argsort(-coverage,
                                 kind="stable")[:self.candidate_limit]
                candidates = candidates[np.sort(top)]

            scores = np.array([
                self._expected_detections(
                    int(obj), encoded, csr, detector, prob_set.assignment,
                    base_counts, base_evidence, base_faulty, priors)
                for obj in candidates
            ])
            choice = argmax_with_ties(scores, candidates, context.rng)
            span.set("candidates_scored", int(candidates.size))
            span.set("object_index", choice)
        return Selection(object_index=choice, strategy=self.name,
                         scores=scores, candidate_indices=candidates)

    # ------------------------------------------------------------------
    @staticmethod
    def _expected_detections(obj: int,
                             encoded: em_kernel.EncodedAnswers,
                             csr: em_kernel.EncodingCSR,
                             detector,
                             assignment: np.ndarray,
                             base_counts: np.ndarray,
                             base_evidence: np.ndarray,
                             base_faulty: np.ndarray,
                             priors: np.ndarray) -> float:
        """``R(W | o)`` for one candidate object (Eq. 13)."""
        answers = csr.object_slice(obj)
        answerers = encoded.worker_index[answers]
        answered = encoded.label_index[answers]
        invariant = int(np.count_nonzero(base_faulty)) \
            - int(np.count_nonzero(base_faulty[answerers]))
        if answerers.size == 0:
            # No worker answered: a validation cannot change any status.
            return float(np.count_nonzero(base_faulty))

        m = encoded.n_labels
        expected = 0.0
        for label in range(m):
            weight = float(assignment[obj, label])
            if weight == 0.0:
                continue
            counts = np.array(base_counts[answerers], copy=True)
            counts[np.arange(answerers.size), label, answered] += 1
            evidence = base_evidence[answerers] + 1
            detection = detector.detect_from_counts(counts, evidence, priors)
            expected += weight * (invariant + detection.n_faulty)
        return expected
