"""Detection of faulty workers from answer validations (paper §5.3).

Two detectors, both reading confusion matrices *built only from
expert-validated objects* (never from inferred labels — that is the bias in
[38] the paper corrects):

* **Uniform/random spammers**: their validated confusion matrices are close
  to rank one (a single hot column, or rows that are identical across
  columns), so the Frobenius distance to the best rank-one approximation —
  the spammer score ``s(w)`` of Eq. 11 — is near zero. A worker with
  ``s(w) < τ_s`` is flagged.
* **Sloppy workers**: prior-weighted off-diagonal mass (error rate ``e_w``)
  exceeding ``τ_p`` flags the worker.

Workers with too little validated evidence are never flagged (Table 3's
example shows a truthful worker misclassified from only four validations);
``min_validated`` controls the evidence requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.answer_set import AnswerSet
from repro.core.confusion import (
    error_rate,
    normalize_rows,
    rank_one_distance,
    validated_answer_counts,
    validated_confusion_counts,
)
from repro.core.em_kernel import encode_answers
from repro.core.validation import ExpertValidation
from repro.utils.checks import check_fraction, check_non_negative_int

#: Default spammer-score threshold (the paper settles on 0.2 in §6.5).
DEFAULT_TAU_S = 0.2

#: Default sloppy-worker error-rate threshold (§6.5 keeps it at 0.8).
DEFAULT_TAU_P = 0.8


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection pass over the worker community.

    Attributes
    ----------
    spammer_scores:
        ``s(w)`` per worker (``inf`` when evidence is insufficient, so such
        workers compare as "far from rank one" and are never flagged).
    error_rates:
        ``e_w`` per worker (``0`` when evidence is insufficient).
    evidence:
        Number of validated answers per worker.
    spammer_mask:
        Boolean mask of workers flagged as uniform/random spammers.
    sloppy_mask:
        Boolean mask of workers flagged as sloppy.
    """

    spammer_scores: np.ndarray
    error_rates: np.ndarray
    evidence: np.ndarray
    spammer_mask: np.ndarray
    sloppy_mask: np.ndarray

    @property
    def faulty_mask(self) -> np.ndarray:
        """Workers flagged by either detector (the union in Eq. 12)."""
        return self.spammer_mask | self.sloppy_mask

    @property
    def faulty_indices(self) -> np.ndarray:
        return np.flatnonzero(self.faulty_mask)

    @property
    def n_faulty(self) -> int:
        return int(np.count_nonzero(self.faulty_mask))

    def faulty_ratio(self) -> float:
        """Detected-faulty fraction of the community — ``r_i`` of Eq. 15."""
        total = self.faulty_mask.size
        return self.n_faulty / total if total else 0.0


class SpammerDetector:
    """Flags uniform/random spammers and sloppy workers from validations.

    Parameters
    ----------
    tau_s:
        Spammer-score threshold τ_s; workers with ``s(w) < tau_s`` are
        flagged as uniform/random spammers.
    tau_p:
        Error-rate threshold τ_p; workers with ``e_w > tau_p`` are flagged
        as sloppy.
    min_validated:
        Minimum number of validated answers a worker needs before either
        detector may flag them. The default of 3 matters: a worker with a
        single validated answer has a one-cell confusion-count matrix,
        which is *exactly* rank one and would always be flagged as a
        spammer (the Table 3 false-positive taken to its extreme); three
        answers are the minimum to possibly span two true labels with
        repetition.
    smoothing:
        Pseudo-count used when row-normalizing validated confusion counts.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.answer_set import AnswerSet
    >>> from repro.core.validation import ExpertValidation
    >>> # worker 1 always answers label 0 (uniform spammer)
    >>> answers = AnswerSet(np.array([[0, 0], [1, 0], [0, 0], [1, 0]]),
    ...                     labels=("T", "F"))
    >>> e = ExpertValidation.from_mapping({0: 0, 1: 1, 2: 0, 3: 1}, 4, 2)
    >>> result = SpammerDetector().detect(answers, e)
    >>> bool(result.spammer_mask[1]), bool(result.spammer_mask[0])
    (True, False)
    """

    def __init__(self,
                 tau_s: float = DEFAULT_TAU_S,
                 tau_p: float = DEFAULT_TAU_P,
                 min_validated: int = 3,
                 smoothing: float = 0.0) -> None:
        if tau_s < 0:
            raise ValueError(f"tau_s must be >= 0, got {tau_s}")
        check_fraction(tau_p, "tau_p")
        check_non_negative_int(min_validated, "min_validated")
        self.tau_s = float(tau_s)
        self.tau_p = float(tau_p)
        self.min_validated = int(min_validated)
        self.smoothing = float(smoothing)

    # ------------------------------------------------------------------
    def detect(self,
               answer_set: AnswerSet,
               validation: ExpertValidation,
               priors: np.ndarray | None = None) -> DetectionResult:
        """Run both detectors against the current validations.

        The answers are read through the :func:`encode_answers` memo, so
        a caller that detects on the same answer set every step (the
        validation process, whose session was seeded from it) encodes it
        once.
        """
        encoded = encode_answers(answer_set)
        counts = validated_confusion_counts(encoded, validation)
        evidence = validated_answer_counts(encoded, validation)
        return self.detect_from_counts(counts, evidence, priors)

    def detect_from_counts(self,
                           counts: np.ndarray,
                           evidence: np.ndarray,
                           priors: np.ndarray | None = None,
                           ) -> DetectionResult:
        """Detection from precomputed validated confusion counts.

        Split out so worker-driven guidance can evaluate hypothetical
        validations (Eq. 12) without re-scanning the answer matrix: it
        increments the counts of the workers who answered the candidate
        object and calls this directly.
        """
        k = counts.shape[0]
        confusions = normalize_rows(counts, smoothing=self.smoothing)
        scores = np.full(k, np.inf)
        errors = np.zeros(k)
        has_evidence = evidence >= max(self.min_validated, 1)
        for w in np.flatnonzero(has_evidence):
            scores[w] = rank_one_distance(confusions[w])
            errors[w] = error_rate(confusions[w], priors)
        spammer_mask = scores < self.tau_s
        sloppy_mask = errors > self.tau_p
        return DetectionResult(
            spammer_scores=scores,
            error_rates=errors,
            evidence=evidence,
            spammer_mask=spammer_mask,
            sloppy_mask=sloppy_mask,
        )


def detection_curve(answer_set: AnswerSet,
                    validation_order: np.ndarray,
                    validation_labels: np.ndarray,
                    true_faulty_mask: np.ndarray,
                    detector: SpammerDetector | None = None,
                    priors: np.ndarray | None = None,
                    ) -> list[dict[str, float]]:
    """Detection precision/recall after each successive validation.

    Replays ``validation_order``/``validation_labels`` one assertion at a
    time, running the (stateless) detector on the growing evidence and
    scoring its spammer flags against ``true_faulty_mask``. This is the
    evidence-accumulation view of Figure 9 the adversarial scenarios pin
    in golden fixtures: colluders and sleepers bend this curve in ways a
    final-state score can hide.
    """
    validation_order = np.asarray(validation_order, dtype=np.int64)
    validation_labels = np.asarray(validation_labels, dtype=np.int64)
    if validation_order.shape != validation_labels.shape:
        raise ValueError(
            f"order/labels shapes differ: {validation_order.shape} vs "
            f"{validation_labels.shape}")
    detector = detector or SpammerDetector()
    validation = ExpertValidation(answer_set.n_objects, answer_set.n_labels)
    curve: list[dict[str, float]] = []
    for obj, label in zip(validation_order, validation_labels):
        validation.assign(int(obj), int(label), overwrite=True)
        result = detector.detect(answer_set, validation, priors)
        precision, recall = detection_precision_recall(
            result.spammer_mask, true_faulty_mask)
        curve.append({
            "n_validated": float(validation.count),
            "precision": float(precision),
            "recall": float(recall),
            "n_flagged": float(np.count_nonzero(result.spammer_mask)),
        })
    return curve


def detection_precision_recall(detected_mask: np.ndarray,
                               true_faulty_mask: np.ndarray,
                               ) -> tuple[float, float]:
    """Precision and recall of a detection pass against ground truth.

    Matches §6.5: precision is correctly-identified over all identified;
    recall is correctly-identified over all actually-faulty workers. Both
    default to 0 when their denominator is empty.
    """
    detected_mask = np.asarray(detected_mask, dtype=bool)
    true_faulty_mask = np.asarray(true_faulty_mask, dtype=bool)
    if detected_mask.shape != true_faulty_mask.shape:
        raise ValueError(
            f"mask shapes differ: {detected_mask.shape} vs "
            f"{true_faulty_mask.shape}")
    hits = int(np.count_nonzero(detected_mask & true_faulty_mask))
    n_detected = int(np.count_nonzero(detected_mask))
    n_faulty = int(np.count_nonzero(true_faulty_mask))
    precision = hits / n_detected if n_detected else 0.0
    recall = hits / n_faulty if n_faulty else 0.0
    return precision, recall
