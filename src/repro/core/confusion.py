"""Worker confusion matrices (paper §3.1, §4, §5.3).

A confusion matrix ``F_w`` is an ``m × m`` row-stochastic matrix where
``F_w(l, l')`` is the probability that worker ``w`` assigns label ``l'`` to
an object whose correct label is ``l``. Two distinct constructions appear in
the paper and both live here:

* **EM confusion matrices** — estimated from the soft assignment matrix
  ``U`` during the M-step (Eq. 5); built by :mod:`repro.core.em_kernel`.
* **Validated confusion matrices** — counted only over expert-validated
  objects (§5.3), used for spammer detection to avoid the estimation bias
  of building them from inferred labels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.validation import ExpertValidation
from repro.errors import InvalidProbabilityError

if TYPE_CHECKING:  # em_kernel imports this module
    from repro.core.em_kernel import EncodedAnswers

#: Smallest probability kept when normalizing rows (guards ``log`` calls).
PROB_FLOOR = 1e-12


def normalize_rows(counts: np.ndarray,
                   smoothing: float = 0.0) -> np.ndarray:
    """Row-normalize a non-negative count matrix into a stochastic matrix.

    Rows whose total mass (after adding ``smoothing`` to each cell) is zero
    become uniform — the natural prior for a worker never observed on that
    true label.
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise InvalidProbabilityError("confusion counts must be non-negative")
    smoothed = counts + float(smoothing)
    sums = smoothed.sum(axis=-1, keepdims=True)
    m = counts.shape[-1]
    uniform = np.full(m, 1.0 / m)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.where(sums > 0, smoothed / np.where(sums == 0, 1, sums), uniform)
    return result


def rank_one_distance(confusion: np.ndarray) -> float:
    """Frobenius distance of ``confusion`` to its best rank-one approximation.

    This is the spammer score ``s(w)`` of Eq. 11. By the Eckart–Young
    theorem the distance equals ``sqrt(σ₂² + … + σ_m²)`` over the singular
    values, so uniform and random spammers — whose confusion matrices are
    (close to) rank one — score near zero, while a diagonal (reliable)
    matrix scores near ``sqrt(m − 1)``.
    """
    matrix = np.asarray(confusion, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidProbabilityError(
            f"confusion matrix must be square, got shape {matrix.shape}")
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size <= 1:
        return 0.0
    return float(np.sqrt(np.sum(singular[1:] ** 2)))


def error_rate(confusion: np.ndarray,
               priors: np.ndarray | None = None) -> float:
    """Off-diagonal mass of ``confusion`` weighted by the label priors.

    This is the sloppy-worker error rate ``e_w`` of §5.3: the probability
    that the worker answers incorrectly, under the given prior over true
    labels (uniform when ``priors`` is ``None``).
    """
    matrix = np.asarray(confusion, dtype=float)
    m = matrix.shape[0]
    if priors is None:
        priors = np.full(m, 1.0 / m)
    priors = np.asarray(priors, dtype=float)
    per_label_error = 1.0 - np.diag(matrix)
    return float(np.dot(priors, per_label_error))


def accuracy(confusion: np.ndarray,
             priors: np.ndarray | None = None) -> float:
    """Prior-weighted probability of a correct answer (1 − error rate)."""
    return 1.0 - error_rate(confusion, priors)


def _validated_answers(encoded: EncodedAnswers,
                       validation: ExpertValidation,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Answer positions on validated objects, and each one's expert label.

    The gather touches only the validated objects' answers, never all
    ``A``.
    """
    # em_kernel imports this module, so import it at call time.
    from repro.core.em_kernel import object_positions

    positions, counts = object_positions(encoded,
                                         validation.validated_indices())
    return positions, np.repeat(validation.validated_labels(), counts)


def validated_confusion_counts(encoded: EncodedAnswers,
                               validation: ExpertValidation) -> np.ndarray:
    """Per-worker confusion *counts* over expert-validated objects only.

    Returns a ``k × m × m`` integer array where entry ``(w, l, l')`` counts
    how often worker ``w`` answered ``l'`` on a validated object whose
    expert-asserted label is ``l``. This is the §5.3 construction: only
    answer validations — never inferred labels — contribute, so the result
    is unbiased ground truth about each worker (at the price of sparsity
    early in the validation process).
    """
    k, m = encoded.n_workers, encoded.n_labels
    counts = np.zeros((k, m, m), dtype=np.int64)
    positions, true_labels = _validated_answers(encoded, validation)
    np.add.at(counts, (encoded.worker_index[positions], true_labels,
                       encoded.label_index[positions]), 1)
    return counts


def validated_answer_counts(encoded: EncodedAnswers,
                            validation: ExpertValidation) -> np.ndarray:
    """Number of validated answers per worker (length ``k``).

    A worker's validated-confusion evidence: how many of their answers fall
    on expert-validated objects. Detection thresholds should only be applied
    to workers with enough evidence (see Table 3's cautionary example).
    """
    positions, _ = _validated_answers(encoded, validation)
    return np.bincount(encoded.worker_index[positions],
                       minlength=encoded.n_workers)


def validated_confusions(encoded: EncodedAnswers,
                         validation: ExpertValidation,
                         smoothing: float = 0.0) -> np.ndarray:
    """Row-normalized validated confusion matrices (``k × m × m``)."""
    counts = validated_confusion_counts(encoded, validation)
    return normalize_rows(counts, smoothing=smoothing)


def sensitivity_specificity(confusion: np.ndarray) -> tuple[float, float]:
    """(sensitivity, specificity) of a *binary* confusion matrix.

    Matches Figure 1's axes: sensitivity is the probability of answering
    positive on a true positive (``F(0, 0)`` with label 0 = positive);
    specificity is ``F(1, 1)``.
    """
    matrix = np.asarray(confusion, dtype=float)
    if matrix.shape != (2, 2):
        raise InvalidProbabilityError(
            "sensitivity/specificity are defined for binary tasks; "
            f"got shape {matrix.shape}")
    return float(matrix[0, 0]), float(matrix[1, 1])
