"""Majority voting — the folk aggregation baseline (paper §2, Table 1).

Majority voting picks, per object, the label with the most worker votes. It
ignores worker reliability entirely, which is exactly the weakness the
paper's Table 1 example illustrates (object ``o4`` gets the wrong label and
``o3`` is a tie). Provided both as a baseline aggregator and as the standard
initialization for EM.
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.confusion import normalize_rows
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.validation import ExpertValidation
from repro.utils.rng import ensure_rng


def majority_vote(answer_set: AnswerSet,
                  *,
                  tie_break: str = "lowest",
                  rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Per-object majority labels.

    Parameters
    ----------
    tie_break:
        ``"lowest"`` picks the smallest label code among the tied leaders
        (deterministic); ``"random"`` picks uniformly among them using
        ``rng``. Objects with no answers at all are treated as an m-way tie.

    Returns
    -------
    numpy.ndarray
        Length-``n`` vector of label codes.
    """
    counts = answer_set.vote_counts()
    if tie_break == "lowest":
        return np.argmax(counts, axis=1)
    if tie_break != "random":
        raise ValueError(f"unknown tie_break {tie_break!r}")
    generator = ensure_rng(rng)
    best = counts.max(axis=1, keepdims=True)
    winners = counts == best
    choices = np.empty(answer_set.n_objects, dtype=np.int64)
    for i in range(answer_set.n_objects):
        tied = np.flatnonzero(winners[i])
        choices[i] = tied[0] if tied.size == 1 else generator.choice(tied)
    return choices


def majority_probabilistic(answer_set: AnswerSet,
                           validation: ExpertValidation | None = None,
                           ) -> ProbabilisticAnswerSet:
    """Majority voting expressed as a probabilistic answer set.

    Assignment rows are normalized vote shares (uniform when an object has
    no votes); validated objects are clamped to one-hot expert labels; each
    worker's confusion matrix is counted against the majority labels. This
    gives the baselines the same interface as the EM aggregators.
    """
    if validation is None:
        validation = ExpertValidation.empty_for(answer_set)
    counts = answer_set.vote_counts().astype(float)
    assignment = normalize_rows(counts)
    validated = validation.validated_indices()
    if validated.size:
        assignment[validated, :] = 0.0
        assignment[validated, validation.validated_labels()] = 1.0

    majority = np.argmax(counts, axis=1)
    truth = np.where(validation.as_array() != MISSING,
                     validation.as_array(), majority)
    k, m = answer_set.n_workers, answer_set.n_labels
    conf_counts = np.zeros((k, m, m), dtype=float)
    rows, cols = np.nonzero(answer_set.matrix != MISSING)
    np.add.at(conf_counts,
              (cols, truth[rows], answer_set.matrix[rows, cols]), 1.0)
    confusions = normalize_rows(conf_counts)
    priors = assignment.mean(axis=0) if answer_set.n_objects else \
        np.full(m, 1.0 / m)
    priors = priors / priors.sum()
    return ProbabilisticAnswerSet(
        encoded=em_kernel.encode_answers(answer_set),
        validation=validation.copy(),
        assignment=assignment,
        confusions=confusions,
        priors=priors,
        n_em_iterations=0,
    )
