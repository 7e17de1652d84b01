"""Core data model and probabilistic answer aggregation (paper §3–§4).

Public surface:

* :class:`~repro.core.answer_set.AnswerSet` — the quadruple ``N``.
* :class:`~repro.core.validation.ExpertValidation` — the function ``e``.
* :class:`~repro.core.probabilistic.ProbabilisticAnswerSet` — ``P``.
* :class:`~repro.core.em.DawidSkeneEM` — batch baseline aggregation (an
  ``IncrementalEM`` that always cold-starts).
* :class:`~repro.core.iem.IncrementalEM` — the paper's i-EM; every EM solve
  over a full answer set runs through its ``refine``.
* :func:`~repro.core.majority.majority_vote` — majority-voting baseline.
* Uncertainty and instantiation helpers.
"""

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.em import DawidSkeneEM
from repro.core.iem import IncrementalEM
from repro.core.instantiation import assignment_confidence, deterministic_assignment
from repro.core.majority import majority_probabilistic, majority_vote
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.uncertainty import (
    answer_set_uncertainty,
    max_entropy_object,
    normalized_uncertainty,
    object_entropies,
)
from repro.core.validation import ExpertValidation

__all__ = [
    "MISSING",
    "AnswerSet",
    "DawidSkeneEM",
    "ExpertValidation",
    "IncrementalEM",
    "ProbabilisticAnswerSet",
    "answer_set_uncertainty",
    "assignment_confidence",
    "deterministic_assignment",
    "majority_probabilistic",
    "majority_vote",
    "max_entropy_object",
    "normalized_uncertainty",
    "object_entropies",
]
