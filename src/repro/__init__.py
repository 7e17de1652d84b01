"""repro — a reproduction of "Minimizing Efforts in Validating Crowd Answers"
(Nguyen Quoc Viet Hung et al., SIGMOD 2015).

The library implements the paper's full system: probabilistic answer
aggregation with expert validations as first-class citizens (i-EM), expert
guidance strategies (uncertainty-driven, worker-driven, hybrid), faulty
worker detection and handling, robustness to erroneous expert input, and the
cost model trading expert validation against additional crowd answers —
plus every substrate the evaluation needs (crowd simulator, dataset
stand-ins, sparse matrix partitioning, parallel evaluation).

Quickstart
----------
>>> from repro import AnswerSet, IncrementalEM, ExpertValidation
>>> answers = AnswerSet.from_triples([
...     ("photo1", "alice", "bird"), ("photo1", "bob", "bird"),
...     ("photo2", "alice", "plane"), ("photo2", "bob", "bird"),
... ])
>>> prob_set = IncrementalEM().conclude(
...     answers, ExpertValidation.empty_for(answers))
>>> prob_set.n_objects
2
"""

from repro.core import (
    MISSING,
    AnswerSet,
    DawidSkeneEM,
    ExpertValidation,
    IncrementalEM,
    ProbabilisticAnswerSet,
    answer_set_uncertainty,
    deterministic_assignment,
    majority_vote,
)
from repro.errors import ReproError
from repro.streaming import ValidationSession
from repro.telemetry import NULL_TELEMETRY, Telemetry

__version__ = "1.1.0"

__all__ = [
    "MISSING",
    "AnswerSet",
    "DawidSkeneEM",
    "ExpertValidation",
    "IncrementalEM",
    "NULL_TELEMETRY",
    "ProbabilisticAnswerSet",
    "ReproError",
    "Telemetry",
    "ValidationSession",
    "answer_set_uncertainty",
    "deterministic_assignment",
    "majority_vote",
    "__version__",
]
