"""Quickstart: aggregate crowd answers and validate them with an expert.

Reproduces the paper's Table 1 scenario end to end:

1. build an answer set from (object, worker, label) triples;
2. aggregate with majority voting and with EM — see them disagree;
3. run three guided expert validations with the hybrid strategy;
4. print the final deterministic assignment and worker reliabilities.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import AnswerSet, DawidSkeneEM, majority_vote
from repro.experts.simulated import OracleExpert
from repro.guidance import HybridStrategy
from repro.process import PrecisionReached, ValidationProcess

# The paper's Table 1: five workers label four objects with labels 1-4.
# W3 is perfectly reliable, W5 is a uniform spammer, the rest are mixed.
TRIPLES = [
    ("o1", "W1", "2"), ("o1", "W2", "3"), ("o1", "W3", "2"),
    ("o1", "W4", "2"), ("o1", "W5", "3"),
    ("o2", "W1", "3"), ("o2", "W2", "2"), ("o2", "W3", "3"),
    ("o2", "W4", "2"), ("o2", "W5", "3"),
    ("o3", "W1", "1"), ("o3", "W2", "4"), ("o3", "W3", "1"),
    ("o3", "W4", "4"), ("o3", "W5", "3"),
    ("o4", "W1", "4"), ("o4", "W2", "1"), ("o4", "W3", "2"),
    ("o4", "W4", "1"), ("o4", "W5", "3"),
]
CORRECT = {"o1": "2", "o2": "3", "o3": "1", "o4": "2"}


def main() -> None:
    answers = AnswerSet.from_triples(TRIPLES, labels=("1", "2", "3", "4"))
    gold = np.array([answers.label_index(CORRECT[o]) for o in answers.objects])

    print("=== Aggregation without an expert ===")
    mv = majority_vote(answers)
    em = DawidSkeneEM().fit(answers).map_labels()
    for i, obj in enumerate(answers.objects):
        print(f"  {obj}: correct={CORRECT[obj]}  "
              f"majority={answers.labels[mv[i]]}  em={answers.labels[em[i]]}")

    print("\n=== Guided expert validation (hybrid strategy) ===")
    process = ValidationProcess(
        answers,
        OracleExpert(gold),             # the expert knows the truth
        strategy=HybridStrategy(),
        goal=PrecisionReached(1.0),     # stop at perfect correctness
        budget=answers.n_objects,
        gold=gold,
        rng=0,
    )
    report = process.run()
    for record in report.records:
        print(f"  step {record.iteration}: validated "
              f"{answers.objects[record.object_index]} -> "
              f"{answers.labels[record.expert_label]} "
              f"({record.strategy} strategy, "
              f"precision now {record.precision:.2f})")

    print(f"\nPerfect correctness after {report.total_effort} of "
          f"{answers.n_objects} objects validated "
          f"({report.total_effort / answers.n_objects:.0%} expert effort).")

    print("\n=== Final worker reliability (diagonal of confusion matrix) ===")
    for index, worker in enumerate(answers.workers):
        diagonal = np.diag(process.prob_set.confusions[index])
        print(f"  {worker}: {diagonal.mean():.2f}")


if __name__ == "__main__":
    main()
