"""Interactive answer validation — a terminal version of the paper's tool.

Mirrors the crowdvalidator GUI referenced in §6.7: the system aggregates
crowd answers, picks the most beneficial object to validate, shows the vote
distribution and the aggregated answer, and asks *you* (the expert) for the
correct label. Type the label, press enter, and watch the probabilistic
answer set sharpen. Press 'q' to stop and print the final assignment.

By default validates a small simulated sentiment campaign; pass a response
file (``object<TAB>worker<TAB>label`` per line) to validate your own data::

    python examples/interactive_validation.py [responses.tsv]
"""

from __future__ import annotations

import sys

from repro.core.answer_set import AnswerSet
from repro.core.uncertainty import answer_set_uncertainty
from repro.experts.simulated import CallbackExpert
from repro.guidance import MaxEntropyStrategy
from repro.io import load_answer_files
from repro.process import ValidationProcess
from repro.simulation import CrowdConfig, simulate_crowd


def _demo_answer_set() -> AnswerSet:
    crowd = simulate_crowd(
        CrowdConfig(n_objects=12, n_workers=8, reliability=0.7), rng=3)
    return crowd.answer_set


class _Quit(Exception):
    """The expert pressed 'q'."""


def _ask_human(answers: AnswerSet):
    def ask(obj: int, context) -> int:
        name = answers.objects[obj]
        votes = answers.vote_counts()[obj]
        beliefs = context["beliefs"]
        print(f"\nObject {name}:")
        for code, label in enumerate(answers.labels):
            print(f"  {label}: {int(votes[code])} votes, "
                  f"aggregated belief {beliefs[code]:.2f}")
        aggregated = answers.labels[int(context["aggregated"])]
        while True:
            raw = input(f"Correct label for {name} "
                        f"[{'/'.join(answers.labels)}, "
                        f"enter=confirm '{aggregated}', q=stop]: ").strip()
            if raw == "q":
                raise _Quit
            if raw == "":
                return int(context["aggregated"])
            if raw in answers.labels:
                return answers.label_index(raw)
            print(f"  unknown label {raw!r}")
    return ask


def main() -> None:
    if len(sys.argv) > 1:
        answers, _gold = load_answer_files(sys.argv[1])
        print(f"Loaded {answers.n_answers} answers for "
              f"{answers.n_objects} objects from {sys.argv[1]}")
    else:
        answers = _demo_answer_set()
        print("No response file given — validating a simulated campaign "
              f"({answers.n_objects} objects x {answers.n_workers} workers).")

    process = ValidationProcess(
        answers,
        CallbackExpert(_ask_human(answers)),
        strategy=MaxEntropyStrategy(),
        budget=answers.n_objects,
        rng=0,
    )
    print(f"Initial uncertainty: "
          f"{answer_set_uncertainty(process.prob_set):.2f}")
    try:
        while not process.is_done():
            record = process.step()
            print(f"  -> uncertainty now {record.uncertainty:.2f}")
    except (_Quit, KeyboardInterrupt, EOFError):
        print("\nStopping early at your request.")

    print("\nFinal assignment:")
    assignment = process.current_assignment()
    validated = process.validation
    for i, obj in enumerate(answers.objects):
        marker = " (expert)" if validated.is_validated(i) else ""
        print(f"  {obj}: {answers.labels[assignment[i]]}{marker}")


if __name__ == "__main__":
    main()
