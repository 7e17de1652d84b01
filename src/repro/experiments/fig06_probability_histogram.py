"""Figure 6: distribution of the correct label's probability (§6.4).

For the val dataset and expert efforts of 0 %, 15 %, and 30 %, tracks the
assignment probability ``U(o, g(o))`` that i-EM gives the *actually
correct* label of each object, binned into a histogram. With more expert
input the mass must shift from the middle bins toward 1.0 — the paper's
evidence that validations sharpen the aggregation beyond the validated
objects themselves.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, baseline_strategy
from repro.experts.simulated import OracleExpert
from repro.process.validation_process import ValidationProcess
from repro.simulation.realworld import load_dataset
from repro.utils.rng import ensure_rng

EFFORTS = (0.0, 0.15, 0.30)
BINS = np.round(np.arange(0.0, 1.0001, 0.1), 3)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    dataset = load_dataset("val")
    answers, gold = dataset.answer_set, dataset.gold
    n = answers.n_objects
    generator = ensure_rng(seed)

    process = ValidationProcess(
        answers, OracleExpert(gold), strategy=baseline_strategy(),
        budget=n, gold=gold, rng=generator)
    histograms: dict[float, np.ndarray] = {}
    for effort in EFFORTS:
        target = int(round(effort * n))
        while process.effort < target and not process.is_done():
            process.step()
        probabilities = process.prob_set.correct_label_probabilities(gold)
        counts, _ = np.histogram(probabilities, bins=BINS)
        histograms[effort] = counts / n * 100.0

    rows = []
    for b in range(BINS.size - 1):
        rows.append((
            f"[{BINS[b]:.1f},{BINS[b + 1]:.1f})",
            *(float(histograms[e][b]) for e in EFFORTS),
        ))
    return ExperimentResult(
        experiment_id="fig06",
        title="Correct-label probability histogram (% of objects), val",
        columns=["probability_bin", "effort_0%", "effort_15%", "effort_30%"],
        rows=rows,
        metadata={"dataset": "val", "seed": seed},
    )
