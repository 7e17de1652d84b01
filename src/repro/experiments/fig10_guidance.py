"""Figure 10: effectiveness of hybrid guidance on bb, rte, val (§6.6).

For each dataset, runs the validation process to perfect precision with the
hybrid strategy and with the max-entropy baseline, averaging precision over
repeated runs, plus the relative precision-improvement summary (the
figure's fourth panel). The reproduced shape: hybrid dominates the baseline
at every effort level, reaching ≥0.95 precision with a fraction of the
baseline's effort.
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_STRATEGIES,
    EFFORT_GRID,
    ExperimentResult,
    guidance_comparison,
    scaled_budget,
    scaled_repeats,
)
from repro.simulation.realworld import load_dataset
from repro.utils.rng import ensure_rng

DATASETS = ("bb", "rte", "val")


def run(scale: float = 1.0, seed: int = 0,
        datasets: tuple[str, ...] = DATASETS) -> ExperimentResult:
    generator = ensure_rng(seed)
    rows = []
    meta: dict[str, object] = {"seed": seed}
    for name in datasets:
        dataset = load_dataset(name)
        answers, gold = dataset.answer_set, dataset.gold
        repeats = scaled_repeats(3 if answers.n_objects <= 300 else 1, scale)
        budget = scaled_budget(answers.n_objects, scale)
        curves = guidance_comparison(
            answers, gold, DEFAULT_STRATEGIES, repeats, budget, generator)
        p0 = float(curves["__initial__"][0])
        for i, effort in enumerate(EFFORT_GRID):
            baseline = float(curves["baseline"][i])
            hybrid = float(curves["hybrid"][i])
            improvement = (hybrid - p0) / max(1e-9, 1.0 - p0) * 100.0
            rows.append((name, round(float(effort) * 100, 1), baseline,
                         hybrid, improvement))
        meta[f"{name}_initial"] = round(p0, 4)
        meta[f"{name}_repeats"] = repeats
        meta[f"{name}_budget"] = budget
    return ExperimentResult(
        experiment_id="fig10",
        title="Guidance effectiveness: hybrid vs baseline precision",
        columns=["dataset", "effort_%", "baseline_precision",
                 "hybrid_precision", "hybrid_improvement_%"],
        rows=rows,
        metadata=meta,
    )
