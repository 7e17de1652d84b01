"""Figure 1: characterization of worker types (paper §2).

Simulates a community holding every worker type on a binary task and plots
each worker in sensitivity/specificity space: reliable workers cluster in
the top-right, normal workers below them, sloppy workers near the middle,
random spammers around (0.5, 0.5), and uniform spammers at the axis corners
(sensitivity 0 / specificity 1 or vice versa).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, scaled_repeats
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.workers.reliability import worker_stats
from repro.workers.types import WorkerType


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    n_per_type = scaled_repeats(12, scale)
    population = {worker_type: 0.2 for worker_type in WorkerType}
    config = CrowdConfig(
        n_objects=200, n_workers=5 * n_per_type, n_labels=2,
        reliability=0.7, population=population)
    crowd = simulate_crowd(config, rng=seed)
    stats = worker_stats(crowd.answer_set, crowd.gold)
    sens_spec = stats.sensitivity_specificity()
    rows = [
        (crowd.worker_types[w].value,
         float(sens_spec[w, 1]),   # specificity — Figure 1's x-axis
         float(sens_spec[w, 0]),   # sensitivity — Figure 1's y-axis
         float(stats.accuracy[w]))
        for w in range(crowd.answer_set.n_workers)
    ]
    rows.sort(key=lambda row: row[0])
    return ExperimentResult(
        experiment_id="fig01",
        title="Worker-type characterization (specificity vs sensitivity)",
        columns=["worker_type", "specificity", "sensitivity", "accuracy"],
        rows=rows,
        metadata={"n_workers": crowd.answer_set.n_workers,
                  "n_objects": 200, "seed": seed},
    )
