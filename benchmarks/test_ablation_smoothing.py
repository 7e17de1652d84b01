"""Ablation: M-step smoothing (EM regularization).

Sweeps the confusion-count pseudo-count and reports initial aggregation
precision and normalized uncertainty on a synthetic crowd — making the
overconfidence trade-off (sharper posteriors vs truthful uncertainty)
visible as data.
"""

import numpy as np

from repro.core.em import DawidSkeneEM
from repro.core.uncertainty import normalized_uncertainty
from repro.metrics.evaluation import precision
from repro.simulation.crowd import CrowdConfig, simulate_crowd

SMOOTHINGS = (0.0, 0.01, 0.1, 1.0, 3.0)


def test_ablation_smoothing(benchmark, report_result):
    def ablate():
        rows = []
        for smoothing in SMOOTHINGS:
            precisions, uncertainties = [], []
            for seed in range(5):
                crowd = simulate_crowd(
                    CrowdConfig(50, 20, reliability=0.7), rng=seed)
                prob_set = DawidSkeneEM(smoothing=smoothing).fit(
                    crowd.answer_set)
                precisions.append(
                    precision(prob_set.map_labels(), crowd.gold))
                uncertainties.append(normalized_uncertainty(prob_set))
            rows.append((smoothing, float(np.mean(precisions)),
                         float(np.mean(uncertainties))))
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    from repro.experiments.common import ExperimentResult
    report_result(ExperimentResult(
        experiment_id="ablation_smoothing",
        title="EM smoothing: precision vs reported uncertainty",
        columns=["smoothing", "precision", "norm_uncertainty"],
        rows=rows))
    # Uncertainty grows monotonically with smoothing; precision stays
    # within a few points across the sweep.
    uncertainties = [row[2] for row in rows]
    assert all(b >= a - 1e-9
               for a, b in zip(uncertainties, uncertainties[1:]))
    precisions = [row[1] for row in rows]
    assert max(precisions) - min(precisions) < 0.25
