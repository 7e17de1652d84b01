"""Figure 13: allocating a fixed budget between crowd and expert (§6.8).

For budget ratios ρ ∈ {0.3, 0.4, 0.5} at θ = 25, sweeps the crowd share of
the budget and reports the final precision. Reproduced shape: for each ρ
there is an interior optimum — a split that beats both spending everything
on the crowd (the WO special case at 100 %) and starving the crowd to pay
the expert.
"""

from __future__ import annotations

from repro.costmodel.allocation import allocation_curve
from repro.experiments.common import ExperimentResult, scaled_repeats
from repro.experiments.fig12_cost_tradeoff import _pool_config
from repro.simulation.crowd import simulate_crowd
from repro.utils.rng import ensure_rng, split_rng

import numpy as np

RHOS = (0.3, 0.4, 0.5)
THETA = 25.0
SHARES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    repeats = scaled_repeats(3, scale)
    generator = ensure_rng(seed)
    config = _pool_config(scale)
    rows: list[tuple] = []
    meta: dict[str, object] = {"theta": THETA, "repeats": repeats,
                               "n_objects": config.n_objects, "seed": seed}
    for rho in RHOS:
        share_precisions: dict[float, list[float]] = {}
        for stream in split_rng(generator, repeats):
            crowd = simulate_crowd(config, rng=stream)
            for point in allocation_curve(crowd, rho, THETA, SHARES,
                                          rng=stream):
                share_precisions.setdefault(point.crowd_share, []).append(
                    point.precision)
        averaged = [(share, float(np.mean(values)))
                    for share, values in sorted(share_precisions.items())]
        best_share = max(averaged, key=lambda item: item[1])[0]
        for share, precision in averaged:
            rows.append((rho, round(share * 100, 1), precision,
                         "optimal" if share == best_share else ""))
        meta[f"rho_{rho}_best_share_%"] = round(best_share * 100, 1)
    return ExperimentResult(
        experiment_id="fig13",
        title="Final precision vs crowd share of a fixed budget",
        columns=["rho", "crowd_share_%", "precision", "note"],
        rows=rows,
        metadata=meta,
    )
