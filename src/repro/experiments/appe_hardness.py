"""Appendix E: empirical hardness of max joint-entropy subset selection.

The restricted effort-minimization problem (Eq. 16) is NP-hard; the
practical consequence the paper draws is that heuristics are the only
viable route. This driver quantifies it: on Gaussian-surrogate instances,
exact (exponential) subset selection is compared with greedy forward
selection — reporting the greedy/exact value ratio and the wall-clock blow
up of exactness as the subset size grows. The greedy is the CELF
lazy-greedy over an incremental Cholesky factor (the production
selector).
"""

from __future__ import annotations

import time

from repro.core.em import DawidSkeneEM
from repro.experiments.common import ExperimentResult
from repro.guidance.joint_entropy import (
    exact_max_entropy_subset,
    greedy_max_entropy_subset,
    object_covariance,
)
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.utils.rng import ensure_rng

SUBSET_SIZES = (2, 3, 4, 5, 6)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    n_objects = max(10, int(14 * min(1.0, scale)))
    generator = ensure_rng(seed)
    crowd = simulate_crowd(
        CrowdConfig(n_objects=n_objects, n_workers=12, reliability=0.65),
        rng=generator)
    prob_set = DawidSkeneEM().fit(crowd.answer_set)
    covariance = object_covariance(prob_set)
    # Untimed: the selector's first call imports scipy.linalg, which is
    # not a cost of the selection the rows compare.
    greedy_max_entropy_subset(covariance, 1)

    rows = []
    for size in SUBSET_SIZES:
        if size > n_objects:
            continue
        started = time.perf_counter()
        _, exact_value = exact_max_entropy_subset(covariance, size)
        exact_time = time.perf_counter() - started
        started = time.perf_counter()
        _, greedy_value = greedy_max_entropy_subset(covariance, size)
        greedy_time = time.perf_counter() - started
        # Differential entropies can be negative; compare via the gap.
        gap = exact_value - greedy_value
        rows.append((size, float(exact_value), float(greedy_value),
                     float(gap), exact_time, greedy_time,
                     exact_time / greedy_time if greedy_time > 0
                     else float("nan")))
    return ExperimentResult(
        experiment_id="appe",
        title="Exact vs greedy max joint-entropy subset selection",
        columns=["subset_size", "exact_H", "greedy_H", "optimality_gap",
                 "exact_s", "greedy_s", "slowdown_exact_vs_greedy"],
        rows=rows,
        metadata={"n_objects": n_objects, "seed": seed},
    )
