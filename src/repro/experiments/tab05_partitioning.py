"""Table 5: start-up time of sparse matrix partitioning (§6.2).

The paper posts 16 000 questions to 1 000 workers, caps each worker at
10/20/40/60 answers, and reports the seconds METIS-style partitioning takes
before the validation process starts. We reproduce the same workload with
the spectral partitioner; ``scale`` shrinks the matrix proportionally so
benches stay fast.
"""

from __future__ import annotations

import time

from repro.core.em_kernel import encode_answers
from repro.experiments.common import ExperimentResult
from repro.partitioning.partitioner import MatrixPartitioner
from repro.simulation.crowd import CrowdConfig, simulate_crowd

ANSWERS_PER_WORKER = (10, 20, 40, 60)

#: Full-size workload from the paper.
FULL_OBJECTS = 16_000
FULL_WORKERS = 1_000


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    n_objects = max(200, int(FULL_OBJECTS * scale))
    n_workers = max(50, int(FULL_WORKERS * scale))
    rows = []
    for per_worker in ANSWERS_PER_WORKER:
        config = CrowdConfig(
            n_objects=n_objects, n_workers=n_workers,
            max_answers_per_worker=per_worker)
        crowd = simulate_crowd(config, rng=seed)
        started = time.perf_counter()
        partition = MatrixPartitioner(50, seed=seed).partition(
            encode_answers(crowd.answer_set))
        elapsed = time.perf_counter() - started
        rows.append((
            per_worker,
            elapsed,
            partition.n_blocks,
            round(partition.mean_density(), 4),
            round(crowd.answer_set.density, 4),
        ))
    return ExperimentResult(
        experiment_id="tab05",
        title="Matrix-partitioning start-up time vs per-worker load",
        columns=["answers_per_worker", "time_s", "n_blocks",
                 "block_density", "matrix_density"],
        rows=rows,
        metadata={"n_objects": n_objects, "n_workers": n_workers,
                  "max_block": 50, "seed": seed},
    )
