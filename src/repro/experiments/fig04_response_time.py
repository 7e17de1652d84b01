"""Figure 4: per-iteration response time, serial vs parallel (§6.2).

Measures the time the expert waits between providing an input and seeing
the next selected object — one iteration of Algorithm 1 with the
information-gain strategy scoring *every* candidate — for 20–50 objects,
with candidate scoring run serially and on a process pool.

Absolute numbers depend on the host (the paper used a 3.4 GHz i7); the
reproduced shape is that response time grows with the number of objects and
parallel scoring stays well under the serial time for the larger sizes.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, scaled_repeats
from repro.experts.simulated import OracleExpert
from repro.guidance.information_gain import InformationGainStrategy
from repro.parallel.executor import Executor
from repro.process.validation_process import ValidationProcess
from repro.simulation.crowd import CrowdConfig, simulate_crowd

OBJECT_COUNTS = (20, 30, 40, 50)


def _mean_step_time(crowd, mode: str, iterations: int, seed: int) -> float:
    executor = Executor(mode)
    try:
        strategy = InformationGainStrategy(executor=executor)
        process = ValidationProcess(
            crowd.answer_set, OracleExpert(crowd.gold), strategy=strategy,
            budget=iterations, gold=crowd.gold, rng=seed)
        report = process.run()
        return report.mean_step_seconds()
    finally:
        executor.close()


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    iterations = scaled_repeats(5, scale)
    rows = []
    for n_objects in OBJECT_COUNTS:
        config = CrowdConfig(n_objects=n_objects, n_workers=20,
                             reliability=0.65)
        crowd = simulate_crowd(config, rng=seed)
        serial = _mean_step_time(crowd, "serial", iterations, seed)
        parallel = _mean_step_time(crowd, "processes", iterations, seed)
        rows.append((n_objects, serial, parallel,
                     serial / parallel if parallel > 0 else float("nan")))
    return ExperimentResult(
        experiment_id="fig04",
        title="Response time per validation iteration (seconds)",
        columns=["n_objects", "serial_s", "parallel_s", "speedup"],
        rows=rows,
        metadata={"iterations_timed": iterations, "n_workers": 20,
                  "seed": seed},
    )
