"""Adversarial-scenario conformance matrix (beyond the paper's figures).

Runs every registered scenario (:mod:`repro.scenarios.registry`) through
the differential harness under both guidance look-ahead modes, and
tabulates per-scenario quality, cross-path divergence, and
spammer-detection precision/recall. The rows double as a health
dashboard: a non-zero ``stream_linf`` anywhere means the streaming
engine's bit-for-bit contract broke, and a non-zero ``ingest_linf`` means
a session fed the answer stream no longer matches one seeded from the
matrix.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.guidance.information_gain import LOOKAHEAD_MODES
from repro.scenarios.registry import compile_registered, scenario_names
from repro.scenarios.runner import ScenarioRunner


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """``scale < 1`` runs the exact look-ahead only (half the matrix)."""
    lookaheads = LOOKAHEAD_MODES if scale >= 1.0 else ("exact",)
    runner = ScenarioRunner(seed=seed)
    rows: list[tuple] = []
    for name in scenario_names():
        scenario = compile_registered(name)
        for lookahead in lookaheads:
            outcome = runner.run(scenario, lookahead)
            s = outcome.summary()
            rows.append((
                name, lookahead,
                s["initial_precision"], s["final_precision"],
                s["effort"],
                s["stream_linf"], s["ingest_linf"],
                s["detection_precision"], s["detection_recall"],
            ))
    return ExperimentResult(
        experiment_id="scen",
        title="Adversarial scenarios: cross-path conformance and detection",
        columns=["scenario", "lookahead", "P0", "Pf", "effort",
                 "stream_linf", "ingest_linf", "det_precision",
                 "det_recall"],
        rows=rows,
        metadata={"scale": scale, "seed": seed,
                  "n_scenarios": len(scenario_names()),
                  "lookaheads": list(lookaheads)},
    )
