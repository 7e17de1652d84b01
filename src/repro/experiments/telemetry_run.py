"""Telemetry run-manifest driver (observability, beyond the paper).

Runs one registry scenario through the full differential harness
(:class:`~repro.scenarios.runner.ScenarioRunner` — batch, streaming,
ingest, crash/resume, replay-under-faults) with an enabled
:class:`~repro.telemetry.Telemetry` hub, then renders the run manifest:
top spans by self-time, the metric table, and the degradation timeline.

Artifacts (written into ``REPRO_TELEMETRY_DIR``, default the working
directory — the CI telemetry job uploads both):

* ``TELEMETRY_trace.jsonl`` — the raw trace, one span/metric/event per
  line (:func:`~repro.telemetry.write_jsonl`);
* ``TELEMETRY_manifest.json`` — the aggregated manifest plus the
  ``BENCH_guidance.json``-style snapshot envelope.

``REPRO_TELEMETRY_SCENARIO`` picks the scenario (default
``reliability-drift``). The rows of the returned
:class:`~repro.experiments.common.ExperimentResult` are the manifest's
top-span table, so ``python -m repro.experiments run telemetry`` prints
exactly what the artifact contains.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments.common import ExperimentResult
from repro.scenarios.registry import compile_registered
from repro.scenarios.runner import ScenarioRunner
from repro.telemetry import (
    Telemetry,
    render_manifest,
    run_manifest,
    snapshot,
    write_jsonl,
)

TRACE_NAME = "TELEMETRY_trace.jsonl"
MANIFEST_NAME = "TELEMETRY_manifest.json"
DEFAULT_SCENARIO = "reliability-drift"


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """``scale`` is accepted for registry uniformity (one scenario runs
    either way); the scenario and output directory come from the
    ``REPRO_TELEMETRY_SCENARIO`` / ``REPRO_TELEMETRY_DIR`` environment."""
    scenario_name = os.environ.get("REPRO_TELEMETRY_SCENARIO",
                                   DEFAULT_SCENARIO)
    out_dir = Path(os.environ.get("REPRO_TELEMETRY_DIR", "."))

    telemetry = Telemetry()
    runner = ScenarioRunner(seed=seed, telemetry=telemetry)
    scenario = compile_registered(scenario_name)
    outcome = runner.run(scenario, lookahead="exact")

    n_lines = write_jsonl(telemetry, out_dir / TRACE_NAME)
    manifest = run_manifest(telemetry)
    (out_dir / MANIFEST_NAME).write_text(json.dumps(
        {"artifact": "telemetry-run-manifest",
         "scenario": scenario_name,
         "manifest": manifest,
         "snapshot": snapshot(telemetry, timestamp=time.time()),
         "rendered": render_manifest(manifest)},
        indent=1, sort_keys=True), encoding="utf-8")

    rows = [(row["span"], row["count"], row["total_s"], row["self_s"],
             row["max_s"]) for row in manifest["top_spans"]]
    return ExperimentResult(
        experiment_id="telemetry",
        title=f"Telemetry run manifest: {scenario_name} through all five "
              f"runner paths",
        columns=["span", "count", "total_s", "self_s", "max_s"],
        rows=rows,
        metadata={
            "scenario": scenario_name,
            "seed": seed,
            "n_spans": manifest["n_spans"],
            "n_trace_lines": n_lines,
            "n_timeline_events": len(manifest["timeline"]),
            "stream_linf": float(
                outcome.streaming_divergence.max_abs_posterior_gap),
            "fault_linf": float(
                outcome.fault_divergence.max_abs_posterior_gap),
            "trace": str(out_dir / TRACE_NAME),
            "manifest": str(out_dir / MANIFEST_NAME),
        },
    )
