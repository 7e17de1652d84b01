"""Metric catalog, summaries of raw measurements, and the compare table."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: End-to-end metrics, measured with tracing off, on every workload:
#: ``(name, unit, better)``.
#:
#: * ``wait_ms`` — how long a user waits on one operation.
#:   On guided workloads, the median Algorithm-1 step that runs the
#:   look-ahead (``lookahead_step_ms_p50``: how long the expert waits for
#:   the next question; worker-driven steps cost a few percent of one, and
#:   how many there are varies with the seed). On the stream, the mean
#:   refresh cycle (``cycle_ms_mean``): ingesting a batch of events through
#:   the WAL, then the ``conclude`` that publishes it, i.e. how stale
#:   posteriors get. A cycle's cost grows with the answers already held, so
#:   the median cycle is the one at the middle of the stream and jumps when
#:   a single refresh converges before the iteration cap; the mean is the
#:   ingest wall time over the cycles and does not.
#: * ``uncertainty_left`` — ``answer_set_uncertainty`` at the end as a share
#:   of its value at the workload's first posterior (after the cold EM on
#:   guided workloads, after the first refresh on the stream). Raw
#:   uncertainty varies with the seed's crowd far more than a change of
#:   selection moves it; the share does not.
#:
#: The campaign wall time, ingest rate, refresh latency and recovery time
#: are printed too, but not gated: on guided workloads the campaign time
#: depends on how many roulette draws pick the cheap worker-driven branch,
#: which varies with the seed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wait_ms", "ms", "lower"),
    ("precision_final", "fraction", "higher"),
    ("uncertainty_left", "fraction", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics of the traced run: ``(name, unit, better)``. A layer
#: a workload does not exercise reports 0. ``core.em_*`` come from the
#: telemetry hub's ``em.run`` span and ``em.calls``/``em.iterations``
#: counters, which cover the session's refreshes only: the look-ahead's
#: hypothetical EM solves inside ``guidance.select`` are not instrumented,
#: so their work shows only as guidance time. ``trace.coverage`` is the
#: share of step wall time (guided) or ingest wall time (stream) that the
#: timed layers explain; ``trace.remainder_s`` is the rest.
PER_LAYER = (
    ("guidance.select_ms_p50", "ms", "lower"),
    ("guidance.select_s", "s", "lower"),
    ("guidance.select_share", "fraction", "lower"),
    ("guidance.worker_branch_selects", "count", "lower"),
    ("guidance.candidates_scored", "count", "lower"),
    ("streaming.conclude_ms_p50", "ms", "lower"),
    ("streaming.conclude_s", "s", "lower"),
    ("streaming.em_iterations", "count", "lower"),
    ("streaming.refreshes", "count", "lower"),
    ("streaming.refresh_cap_hits", "count", "lower"),
    ("streaming.add_answer_us_mean", "us", "lower"),
    ("streaming.add_answer_s", "s", "lower"),
    ("streaming.add_validation_s", "s", "lower"),
    ("streaming.mask_toggles", "count", "lower"),
    ("core.em_run_s", "s", "lower"),
    ("core.em_calls", "count", "lower"),
    ("core.em_iterations", "count", "lower"),
    ("workers.detect_ms_p50", "ms", "lower"),
    ("workers.detect_s", "s", "lower"),
    ("workers.suspected", "count", "lower"),
    ("experts.validate_s", "s", "lower"),
    ("state.wal_append_us_p50", "us", "lower"),
    ("state.wal_records", "count", "lower"),
    ("state.checkpoint_ms_p50", "ms", "lower"),
    ("state.checkpoint_calls", "count", "lower"),
    ("state.checkpoint_bytes", "bytes", "lower"),
    ("state.restore_s", "s", "lower"),
    ("process.residual_ms_p50", "ms", "lower"),
    ("process.step_calls", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Values that two runs of the same workload and seed must repeat exactly.
REPEATED = ("worker_branch_selects", "selection_digest", "em_iterations",
            "refresh_cap_hits", "wal_records", "precision_final")

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(samples: list[float]) -> float | None:
    """Highest tail percentile with at least ten samples beyond it."""
    for p in _PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p
    return None


def summarize(raw: dict, kind: str) -> dict:
    """End-to-end values (contract names) plus the named report lines."""
    latency_ms = [1e3 * t for t in raw["latency_s"]]
    guided = kind == "guided"
    wait_ms = float(np.median(latency_ms) if guided else np.mean(latency_ms))
    metrics = {
        "setup_s": float(np.median(raw["setup_s"])),
        "wait_ms": wait_ms,
        "precision_final": float(raw["precision_final"]),
        "uncertainty_left": raw["uncertainty_final"] / raw["uncertainty_first"],
        "peak_rss_mb": float(raw["peak_rss_mb"]),
    }
    campaign_s = float(np.median(raw["campaign_s"]))
    lines = [("setup_s", metrics["setup_s"], "s",
              f"median of {len(raw['setup_s'])} set-ups")]
    if guided:
        step_ms = [1e3 * t for t in raw["step_s"]]
        lines += [("lookahead_step_ms_p50", wait_ms, "ms",
                   _latency_note(latency_ms)),
                  ("step_ms_p50", float(np.median(step_ms)), "ms",
                   _latency_note(step_ms) + ", all branches"),
                  ("campaign_s", campaign_s, "s",
                   f"median of {len(raw['campaign_s'])} campaigns")]
    else:
        refresh_ms = [1e3 * t for t in raw["refresh_s"]]
        lines += [("cycle_ms_mean", wait_ms, "ms",
                   f"{len(latency_ms)} cycles; median "
                   f"{np.median(latency_ms):.3f} ms"),
                  ("refresh_ms_p50", float(np.median(refresh_ms)), "ms",
                   _latency_note(refresh_ms)),
                  ("ingest_answers_per_s",
                   float(np.median(raw["ingest_answers_per_s"])),
                   "answers/s", f"ingest wall {campaign_s:.3f} s"),
                  ("recovery_s", float(np.median(raw["recovery_s"])), "s",
                   "open the store + restore()")]
    lines += [("precision_final", metrics["precision_final"], "fraction", ""),
              ("uncertainty_final", raw["uncertainty_final"], "nats",
               f"first posterior: {raw['uncertainty_first']:.6g} nats"),
              ("uncertainty_left", metrics["uncertainty_left"], "fraction",
               ""),
              ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
              ("failed_ops_ratio", raw["failed"] / max(raw["attempted"], 1),
               "fraction", f"{raw['failed']} of {raw['attempted']} failed")]
    return {"metrics": metrics, "lines": lines}


def _latency_note(latency_ms: list[float]) -> str:
    note = f"n={len(latency_ms)}"
    p = tail_percentile(latency_ms)
    if p is None:
        return note + "; no higher percentile has 10 samples beyond it"
    return note + f"; p{p:g}={np.percentile(latency_ms, p):.3f} ms"


def layer_metrics(layers: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric; layers the workload skips report 0."""
    busy, wall = layers.pop("trace.busy_s"), layers.pop("trace.wall_s")
    layers.update({"trace.coverage": busy / wall,
                   "trace.remainder_s": wall - busy,
                   "trace.overhead_ratio": overhead_ratio})
    return {name: float(layers.get(name, 0.0)) for name, _, _ in PER_LAYER}


def with_units(values: dict, catalog) -> dict:
    units = {entry[0]: entry[1] for entry in catalog}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def render(record: dict) -> str:
    """Human-readable block for one workload record."""
    env = record["env"]
    out = [f"== {record['workload']} seed={record['seed']} "
           f"trace={record['trace']} size={record['size']} ==",
           "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
           "params: " + " ".join(f"{k}={v}"
                                 for k, v in record["params"].items())]
    if record["trace"]:
        out.append("per-layer (traced run):")
        for name, entry in record["metrics"].items():
            out.append(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}")
    else:
        out.append("end-to-end (tracing off):")
        for name, value, unit, note in record["lines"]:
            out.append(f"  {name:<22} {value:>14.6g} {unit:<10} {note}")
    out.append("counts: " + " ".join(f"{k}={v}"
                                     for k, v in record["counts"].items()))
    for failure in record["failures"]:
        out.append(f"FAILED CHECK: {failure}")
    return "\n".join(out)


def load_records(path: Path) -> list[dict]:
    """The records a run wrote with ``--out``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare(path_a: Path, path_b: Path) -> str:
    """Per-workload rows of metric deltas between two result files."""
    b_rows = {(r["workload"], r["trace"]): r for r in load_records(path_b)}
    better = {name: direction for name, _, direction
              in END_TO_END + PER_LAYER}
    out = [f"{'workload':<18} {'metric':<32} {'a':>14} {'b':>14} "
           f"{'b-a':>14} {'change':>9}"]
    for a in load_records(path_a):
        b = b_rows.get((a["workload"], a["trace"]))
        if b is None:
            out.append(f"{a['workload']:<18} (trace={a['trace']}) only in a")
            continue
        for name, entry in a["metrics"].items():
            if name not in b["metrics"]:
                continue
            va, vb = entry["value"], b["metrics"][name]["value"]
            change = (vb - va) / abs(va) if va else math.nan
            verdict = ""
            if va != vb:
                worse = vb > va if better[name] == "lower" else vb < va
                verdict = " worse" if worse else " better"
            out.append(f"{a['workload']:<18} {name:<32} {va:>14.6g} "
                       f"{vb:>14.6g} {vb - va:>14.6g} {change:>+8.1%}"
                       f"{verdict}")
        for key in REPEATED:
            ca, cb = a["counts"].get(key), b["counts"].get(key)
            if ca != cb:
                out.append(f"{a['workload']:<18} count {key} differs: "
                           f"{ca} vs {cb}")
    return "\n".join(out)
