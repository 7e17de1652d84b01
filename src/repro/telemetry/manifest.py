"""Exports: JSONL traces, aggregated snapshots, and run manifests.

Three projections of one hub:

* :func:`write_jsonl` / :func:`read_jsonl` — the raw trace, one typed
  JSON object per line (``span`` / ``counter`` / ``gauge`` /
  ``histogram`` / ``event``), lossless and round-trippable.
* :func:`snapshot` — an aggregated JSON document following the
  ``BENCH_guidance.json`` conventions (a ``{"benchmark": ...,
  "runs": [{"timestamp": ..., <sections>}]}`` envelope), so telemetry
  snapshots can sit next to bench trajectories and be diffed the same
  way.
* :func:`run_manifest` / :func:`render_manifest` — the human-facing
  summary: top spans by self-time, the metric table, and the
  degradation timeline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.hub import Telemetry, root_hub


def _hub(telemetry) -> Telemetry:
    hub = root_hub(telemetry)
    if hub is None:
        raise TypeError(
            f"cannot export from {type(telemetry).__name__}; pass an "
            "enabled Telemetry hub (NullTelemetry records nothing)")
    return hub


def jsonl_records(telemetry) -> list[dict]:
    """Every span, metric, and timeline event as JSON-ready dicts."""
    hub = _hub(telemetry)
    records = [span.to_dict() for span in hub.tracer.records]
    records.extend(metric.to_dict() for metric in hub.registry)
    records.extend(event.to_dict() for event in hub.events)
    return records


def write_jsonl(telemetry, path: str | Path) -> int:
    """Write the raw trace; returns the number of lines written."""
    records = jsonl_records(telemetry)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a trace back into the dicts :func:`jsonl_records` produced."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def span_aggregates(telemetry) -> dict[str, dict]:
    """Per-(scope, name) span statistics including self-time.

    Self-time is a span's duration minus its direct children's — the
    wall-clock actually spent at that level rather than delegated. Keys
    are ``"scope/name"`` (or bare ``name`` at root scope), sorted by
    descending total self-time.
    """
    hub = _hub(telemetry)
    records = hub.tracer.records
    child_time: dict[int, float] = {}
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration)

    stats: dict[str, dict] = {}
    for record in records:
        key = f"{record.scope}/{record.name}" if record.scope \
            else record.name
        self_time = record.duration - child_time.get(record.span_id, 0.0)
        entry = stats.get(key)
        if entry is None:
            entry = stats[key] = {
                "count": 0, "total_s": 0.0, "self_s": 0.0,
                "min_s": float("inf"), "max_s": 0.0}
        entry["count"] += 1
        entry["total_s"] += record.duration
        entry["self_s"] += self_time
        entry["min_s"] = min(entry["min_s"], record.duration)
        entry["max_s"] = max(entry["max_s"], record.duration)
    return dict(sorted(stats.items(),
                       key=lambda item: -item[1]["self_s"]))


def snapshot(telemetry, timestamp: float | None = None) -> dict:
    """Aggregated snapshot in the ``BENCH_guidance.json`` envelope."""
    hub = _hub(telemetry)
    run = {"timestamp": timestamp,
           "spans": span_aggregates(hub),
           "metrics": hub.registry.snapshot(),
           "events": [event.to_dict() for event in hub.events]}
    return {"benchmark": "telemetry", "runs": [run]}


def run_manifest(telemetry, top: int = 20) -> dict:
    """The run manifest: top spans by self-time, metrics, timeline."""
    hub = _hub(telemetry)
    aggregates = span_aggregates(hub)
    top_spans = [{"span": key, **entry}
                 for key, entry in list(aggregates.items())[:top]]
    return {"top_spans": top_spans,
            "n_spans": len(hub.tracer.records),
            "metrics": hub.registry.snapshot(),
            "timeline": [event.to_dict() for event in hub.events]}


def render_manifest(manifest: dict) -> str:
    """Plain-text rendering of :func:`run_manifest` output."""
    lines = ["== run manifest =="]

    lines.append("")
    lines.append(f"-- top spans by self-time "
                 f"({manifest['n_spans']} spans total) --")
    header = (f"{'span':<42} {'count':>6} {'total_s':>10} "
              f"{'self_s':>10} {'max_s':>10}")
    lines.append(header)
    for row in manifest["top_spans"]:
        lines.append(f"{row['span']:<42} {row['count']:>6} "
                     f"{row['total_s']:>10.4f} {row['self_s']:>10.4f} "
                     f"{row['max_s']:>10.4f}")

    metrics = manifest["metrics"]
    lines.append("")
    lines.append("-- metrics --")
    for name, value in metrics["counters"].items():
        lines.append(f"counter    {name:<46} {value}")
    for name, value in metrics["gauges"].items():
        lines.append(f"gauge      {name:<46} {value}")
    for name, hist in metrics["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        lines.append(f"histogram  {name:<46} n={hist['count']} "
                     f"mean={mean:.6f}s")

    lines.append("")
    lines.append(f"-- timeline ({len(manifest['timeline'])} events) --")
    for event in manifest["timeline"]:
        key = "" if event["key"] is None else f" key={event['key']}"
        lines.append(f"t={event['time']:.4f} [{event['kind']}] "
                     f"{event['site']}{key} {event['detail']}".rstrip())
    return "\n".join(lines)
