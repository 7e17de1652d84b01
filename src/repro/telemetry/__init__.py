"""``repro.telemetry`` — zero-overhead-when-disabled instrumentation.

The substrate every layer reports into: a :class:`Telemetry` hub holding
a metrics registry (monotonic counters, gauges, explicit-bucket
histograms), a span tracer (nested wall-clock spans with structured
attributes), and an event timeline whose :class:`TimelineEvent` entries
are also the resilience layer's ``EventLog`` records.

Design contract:

* **Disabled is free.** Every instrumented signature defaults to
  :data:`NULL_TELEMETRY`; its instruments are shared no-op singletons,
  so the disabled cost is an attribute lookup + empty call at call
  boundaries only — never inside the E/M kernels. The overhead
  floor (≤1.02× on the streaming conclude path) is asserted in
  ``benchmarks/test_telemetry_overhead.py``.
* **Observing never perturbs.** Telemetry must not change a single
  float: posteriors and selections are bit-identical with telemetry on
  vs off across every ``ScenarioRunner`` conformance path
  (``tests/test_telemetry.py``).
* **Never persisted.** Checkpoints exclude telemetry state; restored
  sessions re-attach a hub via ``attach_telemetry`` /
  ``SessionState.restore(telemetry=...)``.

See PERFORMANCE.md ("Telemetry") for the span taxonomy and manifest
guide, and ``examples/telemetry_tour.py`` for a walkthrough.
"""

from repro.telemetry.hub import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetryScope,
    TimelineEvent,
    root_hub,
)
from repro.telemetry.manifest import (
    jsonl_records,
    read_jsonl,
    render_manifest,
    run_manifest,
    snapshot,
    span_aggregates,
    write_jsonl,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import ActiveSpan, SpanRecord, SpanTracer

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetryScope",
    "TimelineEvent",
    "root_hub",
    "jsonl_records",
    "read_jsonl",
    "render_manifest",
    "run_manifest",
    "snapshot",
    "span_aggregates",
    "write_jsonl",
    "DEFAULT_LATENCY_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ActiveSpan",
    "SpanRecord",
    "SpanTracer",
]
