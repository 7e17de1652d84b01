"""Telemetry tour: spans, metrics, timeline, and the run manifest.

A guided walkthrough of ``repro.telemetry`` across the stack:

1. attach an enabled hub to a streaming session and watch the
   ``session.conclude`` spans, counters, and latency histogram fill in;
2. prove the instrumentation never touches the floats — the same
   session run with the default null hub lands bit-identical;
3. spawn labelled scopes and see a retry's degradation events land on
   the shared timeline;
4. round-trip the raw trace through JSONL and render the aggregated
   run manifest.

Run with::

    python examples/telemetry_tour.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.core.iem import IncrementalEM
from repro.resilience import EventLog, FaultInjector, FaultPlan, FaultSpec, \
    RetryPolicy, call_with_retry
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.streaming import ValidationSession
from repro.telemetry import (
    Telemetry,
    read_jsonl,
    render_manifest,
    run_manifest,
    write_jsonl,
)


def build_session(telemetry=None) -> ValidationSession:
    """A small streamed workload: answers arrive, experts validate."""
    crowd = simulate_crowd(
        CrowdConfig(n_objects=120, n_workers=25, n_labels=3,
                    answers_per_object=7, reliability=0.75), rng=7)
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    session = ValidationSession.from_answer_set(
        crowd.answer_set, aggregator=IncrementalEM(rng=0), **kwargs)
    session.conclude()
    for obj in range(0, 30, 3):            # a trickle of expert validations
        session.add_validation(obj, int(crowd.gold[obj]))
        session.conclude()
    return session


def main() -> None:
    print("=== 1. An instrumented streaming session ===")
    hub = Telemetry()
    session = build_session(hub)
    registry = hub.registry
    print(f"  validations counted : "
          f"{registry.counter('session.validations').value}")
    print(f"  EM iterations       : "
          f"{registry.counter('em.iterations').value} over "
          f"{registry.counter('em.calls').value} kernel calls")
    conclude_s = registry.histogram("session.conclude_seconds")
    print(f"  conclude latencies  : {conclude_s.count} observations, "
          f"mean {conclude_s.sum / conclude_s.count * 1e3:.2f} ms")

    print("\n=== 2. Telemetry never changes a float ===")
    silent = build_session()               # default: NULL_TELEMETRY
    gap = float(np.abs(session.posteriors() - silent.posteriors()).max())
    print(f"  L-inf(posteriors, instrumented vs null hub) = {gap:.1e}")
    assert gap == 0.0, "instrumentation must be bit-invisible"
    print("  bit-identical — the hub observes, it never participates")

    print("\n=== 3. Scopes and the degradation timeline ===")
    scope = hub.spawn("tour")
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="expert.fetch", kind="crash", max_fires=2),)))
    log = EventLog(telemetry=scope)
    result, trace = call_with_retry(
        lambda: "verdict", RetryPolicy(max_attempts=5, base_delay=0.0),
        site="expert.fetch", injector=injector, event_log=log,
        telemetry=scope)
    print(f"  call_with_retry -> {result!r} after {trace.attempts} attempts "
          f"({len(trace.errors)} transient failures absorbed)")
    for event in hub.events:
        print(f"  [{event.scope}] {event.kind} at {event.site} "
              f"(attempt {event.attempt})")
    retries = registry.counter("tour/resilience.retry").value
    shared = log.events[0] is hub.events[0]
    print(f"  tour/resilience.retry = {retries}  (the EventLog keeps the "
          f"timeline's own entries: {shared})")

    print("\n=== 4. JSONL trace and the run manifest ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        n_lines = write_jsonl(hub, path)
        records = read_jsonl(path)
        kinds = sorted({record["type"] for record in records})
        print(f"  wrote {n_lines} trace lines ({', '.join(kinds)})")
        assert json.loads(path.read_text().splitlines()[0])["type"]
    manifest = run_manifest(hub)
    print(render_manifest(manifest))


if __name__ == "__main__":
    main()
