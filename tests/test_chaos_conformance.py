"""Chaos conformance: replay under injected faults, registry-wide.

The acceptance contract of the resilience layer (path 5 of the
differential harness):

* **transient-only faults are invisible** — for every registered
  scenario, a replay under the default transient chaos schedule (crashed
  refinement, flaky expert, checkpoint IO error, slow shard) produces a
  final posterior bit-equal (L∞ = 0.0) to the fault-free streaming
  replay, while at least one fault demonstrably fired;
* **corruption degrades, it does not kill** — a corrupt newest
  checkpoint at restore time is scanned back to the prior valid one and
  the replay still lands bit-equal, with the scan-back recorded as a
  typed degradation event;
* **a poisoned shard is quarantined, not fatal** — a shard that fails
  permanently past its failure budget yields ``quarantine`` and
  ``fallback-exact`` degradation events and a completed replay, never an
  exception.

Every test deposits its degradation record, and with
``REPRO_BENCH_RECORD=1`` the records are written to ``CHAOS_events.json``
at the repo root (at module teardown, partial results included), so the
CI chaos job can upload what actually fired as a build artifact. Without
it the tracked file is left alone: a partial run (``-k``, ``-x``, one
node id) must not replace it with a partial artifact.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import (FaultInjector, FaultPlan, FaultSpec,
                              RetryPolicy, transient_chaos_plan)
from repro.scenarios import ScenarioRunner, compile_registered, scenario_names
from repro.state import FileSessionStore
from repro.telemetry import Telemetry

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "CHAOS_events.json"

#: Degradation records accumulated across tests, flushed at teardown.
_ARTIFACT: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def chaos_artifact():
    """Write ``CHAOS_events.json`` (when recording) even when only some
    tests ran/passed."""
    _ARTIFACT.clear()
    yield
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    ARTIFACT_PATH.write_text(
        json.dumps({"artifact": "chaos-degradation-events",
                    "entries": _ARTIFACT}, indent=1),
        encoding="utf-8")


def _deposit(test: str, scenario: str, replay, extra: dict | None = None):
    entry = {"test": test, "scenario": scenario,
             "n_faults_fired": replay.n_faults_fired,
             "n_degradations": replay.n_degradations,
             "fired": [fault.to_dict() for fault in replay.injector.fired],
             "events": replay.event_log.to_json()}
    entry.update(extra or {})
    _ARTIFACT.append(entry)


@lru_cache(maxsize=None)
def _recorded(name: str):
    scenario = compile_registered(name)
    runner = ScenarioRunner(seed=5)
    process, steps = runner.run_batch(scenario)
    baseline = runner.replay_streaming(scenario, steps, process.session)
    return scenario, runner, process.session, steps, baseline


# ----------------------------------------------------------------------
# Transient-only faults leave no trace in the floats — whole registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", scenario_names())
def test_transient_chaos_is_bit_invisible(name):
    scenario, runner, template, steps, baseline = _recorded(name)
    replay = runner.replay_under_faults(scenario, steps, template)
    assert replay.n_faults_fired >= 1, \
        "the chaos schedule must actually exercise the fault paths"
    assert replay.n_degradations >= 1
    linf = float(np.abs(replay.posteriors - baseline).max())
    _deposit("transient-chaos", name, replay, {"linf": linf})
    assert linf == 0.0, \
        (f"{name}: replay under transient faults diverged by {linf:.3e}; "
         f"retried operations must mask injected faults bit-for-bit")


def test_transient_chaos_survives_kills_too():
    """Faults and crash/resume composed: still L∞ = 0.0."""
    name = "colluding-clique"
    scenario, runner, template, steps, baseline = _recorded(name)
    replay = runner.replay_under_faults(scenario, steps, template, n_kills=2)
    linf = float(np.abs(replay.posteriors - baseline).max())
    _deposit("transient-chaos+kills", name, replay, {"linf": linf})
    assert linf == 0.0


# ----------------------------------------------------------------------
# Corrupt newest checkpoint at restore ⇒ scan-back, not failure
# ----------------------------------------------------------------------
def test_corrupt_checkpoint_scans_back_and_stays_bit_equal(tmp_path):
    name = "reliability-drift"
    scenario, _, template, steps, baseline = _recorded(name)
    # checkpoint_every=1 guarantees >= 2 committed checkpoints at any
    # kill boundary, so scanning past the corrupted newest always finds
    # a valid predecessor.
    runner = ScenarioRunner(seed=5, checkpoint_every=1)
    store = FileSessionStore(
        tmp_path,
        fault_injector=FaultInjector(FaultPlan(specs=(
            FaultSpec(site="filestore.segment-read", kind="corrupt"),))))
    replay = runner.replay_under_faults(
        scenario, steps, template, plan=FaultPlan(), store=store,
        n_kills=1)
    scan_backs = replay.event_log.of_kind("checkpoint-scan-back")
    linf = float(np.abs(replay.posteriors - baseline).max())
    _deposit("corrupt-scan-back", name, replay,
             {"linf": linf, "store_faults_fired": store.fault_injector
              .n_fired("filestore.segment-read")})
    assert len(scan_backs) == 1
    assert store.fault_injector.n_fired("filestore.segment-read") == 1
    assert linf == 0.0


# ----------------------------------------------------------------------
# A permanently failing shard is quarantined — an event, not a crash
# ----------------------------------------------------------------------
def test_poisoned_shard_quarantines_and_falls_back():
    name = "colluding-clique"
    scenario, runner, template, steps, _ = _recorded(name)
    plan = FaultPlan(specs=(
        FaultSpec(site="shard.refresh", kind="crash", transient=False,
                  key=0, max_fires=None),), seed=3)
    replay = runner.replay_under_faults(
        scenario, steps, template, plan=plan,
        retry_policy=RetryPolicy(max_attempts=2), sharded_blocks=4,
        failure_budget=2)
    kinds = {event.kind for event in replay.event_log}
    _deposit("poisoned-shard", name, replay)
    assert "quarantine" in kinds, \
        "a shard past its failure budget must surface as a typed event"
    assert "fallback-exact" in kinds, \
        "a failed supervised refresh must fall back to the exact path"
    assert "permanent-failure" in kinds
    # The replay completed and produced a full posterior despite the
    # poisoned shard — degradation, not an exception.
    assert replay.posteriors.shape == (scenario.n_objects,
                                       scenario.n_labels)
    assert np.all(np.isfinite(replay.posteriors))


def test_quarantine_event_carries_the_failing_key():
    name = "colluding-clique"
    scenario, runner, template, steps, _ = _recorded(name)
    plan = FaultPlan(specs=(
        FaultSpec(site="shard.refresh", kind="crash", transient=False,
                  key=1, max_fires=None),), seed=7)
    replay = runner.replay_under_faults(
        scenario, steps, template, plan=plan,
        retry_policy=RetryPolicy(max_attempts=2), sharded_blocks=4,
        failure_budget=1)
    quarantines = replay.event_log.of_kind("quarantine")
    _deposit("quarantine-key", name, replay)
    assert len(quarantines) == 1
    assert quarantines[0].key == 1
    assert quarantines[0].site == "shard.refresh"


# ----------------------------------------------------------------------
# The chaos artifact and the telemetry timeline are the same story
# ----------------------------------------------------------------------
def test_event_log_telemetry_parity():
    """Every ``EventLog`` record reappears on the hub timeline, in order.

    With a telemetry hub attached, ``EventLog.record`` forwards each
    degradation into the hub's timeline and a ``resilience.<kind>``
    counter. The chaos artifact (this log) and the telemetry trace must
    therefore tell one story: same events, same fields, same order —
    the timeline only adds hub-exclusive ``retry-trace`` markers that
    ``call_with_retry`` emits after a recovered call.
    """
    name = "reliability-drift"
    scenario = compile_registered(name)
    hub = Telemetry()
    runner = ScenarioRunner(seed=5, telemetry=hub)
    process, steps = runner.run_batch(scenario)
    replay = runner.replay_under_faults(scenario, steps, process.session)
    assert replay.n_degradations >= 1, \
        "parity is vacuous unless the chaos schedule recorded something"

    mirrored = [entry for entry in hub.events
                if entry.kind != "retry-trace"]
    assert len(mirrored) == len(replay.event_log), \
        (f"{len(replay.event_log)} logged degradations vs "
         f"{len(mirrored)} forwarded timeline events")
    for logged, forwarded in zip(replay.event_log, mirrored):
        assert (forwarded.kind, forwarded.site, forwarded.key,
                forwarded.attempt, forwarded.detail, forwarded.error) \
            == (logged.kind, logged.site, logged.key, logged.attempt,
                logged.detail, logged.error)
        assert forwarded.scope == "faults", \
            "replay degradations must land in the runner's faults scope"

    # The per-kind counters agree with the log's tallies.
    for kind, expected in Counter(e.kind for e in replay.event_log).items():
        counted = hub.registry.counter(f"faults/resilience.{kind}").value
        assert counted == expected, \
            f"resilience.{kind}: counter {counted} vs log {expected}"

    _deposit("telemetry-parity", name, replay,
             {"n_timeline_events": len(hub.events),
              "n_forwarded": len(mirrored)})
