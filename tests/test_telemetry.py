"""Telemetry substrate contracts.

Three promises, each pinned here:

* **Observing never perturbs** — posteriors and recorded selections are
  bit-identical with telemetry on vs off, across every registry scenario
  and all five :class:`~repro.scenarios.ScenarioRunner` conformance
  paths (batch, streaming, ingest, crash/resume, replay-under-faults).
* **Deterministic instruments** — histogram bucketing is a pure function
  of the (fixed) edges and the observed values, spans nest and aggregate
  deterministically under an injected clock, and a JSONL trace round-
  trips losslessly.
* **Never persisted** — checkpoints written by an instrumented session
  are byte-identical to an uninstrumented one's, and a restored session
  re-attaches a hub cleanly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.answer_set import AnswerSet
from repro.core.iem import IncrementalEM
from repro.experts.simulated import OracleExpert
from repro.guidance import InformationGainStrategy
from repro.process.validation_process import ValidationProcess
from repro.scenarios import ScenarioRunner, compile_registered, scenario_names
from repro.state import FileSessionStore
from repro.streaming.session import ValidationSession
from repro.telemetry import (
    DEFAULT_LATENCY_EDGES,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    SpanTracer,
    Telemetry,
    jsonl_records,
    read_jsonl,
    render_manifest,
    run_manifest,
    snapshot,
    span_aggregates,
    write_jsonl,
)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("em.calls")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("n_conflicts")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_get_or_create_is_idempotent_and_type_safe(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 2.0))

    def test_histogram_bucket_semantics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", edges=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.5, 1000.0):
            hist.observe(value)
        # bisect_left: a value equal to an edge lands in that edge's
        # bucket (counts[i] holds values edges[i-1] < v <= edges[i]).
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(1017.0)

    def test_default_edges_are_fixed(self):
        # The deterministic geometric ladder the conclude-latency
        # histograms share; a changed edge silently re-buckets every
        # recorded trace, so the exact tuple is pinned.
        assert DEFAULT_LATENCY_EDGES[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_EDGES[-1] == pytest.approx(10.0)
        assert len(DEFAULT_LATENCY_EDGES) == 22
        assert all(a < b for a, b in zip(DEFAULT_LATENCY_EDGES,
                                         DEFAULT_LATENCY_EDGES[1:]))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                              allow_nan=False), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_histogram_counts_deterministic(self, values):
        """Bucketing is a pure function of (edges, values) — two
        registries observing the same stream agree bucket-for-bucket,
        and the counts always total the observation count."""
        one, two = MetricsRegistry(), MetricsRegistry()
        h1 = one.histogram("h", edges=DEFAULT_LATENCY_EDGES)
        h2 = two.histogram("h", edges=DEFAULT_LATENCY_EDGES)
        for value in values:
            h1.observe(value)
            h2.observe(value)
        assert h1.counts == h2.counts
        assert sum(h1.counts) == h1.count == len(values)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_self_time(self):
        ticks = iter(range(100))
        tracer = SpanTracer(clock=lambda: float(next(ticks)))
        hub = Telemetry()
        hub.tracer = tracer
        with hub.span("outer"):            # t=0 .. t=3
            with hub.span("inner"):        # t=1 .. t=2
                pass
        outer, inner = None, None
        for record in tracer.records:
            if record.name == "outer":
                outer = record
            else:
                inner = record
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        aggregates = span_aggregates(hub)
        assert aggregates["outer"]["total_s"] == pytest.approx(3.0)
        assert aggregates["outer"]["self_s"] == pytest.approx(2.0)
        assert aggregates["inner"]["self_s"] == pytest.approx(1.0)

    def test_exception_marks_span(self):
        hub = Telemetry()
        with pytest.raises(RuntimeError):
            with hub.span("doomed"):
                raise RuntimeError("boom")
        (record,) = hub.tracer.records
        assert "RuntimeError" in record.attrs["error"]

    def test_spawn_scopes_prefix_and_nest(self):
        hub = Telemetry()
        scope = hub.spawn("shard3")
        scope.counter("em.iterations").inc(7)
        nested = scope.spawn("warm")
        with nested.span("solve"):
            pass
        assert hub.registry.counter("shard3/em.iterations").value == 7
        (record,) = hub.tracer.records
        assert record.scope == "shard3/warm"
        assert "shard3/warm/solve" in span_aggregates(hub)


# ----------------------------------------------------------------------
# Null telemetry
# ----------------------------------------------------------------------
class TestNullTelemetry:
    def test_shared_noop_instruments(self):
        null = NullTelemetry()
        assert null.spawn("x") is null
        assert null.counter("a") is NULL_TELEMETRY.counter("b")
        assert null.histogram("h").observe(1.0) is None
        span = null.span("s", anything=1)
        with span as entered:
            entered.set("k", "v")
        assert span.duration == 0.0

    def test_exceptions_propagate_through_null_span(self):
        with pytest.raises(ValueError):
            with NULL_TELEMETRY.span("s"):
                raise ValueError("not swallowed")


# ----------------------------------------------------------------------
# JSONL round-trip and manifest
# ----------------------------------------------------------------------
class TestExport:
    @staticmethod
    def _populated_hub() -> Telemetry:
        ticks = iter(range(1000))
        hub = Telemetry(clock=lambda: float(next(ticks)))
        with hub.span("outer", site="demo"):
            with hub.span("inner"):
                pass
        hub.counter("em.calls").inc(3)
        hub.gauge("n_concluded").set(2.0)
        hub.histogram("lat", edges=(0.5, 1.5)).observe(1.0)
        hub.event("retry", "expert.validate", key=4, attempt=2,
                  error="TimeoutError: slow")
        return hub

    def test_jsonl_round_trip(self, tmp_path):
        hub = self._populated_hub()
        path = tmp_path / "trace.jsonl"
        n_lines = write_jsonl(hub, path)
        records = read_jsonl(path)
        assert len(records) == n_lines
        assert records == json.loads(
            json.dumps(jsonl_records(hub), sort_keys=True))
        assert {record["type"] for record in records} == {
            "span", "counter", "gauge", "histogram", "event"}

    def test_snapshot_envelope_matches_bench_conventions(self):
        document = snapshot(self._populated_hub(), timestamp=123.0)
        assert document["benchmark"] == "telemetry"
        (run,) = document["runs"]
        assert run["timestamp"] == 123.0
        assert set(run) == {"timestamp", "spans", "metrics", "events"}
        json.dumps(document)  # fully serializable

    def test_manifest_renders(self):
        hub = self._populated_hub()
        manifest = run_manifest(hub)
        text = render_manifest(manifest)
        assert manifest["n_spans"] == 2
        assert "outer" in text and "retry" in text
        assert manifest["top_spans"][0]["span"] == "outer"

    def test_export_rejects_null_hub(self):
        with pytest.raises(TypeError):
            jsonl_records(NULL_TELEMETRY)


# ----------------------------------------------------------------------
# Observing never perturbs: on-vs-off bit identity
# ----------------------------------------------------------------------
def _answer_matrix(n_objects: int, n_workers: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_objects, n_workers))
    matrix[rng.random(matrix.shape) < 0.3] = -1
    if (matrix == -1).all():
        matrix[0, 0] = 0
    return matrix


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_session_conclude_bit_identical_on_vs_off(seed):
    matrix = _answer_matrix(8, 5, seed)
    answer_set = AnswerSet(matrix, labels=("a", "b"))
    plain = ValidationSession.from_answer_set(answer_set)
    instrumented = ValidationSession.from_answer_set(
        answer_set, telemetry=Telemetry())
    plain.conclude()
    instrumented.conclude()
    plain.add_validation(0, 1)
    instrumented.add_validation(0, 1)
    plain.conclude()
    instrumented.conclude()
    assert np.array_equal(plain.model.assignment,
                          instrumented.model.assignment)
    assert np.array_equal(plain.model.confusions,
                          instrumented.model.confusions)


@pytest.mark.parametrize("name", scenario_names())
def test_all_paths_bit_identical_on_vs_off(name):
    """All five conformance paths, telemetry on vs off, per scenario."""
    scenario = compile_registered(name)
    hub = Telemetry()
    on = ScenarioRunner(seed=0, telemetry=hub)
    off = ScenarioRunner(seed=0)

    process_on, steps_on = on.run_batch(scenario, "exact")       # path 1
    process_off, steps_off = off.run_batch(scenario, "exact")
    assert steps_on == steps_off  # identical selections, step for step
    assert np.array_equal(np.array(process_on.prob_set.assignment),
                          np.array(process_off.prob_set.assignment))

    template_on, template_off = process_on.session, process_off.session
    pairs = [
        (on.replay_streaming(scenario, steps_on, template_on),      # 2
         off.replay_streaming(scenario, steps_off, template_off)),
        (on.replay_ingest(scenario, steps_on, template_on),         # 3
         off.replay_ingest(scenario, steps_off, template_off)),
        (on.replay_crash_resume(scenario, steps_on, template_on),   # 4
         off.replay_crash_resume(scenario, steps_off, template_off)),
        (on.replay_under_faults(scenario, steps_on,                 # 5
                                template_on).posteriors,
         off.replay_under_faults(scenario, steps_off,
                                 template_off).posteriors),
    ]
    for with_hub, without_hub in pairs:
        assert np.array_equal(with_hub, without_hub)
    # And the instrumentation actually observed the run.
    assert len(hub.tracer.records) > 0
    assert hub.registry.counter("streaming/session.validations").value > 0


class TestLayerSpans:
    """``encode`` and ``plan.build`` fire once per new statistics epoch."""

    def test_spans_fire_only_for_a_new_encoding(self):
        answer_set = AnswerSet(_answer_matrix(12, 6, 3), labels=("a", "b"))
        gold = np.zeros(answer_set.n_objects, dtype=np.int64)
        hub = Telemetry()
        process = ValidationProcess(
            answer_set, OracleExpert(gold), strategy=InformationGainStrategy(),
            handle_faulty=False, rng=0, telemetry=hub)

        def step_spans() -> dict[str, list]:
            start = len(hub.tracer.records)
            process.step()
            records = hub.tracer.records[start:]
            by_id = {r.span_id: r.name for r in records}
            return {name: [by_id.get(r.parent_id) for r in records
                           if r.name == name]
                    for name in ("encode", "plan.build", "session.snapshot")}

        # A warm step reuses the epoch's encoding and plan.
        assert step_spans() == {"encode": [], "plan.build": [],
                                "session.snapshot": ["process.step"]}
        process.session.set_masked_workers([1])
        assert step_spans() == {"encode": ["session.conclude"],
                                "plan.build": ["session.conclude"],
                                "session.snapshot": ["process.step"]}
        assert step_spans()["encode"] == []

    def test_encode_span_reports_the_cells_it_merged(self):
        """A streamed statistics epoch merges its new cells into the kept
        cell index; a seeded log has no index, so its rebuild after a mask
        toggle sorts the whole log and keeps none."""
        hub = Telemetry()

        def encode_attrs(stats) -> dict:
            start = len(hub.tracer.records)
            stats.encoded()
            spans = [r for r in hub.tracer.records[start:]
                     if r.name == "encode"]
            assert len(spans) == 1
            return {key: spans[0].attrs[key] for key in ("n_new", "merged")}

        streamed = em_kernel.AnswerStats(4, 3, 2)
        streamed.telemetry = hub
        for cell in ((0, 0, 1), (1, 2, 0), (3, 1, 1)):
            streamed.add_answer(*cell)
        assert encode_attrs(streamed) == {"n_new": 3, "merged": True}
        streamed.add_answer(2, 2, 0)
        assert encode_attrs(streamed) == {"n_new": 1, "merged": True}
        streamed.set_masked_workers([2])  # no key changes
        assert encode_attrs(streamed) == {"n_new": 0, "merged": True}

        seeded = em_kernel.AnswerStats(4, 3, 2)
        seeded.seed(streamed.encoded())
        seeded.telemetry = hub
        seeded.set_masked_workers([1])
        assert encode_attrs(seeded) == {"n_new": 0, "merged": False}
        seeded.add_answer(2, 1, 1)  # the first lookup builds the index
        assert encode_attrs(seeded) == {"n_new": 1, "merged": True}


# ----------------------------------------------------------------------
# Never persisted: checkpoint compatibility
# ----------------------------------------------------------------------
def _checkpoint_bytes(root) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestCheckpointCompatibility:
    def test_filestore_round_trip_byte_identical(self, tmp_path):
        matrix = _answer_matrix(10, 6, seed=7)
        answer_set = AnswerSet(matrix, labels=("a", "b"))
        # rng pinned so the only difference between the sessions is the
        # hub — the captured generator state must then match too.
        plain = ValidationSession.from_answer_set(
            answer_set, aggregator=IncrementalEM(rng=0))
        instrumented = ValidationSession.from_answer_set(
            answer_set, aggregator=IncrementalEM(rng=0),
            telemetry=Telemetry())
        plain.conclude()
        instrumented.conclude()

        store_plain = FileSessionStore(tmp_path / "plain")
        store_instr = FileSessionStore(tmp_path / "instr",
                                       telemetry=Telemetry())
        store_plain.checkpoint(plain, meta={"step": 0})
        store_instr.checkpoint(instrumented, meta={"step": 0})
        assert _checkpoint_bytes(tmp_path / "plain") \
            == _checkpoint_bytes(tmp_path / "instr")

    def test_restore_reattaches_hub_cleanly(self, tmp_path):
        matrix = _answer_matrix(10, 6, seed=7)
        answer_set = AnswerSet(matrix, labels=("a", "b"))
        hub = Telemetry()
        session = ValidationSession.from_answer_set(answer_set,
                                                    telemetry=hub)
        session.conclude()
        store = FileSessionStore(tmp_path)
        store.checkpoint(session, meta={"step": 0})

        restored = store.restore().session
        # Checkpoints never carry a hub: restores come back disabled.
        assert restored.telemetry is NULL_TELEMETRY
        fresh = Telemetry()
        restored.attach_telemetry(fresh)
        assert restored.telemetry is fresh
        restored.add_validation(1, 0)
        session.add_validation(1, 0)
        restored.conclude()
        session.conclude()
        assert np.array_equal(session.model.assignment,
                              restored.model.assignment)
        assert fresh.registry.counter("session.validations").value == 1

    def test_state_restore_telemetry_kwarg(self):
        matrix = _answer_matrix(6, 4, seed=3)
        session = ValidationSession.from_answer_set(
            AnswerSet(matrix, labels=("a", "b")))
        session.conclude()
        hub = Telemetry()
        restored = session.capture_state().restore(telemetry=hub)
        assert restored.telemetry is hub
        # Conclude both again: each warm-starts from the same captured
        # model, so the instrumented restore must track the original
        # float for float.
        restored.conclude()
        session.conclude()
        assert any(record.name == "session.conclude"
                   for record in hub.tracer.records)
        assert np.array_equal(session.model.assignment,
                              restored.model.assignment)
