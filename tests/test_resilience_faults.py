"""Unit coverage for :mod:`repro.resilience` and its integration points.

Pins the contracts the chaos conformance suite builds on:

* :class:`FaultInjector` executes a :class:`FaultPlan` deterministically —
  same plan, same visit order, same fired faults — with per-spec budgets,
  visit offsets, key scoping, and probability draws from per-spec streams;
* :func:`call_with_retry` masks transient failures, raises permanent ones
  immediately, enforces per-attempt deadlines (injected latency charged
  *before* the callable runs), and surfaces exhausted budgets as
  :class:`~repro.errors.RetryExhaustedError`;
* a failed :meth:`repro.parallel.Executor.map` shuts its pool down
  (cancelled futures, fresh pool next call) instead of leaking it;
* :meth:`SessionStore.restore` scans back over corrupt checkpoints while
  explicit ``load_state`` stays strict, and a transient checkpoint-write
  failure costs :class:`~repro.state.FileSessionStore` a retry, not the
  checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answer_set import AnswerSet
from repro.errors import (CheckpointCorruptionError, CheckpointDimensionError,
                          CheckpointNotFoundError, CheckpointSchemaError,
                          CheckpointWriteError, DeadlineExceededError,
                          ExpertUnavailableError, PermanentInjectedFault,
                          ReproError, RetryExhaustedError,
                          TransientInjectedFault, is_transient)
from repro.experts import ScriptedExpert, SupervisedExpert
from repro.parallel.executor import Executor
from repro.resilience import (EventLog, FaultInjector, FaultPlan, FaultSpec,
                              RetryPolicy, call_with_retry,
                              transient_chaos_plan)
from repro.state import FileSessionStore, MemorySessionStore
from repro.streaming import ValidationSession


@pytest.fixture
def small_session() -> ValidationSession:
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 2, size=(10, 5))
    matrix[rng.random(size=matrix.shape) < 0.25] = -1
    session = ValidationSession.from_answer_set(AnswerSet(matrix, ("a", "b")))
    session.conclude()
    return session


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestClassification:
    def test_explicit_lineage_wins(self):
        assert is_transient(CheckpointWriteError("io"))
        assert is_transient(TransientInjectedFault("crash"))
        assert is_transient(ExpertUnavailableError("flaky"))
        assert is_transient(DeadlineExceededError("slow"))
        assert not is_transient(CheckpointCorruptionError("garbage"))
        assert not is_transient(CheckpointSchemaError("old"))
        assert not is_transient(CheckpointDimensionError("shape"))
        assert not is_transient(CheckpointNotFoundError("gone"))
        assert not is_transient(PermanentInjectedFault("poison"))
        assert not is_transient(RetryExhaustedError("spent"))

    def test_bare_io_shapes_default_transient(self):
        assert is_transient(OSError("disk"))
        assert is_transient(TimeoutError("slow"))

    def test_everything_else_defaults_permanent(self):
        assert not is_transient(ValueError("bug"))
        assert not is_transient(ReproError("invariant"))


# ----------------------------------------------------------------------
# Fault plans and the injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", kind="meteor")
        with pytest.raises(ValueError):
            FaultSpec(site="s", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="s", after_visits=-1)
        with pytest.raises(ValueError):
            FaultSpec(site="s", delay=-0.1)

    def test_default_fires_once_then_passes(self):
        injector = FaultInjector(FaultPlan(specs=(FaultSpec(site="s"),)))
        with pytest.raises(TransientInjectedFault):
            injector.check("s")
        assert injector.check("s") == 0.0
        assert injector.n_fired("s") == 1

    def test_after_visits_offsets_arming(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", after_visits=2),)))
        assert injector.check("s") == 0.0
        assert injector.check("s") == 0.0
        with pytest.raises(TransientInjectedFault):
            injector.check("s")

    def test_key_scoping_and_per_key_visit_counters(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", key=1, max_fires=None),)))
        assert injector.check("s", 0) == 0.0
        with pytest.raises(TransientInjectedFault):
            injector.check("s", 1)
        with pytest.raises(TransientInjectedFault):
            injector.check("s", 1)

    def test_slow_faults_return_latency_without_raising(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", kind="slow", delay=12.5, max_fires=2),)))
        assert injector.check("s") == 12.5
        assert injector.check("s") == 12.5
        assert injector.check("s") == 0.0

    def test_kinds_map_to_typed_exceptions(self):
        kinds = {"io-error": CheckpointWriteError,
                 "corrupt": CheckpointCorruptionError,
                 "flaky": ExpertUnavailableError}
        for kind, exc_type in kinds.items():
            injector = FaultInjector(FaultPlan(specs=(
                FaultSpec(site="s", kind=kind),)))
            with pytest.raises(exc_type):
                injector.check("s")
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", kind="crash", transient=False),)))
        with pytest.raises(PermanentInjectedFault):
            injector.check("s")

    def test_probabilistic_firing_is_deterministic_per_seed(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="s", probability=0.4, max_fires=None),), seed=13)
        timelines = []
        for _ in range(2):
            injector = FaultInjector(plan)
            fired = []
            for visit in range(40):
                try:
                    injector.check("s")
                    fired.append(False)
                except TransientInjectedFault:
                    fired.append(True)
            timelines.append(fired)
        assert timelines[0] == timelines[1]
        assert 0 < sum(timelines[0]) < 40

    def test_different_seeds_differ(self):
        spec = FaultSpec(site="s", probability=0.5, max_fires=None)

        def timeline(seed: int) -> list[bool]:
            injector = FaultInjector(FaultPlan(specs=(spec,), seed=seed))
            out = []
            for _ in range(64):
                try:
                    injector.check("s")
                    out.append(False)
                except TransientInjectedFault:
                    out.append(True)
            return out

        assert timeline(1) != timeline(2)

    def test_transient_only_classification(self):
        assert transient_chaos_plan().transient_only()
        assert not FaultPlan(specs=(
            FaultSpec(site="s", kind="corrupt"),)).transient_only()
        assert not FaultPlan(specs=(
            FaultSpec(site="s", kind="crash",
                      transient=False),)).transient_only()


# ----------------------------------------------------------------------
# Retry policy + call_with_retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_backoff_schedule(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=3.0)
        rng = np.random.default_rng(0)
        assert policy.backoff(0, rng) == 1.0
        assert policy.backoff(1, rng) == 2.0
        assert policy.backoff(2, rng) == 3.0  # capped

    def test_success_first_try(self):
        result, trace = call_with_retry(lambda: "ok")
        assert result == "ok"
        assert trace.attempts == 1 and trace.succeeded
        assert trace.errors == ()

    def test_masks_transient_and_records_event(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("hiccup")
            return 99

        log = EventLog()
        result, trace = call_with_retry(flaky, RetryPolicy(max_attempts=3),
                                        site="s", event_log=log)
        assert result == 99 and trace.attempts == 3
        assert len(trace.errors) == 2
        assert log.count("retry") == 2

    def test_permanent_raises_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bug")

        log = EventLog()
        with pytest.raises(ValueError):
            call_with_retry(broken, RetryPolicy(max_attempts=5),
                            event_log=log)
        assert len(calls) == 1
        assert log.count("permanent-failure") == 1

    def test_exhaustion_raises_with_cause(self):
        def always():
            raise OSError("down")

        log = EventLog()
        with pytest.raises(RetryExhaustedError) as excinfo:
            call_with_retry(always, RetryPolicy(max_attempts=2),
                            event_log=log)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert log.count("retry-exhausted") == 1

    def test_injected_deadline_abandons_attempt_before_calling(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", kind="slow", delay=10.0),)))
        calls = []
        result, trace = call_with_retry(
            lambda: calls.append(1) or 7,
            RetryPolicy(max_attempts=2, deadline=1.0), site="s",
            injector=injector)
        # Attempt 1 was abandoned without running fn; attempt 2 ran it.
        assert result == 7 and trace.attempts == 2 and calls == [1]
        assert "DeadlineExceededError" in trace.errors[0]

    def test_traces_identical_for_identical_seeds(self):
        def run(seed: int):
            injector = FaultInjector(FaultPlan(specs=(
                FaultSpec(site="s", kind="io-error", probability=0.7,
                          max_fires=3),), seed=seed))
            traces = []
            for _ in range(6):
                _, trace = call_with_retry(
                    lambda: 1, RetryPolicy(max_attempts=4, base_delay=0.0,
                                           jitter=0.5),
                    site="s", rng=seed, injector=injector,
                    sleep=lambda _t: None)
                traces.append(trace)
            return traces

        assert run(5) == run(5)

    def test_sleep_receives_backoff_delays(self):
        slept = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("again")
            return 0

        call_with_retry(flaky,
                        RetryPolicy(max_attempts=3, base_delay=0.25,
                                    multiplier=2.0),
                        sleep=slept.append)
        assert slept == [0.25, 0.5]


# ----------------------------------------------------------------------
# Executor shutdown-on-failure fix
# ----------------------------------------------------------------------
class TestExecutorCancellation:
    def test_failed_map_resets_pool_and_next_call_works(self):
        executor = Executor("threads", max_workers=2)

        def picky(x):
            if x == 5:
                raise RuntimeError("boom")
            return x * 2

        assert executor.map(picky, [1, 2]) == [2, 4]
        assert executor._pool is not None
        with pytest.raises(RuntimeError):
            executor.map(picky, list(range(12)))
        assert executor._pool is None  # pool was shut down, not leaked
        assert executor.map(picky, [3, 4]) == [6, 8]
        executor.close()

    def test_serial_mode_unchanged(self):
        executor = Executor("serial")
        with pytest.raises(RuntimeError):
            executor.map(lambda x: (_ for _ in ()).throw(RuntimeError("x")),
                         [1, 2])


# ----------------------------------------------------------------------
# Supervised expert
# ----------------------------------------------------------------------
class TestSupervisedExpert:
    def test_retries_flaky_elicitations(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="expert.validate", kind="flaky", max_fires=2),)))
        expert = SupervisedExpert(ScriptedExpert({0: 1, 1: 0}),
                                  retry_policy=RetryPolicy(max_attempts=3),
                                  fault_injector=injector)
        assert expert.validate(0) == 1
        assert expert.validate(1) == 0
        assert expert.n_retries == 2
        assert expert.event_log.count("retry") == 2

    def test_wrapped_label_is_unchanged(self):
        expert = SupervisedExpert(ScriptedExpert({3: 1}))
        assert expert.validate(3) == 1
        assert expert.traces[-1].attempts == 1


# ----------------------------------------------------------------------
# Checkpoint-write retry + restore scan-back
# ----------------------------------------------------------------------
class TestStoreResilience:
    def test_checkpoint_write_retried_under_injected_io_error(
            self, tmp_path, small_session):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="filestore.checkpoint-write", kind="io-error"),)))
        log = EventLog()
        store = FileSessionStore(tmp_path, fault_injector=injector)
        info, _trace = call_with_retry(
            lambda: store.checkpoint(small_session),
            RetryPolicy(max_attempts=3), site="store.checkpoint",
            event_log=log)
        # The torn attempt's directory stays uncommitted, as after a
        # crash, so the retry commits the next id.
        assert info.checkpoint_id == 1
        assert [c.checkpoint_id for c in store.checkpoints()] == [1]
        assert log.count("retry") == 1
        restored = store.restore()
        linf = float(np.abs(restored.session.model.assignment
                            - small_session.model.assignment).max())
        assert linf == 0.0

    def test_write_fault_keeps_its_type_with_an_event_log(
            self, tmp_path, small_session):
        """An attached event log does not wrap the write: the injected
        fault surfaces as the transient CheckpointWriteError a caller's
        retry absorbs, not as a permanent RetryExhaustedError."""
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="filestore.checkpoint-write", kind="io-error"),)))
        store = FileSessionStore(tmp_path, fault_injector=injector,
                                 event_log=EventLog())
        with pytest.raises(CheckpointWriteError):
            store.checkpoint(small_session)
        assert store.checkpoints() == []

    def test_unretried_write_fault_leaves_store_consistent(
            self, tmp_path, small_session):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="filestore.checkpoint-write", kind="io-error"),)))
        store = FileSessionStore(tmp_path, fault_injector=injector)
        with pytest.raises(CheckpointWriteError):
            store.checkpoint(small_session)
        assert store.checkpoints() == []  # torn attempt never committed
        info = store.checkpoint(small_session)  # budget spent: succeeds
        assert [c.checkpoint_id for c in store.checkpoints()] \
            == [info.checkpoint_id]

    def test_restore_scans_back_over_torn_manifest(self, tmp_path,
                                                   small_session):
        store = FileSessionStore(tmp_path)
        store.checkpoint(small_session)
        small_session.add_validation(0, 1)
        store.append({"kind": "validation", "object": 0, "label": 1})
        store.append({"kind": "conclude"})
        small_session.conclude()
        store.checkpoint(small_session)
        (tmp_path / "ckpt-000001" / "manifest.json").write_text('{"torn')
        restored = store.restore()
        assert restored.checkpoint.checkpoint_id == 0
        assert restored.n_replayed == 2
        linf = float(np.abs(restored.session.model.assignment
                            - small_session.model.assignment).max())
        assert linf == 0.0

    @pytest.mark.parametrize("log_via", ["call", "init"])
    def test_restore_scans_back_over_corrupt_segment(self, tmp_path,
                                                     small_session, log_via):
        """The scan-back reaches the log given to ``restore()``, or else
        the store's own ``event_log``."""
        log = EventLog()
        store = FileSessionStore(
            tmp_path, event_log=log if log_via == "init" else None)
        store.checkpoint(small_session)
        info = store.checkpoint(small_session)
        segment = tmp_path / f"ckpt-{info.checkpoint_id:06d}" \
            / "segment-000.npz"
        segment.write_bytes(b"not an npz")
        restored = store.restore(event_log=log if log_via == "call" else None)
        assert restored.checkpoint.checkpoint_id == 0
        assert restored.skipped_checkpoints == (info.checkpoint_id,)
        assert log.count("checkpoint-scan-back") == 1

    def test_explicit_checkpoint_id_stays_strict(self, tmp_path,
                                                 small_session):
        store = FileSessionStore(tmp_path)
        store.checkpoint(small_session)
        info = store.checkpoint(small_session)
        (tmp_path / f"ckpt-{info.checkpoint_id:06d}" / "segment-000.npz") \
            .write_bytes(b"garbage")
        with pytest.raises(CheckpointCorruptionError):
            store.restore(info.checkpoint_id)

    def test_all_checkpoints_corrupt_raises(self, tmp_path, small_session):
        store = FileSessionStore(tmp_path)
        for _ in range(2):
            store.checkpoint(small_session)
        for directory in tmp_path.glob("ckpt-*"):
            (directory / "segment-000.npz").write_bytes(b"junk")
        with pytest.raises(CheckpointCorruptionError):
            store.restore()

    def test_empty_store_still_raises_not_found(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            FileSessionStore(tmp_path).restore()

    def test_memory_store_scan_back_parity(self, small_session):
        # MemorySessionStore snapshots cannot rot, but the shared restore
        # contract (skipped_checkpoints field, strict explicit id) holds.
        store = MemorySessionStore()
        store.checkpoint(small_session)
        restored = store.restore()
        assert restored.skipped_checkpoints == ()
