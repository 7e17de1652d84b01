"""The on-disk checkpoint format: commit point, corruption, WAL semantics.

Every failure mode a crashed or bit-rotted store can present must map to
a *typed* :mod:`repro.errors` exception — never a stack trace from deep
inside numpy/json, and never silently loading garbage:

==============================  =====================================
torn / unparseable manifest     :class:`CheckpointCorruptionError`
segment file missing            :class:`CheckpointCorruptionError`
segment/manifest count mismatch :class:`CheckpointCorruptionError`
declared dims too small         :class:`CheckpointDimensionError`
unknown schema version          :class:`CheckpointSchemaError`
nothing committed yet           :class:`CheckpointNotFoundError`
==============================  =====================================

The commit point is the manifest: a checkpoint directory without one is
an incomplete write (crash mid-checkpoint) and is *skipped* — not an
error — when selecting the latest checkpoint.

The table above is the ``load_state`` contract — explicit loads stay
strict. ``restore()`` with no explicit id additionally *scans back*
over corrupt newer checkpoints to the newest valid one (see
``tests/test_resilience_faults.py::TestStoreResilience``), raising only
when no valid checkpoint exists.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.iem import IncrementalEM
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointDimensionError,
    CheckpointNotFoundError,
    CheckpointSchemaError,
    InvalidAnswerSetError,
    StateStoreError,
)
from repro.resilience import EventLog
from repro.state import (STATE_SCHEMA_VERSION, FileSessionStore,
                         MemorySessionStore)
from repro.state import store as state_events
from repro.streaming import ValidationSession


def _session() -> ValidationSession:
    session = ValidationSession(6, 4, 2, aggregator=IncrementalEM(rng=7))
    session.add_answers([(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 2, 0),
                         (2, 1, 1), (2, 3, 1), (3, 0, 1), (4, 2, 0),
                         (5, 3, 0)])
    session.add_validation(0, 1)
    session.conclude()
    return session


def _checkpoint_dir(store: FileSessionStore):
    dirs = sorted(store.root.glob("ckpt-*"))
    assert dirs, "no checkpoint directory written"
    return dirs[-1]


def _edit_manifest(store: FileSessionStore, mutate) -> None:
    path = _checkpoint_dir(store) / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


@pytest.fixture(params=["memory", "file"])
def any_store(request, tmp_path):
    if request.param == "memory":
        yield MemorySessionStore()
        return
    store = FileSessionStore(tmp_path)
    yield store
    store.close()


class TestTypedCorruptionErrors:
    def test_all_checkpoint_errors_are_state_store_errors(self):
        for exc in (CheckpointNotFoundError, CheckpointCorruptionError,
                    CheckpointSchemaError, CheckpointDimensionError):
            assert issubclass(exc, StateStoreError)

    def test_empty_store_raises_not_found(self, tmp_path):
        store = FileSessionStore(tmp_path)
        with pytest.raises(CheckpointNotFoundError):
            store.restore()
        with pytest.raises(CheckpointNotFoundError):
            store.load_state(checkpoint_id=3)

    def test_torn_manifest_raises_corruption(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        path = _checkpoint_dir(store) / "manifest.json"
        text = path.read_text()
        path.write_text(text[:len(text) // 2])  # torn mid-write
        with pytest.raises(CheckpointCorruptionError):
            store.load_state()

    def test_missing_segment_raises_corruption(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        (_checkpoint_dir(store) / "segment-000.npz").unlink()
        with pytest.raises(CheckpointCorruptionError):
            store.load_state()

    def test_segment_count_mismatch_raises_corruption(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        _edit_manifest(store, lambda m: m["segments"][0].update(
            n_entries=m["segments"][0]["n_entries"] + 1))
        with pytest.raises(CheckpointCorruptionError):
            store.load_state()

    def test_dims_mismatch_raises_dimension_error(self, tmp_path):
        """Declared dims smaller than the logged answers: typed refusal
        rather than an out-of-bounds session."""
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        _edit_manifest(store, lambda m: m["dims"].update(n_objects=2))
        with pytest.raises(CheckpointDimensionError):
            store.load_state()

    def test_masked_worker_out_of_range_raises_dimension_error(
            self, tmp_path):
        store = FileSessionStore(tmp_path)
        session = _session()
        session.set_masked_workers({1})
        store.checkpoint(session)
        _edit_manifest(store, lambda m: m.update(masked_workers=[99]))
        with pytest.raises(CheckpointDimensionError):
            store.load_state()

    def test_stale_schema_version_raises_schema_error(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        _edit_manifest(store, lambda m: m.update(schema_version=999))
        with pytest.raises(CheckpointSchemaError):
            store.load_state()

    def test_missing_manifest_fields_raise_corruption(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        _edit_manifest(store, lambda m: m.pop("dims"))
        with pytest.raises(CheckpointCorruptionError):
            store.load_state()


class TestCommitPoint:
    def test_incomplete_checkpoint_is_skipped_not_fatal(self, tmp_path):
        """A directory without a manifest (crash mid-checkpoint) is not
        committed: restore falls back to the previous good checkpoint."""
        store = FileSessionStore(tmp_path)
        session = _session()
        good = store.checkpoint(session)
        # Simulate a crash mid-write of the NEXT checkpoint: segments and
        # arrays landed, the manifest never did.
        partial = store.root / "ckpt-000099"
        partial.mkdir()
        np.savez(partial / "segment-000.npz", junk=np.arange(3))
        assert [info.checkpoint_id for info in store.checkpoints()] \
            == [good.checkpoint_id]
        restored = store.restore()
        assert restored.checkpoint.checkpoint_id == good.checkpoint_id

    def test_explicitly_requested_incomplete_checkpoint_is_corruption(
            self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        partial = store.root / "ckpt-000099"
        partial.mkdir()
        with pytest.raises(CheckpointCorruptionError):
            store.load_state(checkpoint_id=99)

    def test_latest_complete_checkpoint_wins(self, tmp_path):
        store = FileSessionStore(tmp_path)
        session = _session()
        store.checkpoint(session)
        session.add_answer(5, 1, 1)
        second = store.checkpoint(session)
        assert store.restore().checkpoint.checkpoint_id \
            == second.checkpoint_id
        assert store.restore().session.stats.n_answers \
            == session.stats.n_answers


class TestWalSemantics:
    def test_torn_final_wal_line_is_dropped(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.append(state_events.answer_event(0, 0, 1))
        store.append(state_events.answer_event(1, 1, 0))
        with open(store.root / "wal.jsonl", "a", encoding="utf-8") as f:
            f.write('{"kind": "answer", "obj": 2')  # no newline: torn
        reopened = FileSessionStore(tmp_path)
        records = reopened.wal_records()
        assert len(records) == 2
        assert [r["kind"] for r in records] == ["answer", "answer"]

    def test_malformed_interior_wal_line_is_corruption(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.append(state_events.answer_event(0, 0, 1))
        with open(store.root / "wal.jsonl", "a", encoding="utf-8") as f:
            f.write("NOT JSON\n")
        store.append(state_events.answer_event(1, 1, 0))  # valid line after
        with pytest.raises(CheckpointCorruptionError):
            FileSessionStore(tmp_path)

    def test_unknown_wal_kind_is_corruption(self):
        session = ValidationSession(2, 2, 2)
        with pytest.raises(CheckpointCorruptionError):
            state_events.replay_events(session, [{"kind": "mystery"}])

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        """A reopened store appends after the last whole record, not behind
        the torn fragment, so the next open still reads every record."""
        store = FileSessionStore(tmp_path)
        store.append(state_events.answer_event(0, 0, 1))
        store.append(state_events.answer_event(1, 1, 0))
        with open(store.root / "wal.jsonl", "a", encoding="utf-8") as f:
            f.write('{"kind": "answer", "obj": 2')  # no newline: torn
        reopened = FileSessionStore(tmp_path)
        assert reopened.append(state_events.answer_event(2, 2, 1)) == 3
        assert reopened.append(state_events.conclude_event()) == 4
        records = FileSessionStore(tmp_path).wal_records()
        assert len(records) == 4
        assert [r["kind"] for r in records] == ["answer"] * 3 + ["conclude"]

    def test_first_append_never_cuts_a_whole_record(self, tmp_path):
        """Records another store appended after this one opened are
        counted, not cut, when this store opens its descriptor."""
        early = FileSessionStore(tmp_path)
        other = FileSessionStore(tmp_path)
        other.append(state_events.step_event(0))
        other.append(state_events.step_event(1))
        assert early.append(state_events.conclude_event()) == 3
        assert early.step_before(3) == 1
        assert [r["kind"] for r in FileSessionStore(tmp_path).wal_records()] \
            == ["step", "step", "conclude"]

    def test_reading_never_writes_the_wal(self, tmp_path):
        """Opening and reading leave the bytes alone, torn tail and all;
        on an empty root the WAL is not even created."""
        empty = FileSessionStore(tmp_path / "empty")
        assert empty.wal_records() == []
        assert not (tmp_path / "empty" / "wal.jsonl").exists()
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b'{"kind":"step","step":3}\n{"kind": "ans')
        store = FileSessionStore(tmp_path)
        assert store.wal_position == 1
        assert store.wal_records() == [state_events.step_event(3)]
        assert store.step_before(1) == 3
        store.close()
        assert path.read_bytes() == b'{"kind":"step","step":3}\n{"kind": "ans'

    def test_wal_bytes_are_compact_json_lines(self, tmp_path):
        records = [
            state_events.answer_event(0, 1, 2, grow=True,
                                      on_conflict="ignore"),
            state_events.validation_event(3, 1, overwrite=True),
            state_events.retract_event(3),
            state_events.mask_event({2, 0}),
            state_events.grow_event(n_objects=9, n_workers=5),
            state_events.conclude_event(),
            state_events.conclude_object_event(4, revoke=True),
            state_events.step_event(7)]
        assert {r["kind"] for r in records} == set(state_events.EVENT_KINDS)
        store = FileSessionStore(tmp_path)
        for record in records:
            store.append(record)
        assert (tmp_path / "wal.jsonl").read_bytes() == "".join(
            json.dumps(r, separators=(",", ":")) + "\n"
            for r in records).encode()
        assert FileSessionStore(tmp_path).wal_records() == records

    def test_close_releases_the_descriptor(self, tmp_path):
        """``close`` is idempotent, and a later append opens it again."""
        store = FileSessionStore(tmp_path)
        store.append(state_events.step_event(0))
        store.close()
        store.close()
        assert store.append(state_events.step_event(1)) == 2
        store.close()
        reopened = FileSessionStore(tmp_path)
        assert [r["step"] for r in reopened.wal_records()] == [0, 1]
        assert reopened.wal_records(1) == [state_events.step_event(1)]

    def test_restore_replays_wal_tail_after_checkpoint(self, tmp_path):
        """Events logged after the last checkpoint are reapplied — the
        restore point is the WAL head, not the checkpoint."""
        store = FileSessionStore(tmp_path)
        session = _session()
        store.checkpoint(session)
        store.append(state_events.answer_event(5, 1, 1))
        session.add_answer(5, 1, 1)
        store.append(state_events.conclude_event())
        session.conclude()

        restored = store.restore()
        assert restored.n_replayed == 2
        assert restored.session.stats.n_answers == session.stats.n_answers
        np.testing.assert_array_equal(restored.session.model.assignment,
                                      session.model.assignment)


class TestStoreParity:
    """Both stores log, index and refuse records alike."""

    def test_unknown_kind_is_refused_before_any_byte(self, any_store,
                                                    tmp_path):
        any_store.append(state_events.step_event(0))
        with pytest.raises(ValueError, match="unknown WAL record kind"):
            any_store.append({"kind": "answr", "object": 0, "worker": 0,
                              "label": 1})
        assert any_store.wal_position == 1
        assert any_store.wal_records() == [state_events.step_event(0)]
        if isinstance(any_store, FileSessionStore):
            assert (tmp_path / "wal.jsonl").read_bytes() \
                == b'{"kind":"step","step":0}\n'

    def test_step_before_finds_the_last_earlier_marker(self, any_store,
                                                       tmp_path):
        for record in (state_events.conclude_event(),
                       state_events.step_event(3),
                       state_events.conclude_event(),
                       state_events.step_event(4)):
            any_store.append(record)
        expected = [None, None, 3, 3, 4]
        assert [any_store.step_before(p) for p in range(5)] == expected
        if isinstance(any_store, FileSessionStore):
            reopened = FileSessionStore(tmp_path)
            assert [reopened.step_before(p) for p in range(5)] == expected

    def test_step_from_before_a_long_history_checkpoint(self, any_store):
        """With no marker in the tail, ``restore().step`` is the last
        marker logged before the checkpoint."""
        restored = _restore_after_steps(any_store, 20_000)
        assert restored.n_replayed == 2
        assert restored.step == 20_000 - 1


def _restore_after_steps(store, n_steps: int):
    """``n_steps`` step markers, a checkpoint, a 2-record tail, restore."""
    for step in range(n_steps):
        store.append(state_events.step_event(step))
    store.checkpoint(_session())
    store.append(state_events.answer_event(5, 1, 1))
    store.append(state_events.validation_event(2, 0))
    return store.restore()


class TestRecoveryReadsTheTail:
    def test_restore_memory_does_not_grow_with_history(self, tmp_path):
        """The restore decodes only the tail: quadrupling the history
        before the checkpoint leaves its allocation peak flat."""
        peaks = []
        for n_steps in (10_000, 40_000):
            root = tmp_path / str(n_steps)
            writer = FileSessionStore(root)
            _restore_after_steps(writer, n_steps)
            writer.close()
            store = FileSessionStore(root)
            store.restore()  # warm the one-time caches
            tracemalloc.start()
            try:
                restored = store.restore()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert restored.step == n_steps - 1
        assert peaks[1] < peaks[0] + 256 * 1024, peaks


class TestCheckpointWalPosition:
    """A manifest ``wal_position`` outside ``[0, records in the WAL]``
    makes its checkpoint corrupt."""

    @pytest.mark.parametrize("position", [-2, 10**6])
    def test_out_of_range_position_is_scanned_back(self, tmp_path,
                                                   position):
        store = FileSessionStore(tmp_path)
        live = _session()
        store.checkpoint(live)
        store.append(state_events.answer_event(5, 1, 1))
        store.append(state_events.conclude_event())
        live.add_answer(5, 1, 1)
        live.conclude()
        store.checkpoint(live)
        store.append(state_events.answer_event(4, 3, 1))
        live.add_answer(4, 3, 1)
        _edit_manifest(store, lambda m: m.update(wal_position=position))

        log = EventLog()
        restored = store.restore(event_log=log)
        assert restored.checkpoint.checkpoint_id == 0
        assert restored.skipped_checkpoints == (1,)
        assert log.count("checkpoint-scan-back") == 1
        assert restored.n_replayed == 3
        assert restored.session.capture_state().equals(live.capture_state())
        with pytest.raises(CheckpointCorruptionError, match="WAL record"):
            store.restore(1)


def _validate_out_of_range(store: FileSessionStore) -> None:
    path = _checkpoint_dir(store) / "segment-000.npz"
    with np.load(path) as segment:
        arrays = dict(segment)
    arrays["validated_labels"][:] = 5  # the session has 2 labels
    np.savez(path, **arrays)


class TestScanBackPastEveryField:
    """A newest checkpoint whose every file parses but one field cannot
    rebuild a session is corrupt: ``restore()`` scans back past it to the
    intact older checkpoint instead of raising from the rebuild."""

    @pytest.mark.parametrize("corrupt", [
        pytest.param(_validate_out_of_range, id="validated-label"),
        pytest.param(lambda store: _edit_manifest(
            store, lambda m: m.pop("rng_state")), id="no-rng-state"),
        pytest.param(lambda store: _edit_manifest(
            store, lambda m: m["config"].pop("init")), id="no-config-init"),
        pytest.param(lambda store: _edit_manifest(
            store, lambda m: m["rng_state"].update(state=None)),
            id="unloadable-rng-state"),
        pytest.param(lambda store: _edit_manifest(
            store, lambda m: m["config"].update(init="bogus")),
            id="unknown-init"),
        pytest.param(lambda store: _edit_manifest(
            store, lambda m: m["config"].update(on_conflict="bogus")),
            id="unknown-conflict-policy"),
    ])
    def test_corrupt_newest_checkpoint_is_scanned_back(self, tmp_path,
                                                       corrupt):
        store = FileSessionStore(tmp_path)
        live = _session()
        live.attach_journal(store)
        store.checkpoint(live)
        live.add_answer(5, 1, 1)
        live.conclude()
        store.checkpoint(live)
        store.close()
        corrupt(store)

        log = EventLog()
        restored = store.restore(event_log=log)
        assert restored.checkpoint.checkpoint_id == 0
        assert restored.skipped_checkpoints == (1,)
        assert log.count("checkpoint-scan-back") == 1
        assert restored.session.capture_state().equals(live.capture_state())
        with pytest.raises((CheckpointCorruptionError,
                            CheckpointDimensionError)):
            store.load_state(1)


class TestUnreplayableTail:
    """The journal logs only calls the session accepted, so a tail record
    the session refuses is corruption, named by its WAL position."""

    @pytest.mark.parametrize("record, cause", [
        pytest.param({"kind": "answer", "object": 1}, KeyError,
                     id="answer-without-worker"),
        pytest.param(state_events.answer_event(1, 1, 9),
                     InvalidAnswerSetError, id="label-outside-vocabulary"),
    ])
    def test_refused_tail_record_is_corruption(self, any_store, record,
                                               cause):
        any_store.checkpoint(_session())
        any_store.append(state_events.answer_event(5, 1, 1))
        any_store.append(record)
        with pytest.raises(CheckpointCorruptionError,
                           match="WAL record 1 ") as caught:
            any_store.restore()
        assert isinstance(caught.value.__cause__, cause)


class TestOldManifests:
    """Manifests written before the scatter switch was retired still load.

    Older writers recorded ``config.use_plan`` (true or false). Every
    kernel path was bit-identical, so the key carries no state: readers
    ignore it, new manifests omit it, and the schema version stays put.
    """

    def test_use_plan_false_manifest_restores_bit_exactly(self, tmp_path):
        store = FileSessionStore(tmp_path)
        live = _session()
        store.checkpoint(live)
        _edit_manifest(store, lambda manifest:
                       manifest["config"].update(use_plan=False))

        restored = store.restore().session
        assert restored.capture_state().equals(live.capture_state())
        for session in (live, restored):
            session.add_answer(5, 1, 1)
            session.add_validation(2, 0)
            session.conclude()
        for name in ("assignment", "confusions", "priors"):
            np.testing.assert_array_equal(getattr(restored.model, name),
                                          getattr(live.model, name))
        assert restored.total_em_iterations == live.total_em_iterations

    def test_new_manifest_has_no_use_plan_key(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.checkpoint(_session())
        manifest = json.loads(
            (_checkpoint_dir(store) / "manifest.json").read_text())
        assert "use_plan" not in manifest["config"]
        assert manifest["schema_version"] == STATE_SCHEMA_VERSION == 1


class TestMemoryStoreParity:
    """The in-memory store honors the same interface contracts."""

    def test_not_found_on_empty(self):
        store = MemorySessionStore()
        with pytest.raises(CheckpointNotFoundError):
            store.restore()

    def test_records_are_insulated_from_caller_mutation(self):
        store = MemorySessionStore()
        record = state_events.mask_event({1, 2})
        store.append(record)
        record["workers"].append(99)
        assert store.wal_records()[0]["workers"] == [1, 2]

    def test_checkpoint_snapshot_is_immune_to_later_mutation(self):
        store = MemorySessionStore()
        session = _session()
        before = session.stats.n_answers
        store.checkpoint(session)
        session.add_answer(5, 1, 1)
        assert store.restore().session.stats.n_answers == before
