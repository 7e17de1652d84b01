"""The journaled session: one mutation path, logged by construction.

A :class:`~repro.streaming.ValidationSession` with a store attached
(:meth:`~repro.streaming.ValidationSession.attach_journal`) checks each
mutating call, appends its write-ahead-log record, and only then applies
it. Two contracts are pinned here:

* **the WAL bytes of every durable driver** — the process loop, the
  scenario runner's kill-and-resume and under-faults paths, and the
  event-stream replay — by sha256 and record count. Like
  ``CHAOS_events.json``, these values are re-recorded only by a change
  that moves floats on purpose (the quality-target conclusions and the
  kill points follow the posteriors);
* **a refused call writes nothing** — a random mix of valid and refused
  mutations on a journaled session, with checkpoints at random points,
  always restores to a session equal to the live one.
"""

from __future__ import annotations

import contextlib
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import AnswerSet
from repro.errors import InvalidAnswerSetError, InvalidValidationError
from repro.experts import ScriptedExpert
from repro.guidance.hybrid import HybridStrategy
from repro.process import ValidationProcess
from repro.process.goals import QualityTarget
from repro.scenarios import ScenarioRunner, compile_registered
from repro.simulation.stream import AnswerEvent, ValidationEvent, replay
from repro.state import FileSessionStore, MemorySessionStore
from repro.streaming import ValidationSession

#: What a session raises for a call it refuses.
REFUSED = (InvalidAnswerSetError, InvalidValidationError, ValueError)


# ----------------------------------------------------------------------
# WAL pins
# ----------------------------------------------------------------------
def _wal_digest(root: Path) -> tuple[str, int]:
    data = (root / "wal.jsonl").read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def _process_run(store: FileSessionStore) -> None:
    """Algorithm 1 with every logged mutation kind: validations (the
    confirmation check re-elicits with ``overwrite``), non-empty worker
    masks, construction-time and per-step ``conclude-object`` records,
    cadence checkpoints."""
    scenario = compile_registered("fallible-expert")
    ValidationProcess(
        scenario.answer_set,
        ScriptedExpert({i: int(label)
                        for i, label in enumerate(scenario.expert_labels)}),
        goal=QualityTarget(0.999, 1.0), gold=scenario.gold, budget=16,
        confirmation_interval=3, handle_faulty=True,
        store=store, checkpoint_every=4, rng=7).run()


def _runner() -> ScenarioRunner:
    # The hybrid strategy draws worker-branch steps, so the recorded
    # steps carry non-empty masks.
    return ScenarioRunner(n_kills=3, checkpoint_every=2,
                          quality_target=QualityTarget(0.999, 1.0),
                          strategy_factory=lambda lookahead: HybridStrategy())


def _recorded_run():
    runner = _runner()
    scenario = compile_registered("fallible-expert")
    process, steps = runner.run_batch(scenario, "exact")
    return runner, scenario, steps, process.session


def _crash_resume_run(store: FileSessionStore) -> None:
    runner, scenario, steps, template = _recorded_run()
    runner.replay_crash_resume(scenario, steps, template, store=store)


def _faults_run(store: FileSessionStore) -> None:
    runner, scenario, steps, template = _recorded_run()
    runner.replay_under_faults(scenario, steps, template, store=store,
                               n_kills=1)


def _stream_run(name: str, **kwargs):
    """The event-stream replay from a 1×1 session: answers and validations
    past the current dimensions grow it."""
    def run(store: FileSessionStore) -> None:
        scenario = compile_registered(name)
        session = ValidationSession(1, 1, scenario.n_labels)
        replay(scenario.events(), session, store=store,
               conclude_every=len(scenario.answer_events) // 3,
               checkpoint_every_seconds=scenario.answer_events[-1].time / 2,
               **kwargs)
    return run


#: name -> (driver, sha256 of wal.jsonl, WAL records).
WAL_PINS = {
    "process": (
        _process_run,
        "efd46e0d31275b104532c80b6d79bfab6c57ac5c5a89634d84ec3d2d5b15c9bf",
        64),
    # Paths 4 and 5 log the same records: kills, retries and injected
    # faults change how a record gets applied, never which one is logged.
    "crash-resume": (
        _crash_resume_run,
        "44e5c28dddc5b6ba2d9651760b23de6de0d6c7722333269de0dceaa6ce76a04f",
        93),
    "faults": (
        _faults_run,
        "44e5c28dddc5b6ba2d9651760b23de6de0d6c7722333269de0dceaa6ce76a04f",
        93),
    # From a 1×1 start, validations past n_objects grow the session
    # without a grow record (once on label-skew, twice on
    # sharded-multiblock).
    "stream-label-skew": (
        _stream_run("label-skew"),
        "4e6fc5531f6bc3a8570a46d70367e4ddcce6b94f51035a162a2df9763dcf91c1",
        340),
    "stream-sharded-multiblock": (
        _stream_run("sharded-multiblock"),
        "3b421a2c8e9222efce0fa6035affe138ecc7a4f22d0d342474743db88158b380",
        212),
    # Exact duplicates and dropped conflicts are logged too: replay
    # needs them to rebuild n_conflicts.
    "stream-duplicates": (
        _stream_run("duplicate-resubmissions", on_conflict="ignore"),
        "2e7fa73bebaa2745382c6ad389f3b7963928e205b288ed598f19b85d37d1fc8e",
        331),
}


@pytest.mark.parametrize("name", sorted(WAL_PINS))
def test_driver_wal_bytes_are_pinned(name, tmp_path):
    run, sha256, n_records = WAL_PINS[name]
    store = FileSessionStore(tmp_path)
    run(store)
    store.close()
    assert _wal_digest(tmp_path) == (sha256, n_records)
    restored = FileSessionStore(tmp_path).restore()
    assert restored.session.has_model


# ----------------------------------------------------------------------
# A refused call writes nothing
# ----------------------------------------------------------------------
def _make_store(backend: str, root) -> MemorySessionStore | FileSessionStore:
    return MemorySessionStore() if backend == "memory" \
        else FileSessionStore(root)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    store = _make_store(request.param, tmp_path)
    yield store
    if isinstance(store, FileSessionStore):
        store.close()


def _journaled(store) -> ValidationSession:
    """A 3×3 session (2 labels) with a checkpoint and a WAL tail."""
    session = ValidationSession(3, 3, 2)
    session.attach_journal(store)
    session.add_answer(0, 0, 1)
    session.add_answer(1, 1, 0)
    session.add_validation(2, 1)
    store.checkpoint(session)
    session.add_answer(2, 2, 1)
    session.set_masked_workers([1])
    session.conclude()
    return session


#: name -> (refused call, what it raises).
REFUSALS = {
    "conflicting answer under error": (
        lambda s: s.add_answer(0, 0, 0), InvalidAnswerSetError),
    "object past n_objects": (
        lambda s: s.add_answer(3, 0, 0), InvalidAnswerSetError),
    "negative object with grow": (
        lambda s: s.add_answer(-1, 5, 0, grow=True), InvalidAnswerSetError),
    "worker past n_workers": (
        lambda s: s.add_answer(0, 3, 1), InvalidAnswerSetError),
    "answer label outside [0, m)": (
        lambda s: s.add_answer(2, 0, 2), InvalidAnswerSetError),
    "answer label outside [0, m) under ignore": (
        lambda s: s.add_answer(0, 0, 2, on_conflict="ignore"),
        InvalidAnswerSetError),
    "unknown conflict policy": (
        lambda s: s.add_answer(2, 0, 0, on_conflict="last"), ValueError),
    "validation object past n_objects": (
        lambda s: s.add_validation(3, 0), InvalidValidationError),
    "validation label outside [0, m)": (
        lambda s: s.add_validation(0, 5), InvalidValidationError),
    "validation label outside [0, m) with grow": (
        lambda s: s.add_validation(7, 5, grow=True), InvalidValidationError),
    "re-validation without overwrite": (
        lambda s: s.add_validation(2, 0), InvalidValidationError),
    "retraction past n_objects": (
        lambda s: s.retract_validation(3), InvalidValidationError),
    "masked worker past n_workers": (
        lambda s: s.set_masked_workers([0, 3]), InvalidAnswerSetError),
    "shrinking grow": (
        lambda s: s.grow(n_objects=2), ValueError),
    "grow that shrinks one axis": (
        lambda s: s.grow(n_objects=5, n_workers=2), ValueError),
    "conclusion of a negative object": (
        lambda s: s.conclude_object(-1), InvalidValidationError),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_call_writes_nothing(name, store):
    session = _journaled(store)
    call, error = REFUSALS[name]
    before = session.capture_state()
    position = store.wal_position
    with pytest.raises(error):
        call(session)
    assert store.wal_position == position
    assert session.capture_state().equals(before)
    assert store.restore().session.capture_state().equals(before)


@pytest.mark.parametrize("event, error", [
    (AnswerEvent(0.3, 0, 0, 0), InvalidAnswerSetError),
    (ValidationEvent(0.3, 0, 5), InvalidValidationError),
], ids=["conflicting-answer", "label-outside-range"])
def test_refused_stream_event_leaves_the_wal_restorable(event, error, store):
    """The stream replay logs through the session, so an event the session
    refuses never reaches the WAL and every later restore still works."""
    session = ValidationSession(2, 2, 2)
    session.add_answer(0, 0, 1)
    store.checkpoint(session)
    before = session.capture_state()
    with pytest.raises(error):
        replay([event], session, store=store)
    assert store.restore().session.capture_state().equals(before)
    assert store.wal_position == 0


def test_attached_journal_logs_each_call_once(store):
    """Internal calls add no record of their own: the growth inside
    ``add_answer(grow=True)``, the loop of ``add_answers``, the solve
    inside ``conclude_snapshot``; an unchanged mask is still logged."""
    session = ValidationSession(1, 1, 2)
    session.attach_journal(store)
    store.checkpoint(session)
    session.add_answer(4, 3, 1, grow=True)
    session.add_answers([(0, 0, 1), (0, 0, 1)])
    session.add_validation(6, 0, grow=True)
    session.set_masked_workers([])
    session.conclude_snapshot()
    session.conclude_object(2)
    session.conclude_object(2)
    session.mark_step(7)
    session.attach_journal(None)
    session.conclude()  # detached: not logged
    kinds = [record["kind"] for record in store.wal_records()]
    assert kinds == ["answer", "answer", "answer", "validation", "mask",
                     "conclude", "conclude-object", "conclude-object",
                     "step"]
    restored = store.restore()
    assert restored.step == 7
    assert (restored.session.n_objects, restored.session.n_workers) == (7, 4)


def test_restored_session_starts_detached(store):
    session = _journaled(store)
    restored = store.restore().session
    position = store.wal_position
    restored.add_answer(2, 0, 0)
    restored.conclude()
    assert store.wal_position == position


def _session_view(store):
    session = _journaled(store)
    return session, session.validation


def _process_view(store):
    """A journaled process over 3 objects, one validation in."""
    answers = AnswerSet(np.array([[0, 0, 1], [1, 1, -1], [0, 1, 1]]),
                        ("a", "b"))
    process = ValidationProcess(answers, ScriptedExpert({0: 0, 1: 1, 2: 1}),
                                store=store, rng=0)
    process.step()
    return process.session, process.validation


#: owner -> (a journaled session, the validation view its owner hands out).
VIEW_OWNERS = {"session": _session_view, "process": _process_view}


@pytest.mark.parametrize("owner", sorted(VIEW_OWNERS))
@pytest.mark.parametrize("write", [
    lambda view: view.assign(0, 1, overwrite=True),
    lambda view: view.retract(2),
], ids=["assign", "retract"])
def test_view_writes_are_refused(owner, write, store):
    """The journaled methods are the only way to change a validation: a
    write through the view raises and leaves no trace."""
    session, view = VIEW_OWNERS[owner](store)
    before = session.capture_state()
    position = store.wal_position
    with pytest.raises(InvalidValidationError):
        write(view)
    assert store.wal_position == position
    assert session.capture_state().equals(before)


def test_view_write_cannot_bypass_the_journal(store):
    """A write through ``session.validation`` once changed the live session
    without a WAL record, so a restore after the next conclude lacked the
    validation and its posterior was off by 0.5."""
    session = ValidationSession(3, 2, 2)
    session.attach_journal(store)
    session.add_answers([(0, 0, 0), (0, 1, 1), (1, 0, 1), (2, 1, 0)])
    store.checkpoint(session)
    with contextlib.suppress(InvalidValidationError):
        session.validation.assign(0, 1)
    session.conclude()
    restored = store.restore().session
    assert np.array_equal(restored.posteriors(), session.posteriors())
    assert restored.capture_state().equals(session.capture_state())


_OBJECTS = st.integers(-1, 4)
_WORKERS = st.integers(-1, 4)
_LABELS = st.integers(-1, 3)
_POLICIES = st.sampled_from([None, "error", "ignore"])
_SIZES = st.one_of(st.none(), st.integers(0, 6))

#: Every mutating call, drawn over ranges that hold valid and refused
#: arguments, plus checkpoints: ``(method, args, kwargs)``.
_CALLS = st.one_of(
    st.tuples(st.just("add_answer"),
              st.tuples(_OBJECTS, _WORKERS, _LABELS),
              st.fixed_dictionaries({"grow": st.booleans(),
                                     "on_conflict": _POLICIES})),
    st.tuples(st.just("add_answers"),
              st.tuples(st.lists(st.tuples(_OBJECTS, _WORKERS, _LABELS),
                                 max_size=3)),
              st.fixed_dictionaries({"grow": st.booleans(),
                                     "on_conflict": _POLICIES})),
    st.tuples(st.just("add_validation"), st.tuples(_OBJECTS, _LABELS),
              st.fixed_dictionaries({"overwrite": st.booleans(),
                                     "grow": st.booleans()})),
    st.tuples(st.just("retract_validation"), st.tuples(_OBJECTS),
              st.just({})),
    st.tuples(st.just("set_masked_workers"),
              st.tuples(st.lists(_WORKERS, max_size=3)), st.just({})),
    st.tuples(st.just("grow"), st.just(()),
              st.fixed_dictionaries({"n_objects": _SIZES,
                                     "n_workers": _SIZES})),
    st.tuples(st.just("conclude"), st.just(()), st.just({})),
    st.tuples(st.just("conclude_object"), st.tuples(_OBJECTS),
              st.fixed_dictionaries({"revoke": st.booleans()})),
    st.tuples(st.just("mark_step"), st.tuples(st.integers(0, 99)),
              st.just({})),
    st.tuples(st.just("checkpoint"), st.just(()), st.just({})),
)


@settings(max_examples=60, deadline=None)
@given(backend=st.sampled_from(["memory", "file"]),
       on_conflict=st.sampled_from(["error", "ignore"]),
       calls=st.lists(_CALLS, max_size=30))
def test_restore_equals_live_after_any_mutations(backend, on_conflict,
                                                 calls):
    with tempfile.TemporaryDirectory() as root:
        store = _make_store(backend, root)
        session = ValidationSession(2, 2, 3, on_conflict=on_conflict)
        session.attach_journal(store)
        store.checkpoint(session)
        last_step = None
        for method, args, kwargs in calls:
            if method == "checkpoint":
                store.checkpoint(session)
                continue
            before = session.capture_state()
            position = store.wal_position
            try:
                getattr(session, method)(*args, **kwargs)
            except REFUSED:
                # add_answers refuses answer by answer: those before the
                # refused one stay applied, and logged.
                if method != "add_answers":
                    assert store.wal_position == position
                    assert session.capture_state().equals(before)
                continue
            if method == "mark_step":
                last_step = args[0]
        restored = store.restore()
        assert restored.session.capture_state().equals(
            session.capture_state())
        assert restored.step == last_step
        if backend == "file":
            store.close()


if __name__ == "__main__":
    for name, (run, _, _) in WAL_PINS.items():
        with tempfile.TemporaryDirectory() as root:
            store = FileSessionStore(root)
            run(store)
            store.close()
            print(name, *_wal_digest(Path(root)))
