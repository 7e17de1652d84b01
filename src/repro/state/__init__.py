"""Durable session state: snapshots, checkpoint stores, crash recovery.

This package extracts the mutable state of a
:class:`~repro.streaming.ValidationSession` — the answer log, expert
validations, warm-start model, concluded mask, RNG stream, and counters —
behind a small :class:`SessionStore` interface:

* :class:`MemorySessionStore` — in-process value copies (the default;
  identical semantics, zero durability);
* :class:`FileSessionStore` — npz segments + JSON manifest + JSONL
  write-ahead log, crash-safe via atomic manifest commits.

``store.checkpoint(session)`` persists a full :class:`SessionState`,
which ``session.capture_state()`` captures and
``SessionState.restore(telemetry=...)`` turns back into a session. A
session attached to the store with
:meth:`~repro.streaming.ValidationSession.attach_journal` appends one
record per mutating call, after checking it and before applying it; the
records between checkpoints form the WAL tail that ``store.restore()``
replays through the same methods (:func:`replay_events`), yielding a
session bit-for-bit equal to the one that died. A call the session
refuses writes nothing. See :func:`repro.simulation.stream.replay`
(``store=``/``checkpoint_every_seconds=``) and
:class:`repro.process.validation_process.ValidationProcess`
(``store=``/``checkpoint_every=``) for the wired-in cadences, and
:meth:`repro.scenarios.ScenarioRunner.replay_crash_resume` for the
conformance harness that proves the L∞ = 0.0 contract on every registry
scenario.
"""

from repro.state.filestore import FileSessionStore
from repro.state.snapshot import STATE_SCHEMA_VERSION, SessionState
from repro.state.store import (CheckpointInfo, MemorySessionStore,
                               RestoredSession, SessionStore, answer_event,
                               conclude_event, grow_event, mask_event,
                               replay_events, retract_event, step_event,
                               validation_event)

__all__ = [
    "STATE_SCHEMA_VERSION",
    "SessionState",
    "SessionStore",
    "MemorySessionStore",
    "FileSessionStore",
    "CheckpointInfo",
    "RestoredSession",
    "replay_events",
    "answer_event",
    "validation_event",
    "retract_event",
    "mask_event",
    "grow_event",
    "conclude_event",
    "step_event",
]
