"""Session stores: durable checkpoint/restore + event write-ahead logging.

A :class:`SessionStore` persists two complementary things:

* **checkpoints** — full :class:`~repro.state.snapshot.SessionState`
  snapshots taken at a caller-chosen cadence;
* a **write-ahead log (WAL)** — the stream of session mutations (answers,
  validations, masking, refinements), each appended by a journaled
  session (:meth:`~repro.streaming.ValidationSession.attach_journal`)
  after its input checks and before it is applied, so a restore can
  replay the tail that arrived *after* the latest checkpoint.

Restore = load the newest checkpoint + replay the WAL suffix recorded
since it. Because the WAL includes ``conclude`` markers and every replayed
refinement warm-starts exactly as the live one did, the restored session is
**bit-for-bit** equal to the session at the moment of the last logged
event — the property the crash/resume conformance path of
:class:`repro.scenarios.ScenarioRunner` pins with L∞ = 0.0 assertions.

Two implementations: :class:`MemorySessionStore` (the in-process default,
value-copy semantics, zero I/O) and
:class:`~repro.state.filestore.FileSessionStore` (npz segments + JSON
manifest, crash-safe via atomic manifest writes).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import (CheckpointCorruptionError,
                          CheckpointDimensionError,
                          CheckpointNotFoundError, CheckpointSchemaError,
                          ReproError)
from repro.state.snapshot import SessionState

#: WAL record kinds understood by :func:`replay_events`.
EVENT_KINDS = ("answer", "validation", "retract", "mask", "grow",
               "conclude", "conclude-object", "step")


@dataclass(frozen=True)
class CheckpointInfo:
    """Bookkeeping for one stored checkpoint."""

    checkpoint_id: int
    wal_position: int
    n_answers: int
    n_validated: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RestoredSession:
    """Result of :meth:`SessionStore.restore`.

    Attributes
    ----------
    session:
        The rebuilt live session, WAL tail already replayed.
    checkpoint:
        The checkpoint the restore started from.
    n_replayed:
        WAL records replayed on top of the checkpoint.
    step:
        Value of the last ``step`` marker seen across the whole WAL
        (``None`` if the driver never logged one). Drivers use this to
        resume their own loop at the right position.
    skipped_checkpoints:
        Ids of newer checkpoints that were corrupt/unreadable and were
        scanned past to reach this one, newest first (empty on the happy
        path).
    """

    session: object
    checkpoint: CheckpointInfo
    n_replayed: int
    step: int | None
    skipped_checkpoints: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# WAL records
# ----------------------------------------------------------------------
def answer_event(obj: int, worker: int, label: int, *,
                 grow: bool = False,
                 on_conflict: str | None = None) -> dict:
    record = {"kind": "answer", "object": int(obj), "worker": int(worker),
              "label": int(label)}
    if grow:
        record["grow"] = True
    if on_conflict is not None:
        record["on_conflict"] = on_conflict
    return record


def validation_event(obj: int, label: int, *,
                     overwrite: bool = False) -> dict:
    record = {"kind": "validation", "object": int(obj), "label": int(label)}
    if overwrite:
        record["overwrite"] = True
    return record


def retract_event(obj: int) -> dict:
    return {"kind": "retract", "object": int(obj)}


def mask_event(workers) -> dict:
    return {"kind": "mask", "workers": sorted(int(w) for w in workers)}


def grow_event(n_objects: int | None = None,
               n_workers: int | None = None) -> dict:
    record = {"kind": "grow"}
    if n_objects is not None:
        record["n_objects"] = int(n_objects)
    if n_workers is not None:
        record["n_workers"] = int(n_workers)
    return record


def conclude_event() -> dict:
    return {"kind": "conclude"}


def conclude_object_event(obj: int, *, revoke: bool = False) -> dict:
    """A quality target concluded (or revoked) one object's early stop."""
    record = {"kind": "conclude-object", "object": int(obj)}
    if revoke:
        record["revoke"] = True
    return record


def step_event(step: int) -> dict:
    return {"kind": "step", "step": int(step)}


def replay_events(session, records) -> tuple[int, int | None]:
    """Apply WAL records to a session; returns ``(n_applied, last_step)``.

    Replays mutations exactly as the original driver issued them —
    including ``conclude`` refinements, so the warm-start chain (and hence
    every float of the model) is reproduced bit-for-bit. The session must
    have no journal attached, or the replay would log the records again.
    """
    applied = 0
    last_step = None
    for record in records:
        step = _apply_event(session, record)
        if step is not None:
            last_step = step
        applied += 1
    return applied, last_step


def _apply_event(session, record: dict) -> int | None:
    """Apply one WAL record; returns the step of a ``step`` marker.

    This is the one table from record kind to session method.
    """
    kind = record.get("kind")
    if kind == "answer":
        session.add_answer(record["object"], record["worker"],
                           record["label"],
                           grow=record.get("grow", False),
                           on_conflict=record.get("on_conflict"))
    elif kind == "validation":
        # The record does not say whether the call grew the session;
        # a logged validation past n_objects came with grow=True.
        session.add_validation(record["object"], record["label"],
                               overwrite=record.get("overwrite", False),
                               grow=True)
    elif kind == "retract":
        session.retract_validation(record["object"])
    elif kind == "mask":
        session.set_masked_workers(record["workers"])
    elif kind == "grow":
        session.grow(n_objects=record.get("n_objects"),
                     n_workers=record.get("n_workers"))
    elif kind == "conclude":
        session.conclude()
    elif kind == "conclude-object":
        session.conclude_object(record["object"],
                                revoke=record.get("revoke", False))
    elif kind == "step":
        return int(record["step"])
    else:
        raise CheckpointCorruptionError(f"unknown WAL record kind {kind!r}")
    return None


# ----------------------------------------------------------------------
# The store interface
# ----------------------------------------------------------------------
class SessionStore(ABC):
    """Checkpoint + WAL persistence for one validation session."""

    #: The store's own :class:`repro.resilience.EventLog`, if any.
    event_log = None

    @abstractmethod
    def append(self, record: dict) -> int:
        """Append one WAL record; returns the new WAL length.

        A record whose ``kind`` is not in :data:`EVENT_KINDS` raises
        ``ValueError`` before anything is logged.
        """

    @property
    @abstractmethod
    def wal_position(self) -> int:
        """Number of WAL records appended so far."""

    @abstractmethod
    def checkpoint(self, session, *,
                   meta: dict | None = None) -> CheckpointInfo:
        """Persist a full snapshot of ``session`` at the current WAL head."""

    @abstractmethod
    def checkpoints(self) -> list[CheckpointInfo]:
        """All stored checkpoints, oldest first."""

    @abstractmethod
    def load_state(self, checkpoint_id: int | None = None) -> SessionState:
        """Load a checkpoint's raw state (latest when ``id`` is omitted)."""

    @abstractmethod
    def wal_records(self, start: int = 0) -> list[dict]:
        """WAL records from position ``start`` (inclusive) to the head."""

    @abstractmethod
    def step_before(self, position: int) -> int | None:
        """Value of the last ``step`` marker among the first ``position``
        WAL records (``None`` if there is none)."""

    def _load_checked(self, info: CheckpointInfo) -> SessionState:
        """``load_state`` for a checkpoint whose WAL position is in range."""
        if not 0 <= info.wal_position <= self.wal_position:
            raise CheckpointCorruptionError(
                f"checkpoint {info.checkpoint_id} starts at WAL record "
                f"{info.wal_position}, outside the {self.wal_position} "
                f"records logged")
        return self.load_state(info.checkpoint_id)

    def restore(self, checkpoint_id: int | None = None, *,
                event_log=None) -> RestoredSession:
        """Rebuild the live session: newest checkpoint + WAL tail replay.

        With no explicit ``checkpoint_id``, a corrupt/unreadable latest
        checkpoint is **scanned back**: the store walks to the newest
        *valid* checkpoint, replays the (longer) WAL tail from there, and
        reports the skipped ids in
        :attr:`RestoredSession.skipped_checkpoints` — recording one
        ``"checkpoint-scan-back"`` event per skip into ``event_log``
        (the store's own :attr:`event_log` when omitted). Only when *no*
        checkpoint is valid does restore raise. An explicit
        ``checkpoint_id`` stays strict: the caller asked for those exact
        bytes, so corruption propagates. A checkpoint whose WAL position
        lies outside ``[0, wal_position]`` is corrupt.

        The tail replays through the session's own mutating methods
        (the table :func:`replay_events` uses). The journal logs only
        calls the session accepted, so a tail record the session refuses
        is corruption: it raises
        :class:`~repro.errors.CheckpointCorruptionError` naming its WAL
        position, chained to the refusal. The restored session has
        neither a journal nor telemetry attached: a driver that goes on
        logging re-attaches both (``attach_journal``,
        ``attach_telemetry``).

        The result is bit-for-bit the live session, for every session:
        each of its mutations, refinements included, goes through a
        method that logs it, so the tail replays them all.
        """
        if event_log is None:
            event_log = self.event_log
        infos = self.checkpoints()
        if not infos:
            raise CheckpointNotFoundError("store holds no checkpoints")
        if checkpoint_id is None:
            info = state = None
            skipped: list[int] = []
            last_error: Exception | None = None
            for candidate in reversed(infos):
                try:
                    state = self._load_checked(candidate)
                except (CheckpointCorruptionError, CheckpointSchemaError,
                        CheckpointDimensionError) as exc:
                    last_error = exc
                    skipped.append(candidate.checkpoint_id)
                    if event_log is not None:
                        event_log.record(
                            "checkpoint-scan-back", "store.restore",
                            key=candidate.checkpoint_id, error=exc)
                    continue
                info = candidate
                break
            if info is None:
                raise CheckpointCorruptionError(
                    f"all {len(infos)} checkpoint(s) are corrupt or "
                    f"unreadable; latest failure: {last_error}"
                ) from last_error
        else:
            skipped = []
            by_id = {c.checkpoint_id: c for c in infos}
            if checkpoint_id not in by_id:
                raise CheckpointNotFoundError(
                    f"no checkpoint with id {checkpoint_id}")
            info = by_id[checkpoint_id]
            state = self._load_checked(info)
        session = state.restore()
        tail = self.wal_records(info.wal_position)
        last_step = None
        for position, record in enumerate(tail, info.wal_position):
            try:
                step = _apply_event(session, record)
            except (ReproError, KeyError, TypeError, ValueError,
                    AttributeError) as exc:
                raise CheckpointCorruptionError(
                    f"WAL record {position} cannot be replayed: "
                    f"{exc!r}") from exc
            if step is not None:
                last_step = step
        # A step marker logged before the checkpoint still tells the
        # driver where it was; look it up only if the tail had none.
        if last_step is None:
            last_step = self.step_before(info.wal_position)
        return RestoredSession(session=session, checkpoint=info,
                               n_replayed=len(tail), step=last_step,
                               skipped_checkpoints=tuple(skipped))


class MemorySessionStore(SessionStore):
    """In-process store: value-copied snapshots and WAL records.

    The default backend — same durability as the session itself (none),
    but the identical checkpoint/restore semantics as the file store, so
    tests and embedding hosts can exercise crash/resume logic without
    touching a filesystem.
    """

    def __init__(self) -> None:
        self._wal: list[dict] = []
        self._checkpoints: list[tuple[CheckpointInfo, SessionState]] = []

    def append(self, record: dict) -> int:
        if record.get("kind") not in EVENT_KINDS:
            raise ValueError(f"unknown WAL record kind {record.get('kind')!r}")
        self._wal.append(copy.deepcopy(record))
        return len(self._wal)

    @property
    def wal_position(self) -> int:
        return len(self._wal)

    def checkpoint(self, session, *,
                   meta: dict | None = None) -> CheckpointInfo:
        state = session.capture_state()
        info = CheckpointInfo(
            checkpoint_id=len(self._checkpoints),
            wal_position=len(self._wal),
            n_answers=state.n_answers,
            n_validated=int((state.validated >= 0).sum()),
            meta=dict(meta or {}))
        self._checkpoints.append((info, state))
        return info

    def checkpoints(self) -> list[CheckpointInfo]:
        return [info for info, _ in self._checkpoints]

    def load_state(self, checkpoint_id: int | None = None) -> SessionState:
        if not self._checkpoints:
            raise CheckpointNotFoundError("store holds no checkpoints")
        if checkpoint_id is None:
            return self._checkpoints[-1][1]
        for info, state in self._checkpoints:
            if info.checkpoint_id == checkpoint_id:
                return state
        raise CheckpointNotFoundError(
            f"no checkpoint with id {checkpoint_id}")

    def wal_records(self, start: int = 0) -> list[dict]:
        return [copy.deepcopy(r) for r in self._wal[start:]]

    def step_before(self, position: int) -> int | None:
        for record in reversed(self._wal[:max(position, 0)]):
            if record["kind"] == "step":
                return int(record["step"])
        return None
