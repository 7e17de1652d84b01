"""Value-object snapshots of a :class:`~repro.streaming.ValidationSession`.

A :class:`SessionState` is the *complete* mutable state of a session,
captured as plain arrays and scalars: the append-only answer log in exact
insertion order, the masked-worker set, the expert-validation function, the
warm-start model, the dirty-object set, the conclude counters, and the
aggregator's knobs and RNG state. Restoring it rebuilds a session that is
bit-for-bit indistinguishable from the captured one — every aggregate the
session maintains (the sorted cell index, cached encodings,
log-likelihood rows) is a pure function of these inputs, re-derived on
restore. Spammer
detection's validated-confusion counts are not session state at all:
detectors count them from an encoding when they need them. A session
holds no object, worker or label names, so a state carries none either.

The stores in :mod:`repro.state` serialize exactly this object; the schema
version below stamps its on-disk form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.answer_set import MISSING
from repro.core.em_kernel import EMResult
from repro.core.iem import IncrementalEM
from repro.utils.rng import rng_from_state, rng_state

#: Version stamp of the serialized checkpoint layout. Bump on any change
#: an older reader cannot load; stores refuse to load other versions
#: (:class:`repro.errors.CheckpointSchemaError`). Dropping a manifest key
#: that readers default, or that they ignore, is not such a change.
STATE_SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class SessionState:
    """Everything a :class:`~repro.streaming.ValidationSession` mutates.

    Instances are deep value copies: capturing is safe against further
    session mutation, and restoring never aliases the source arrays.
    Equality on ndarray fields is ill-defined, so compare with
    :meth:`equals` instead of ``==``.
    """

    # Dimensions, the aggregator's kernel knobs and the conflict policy.
    n_objects: int
    n_workers: int
    n_labels: int
    init: str
    max_iter: int
    tol: float
    smoothing: float
    on_conflict: str

    # The aggregator's RNG bit-generator state (JSON-serializable dict).
    rng_state: dict

    # The append-only answer log, exact insertion order, masked included.
    log_objects: np.ndarray
    log_workers: np.ndarray
    log_labels: np.ndarray
    masked_workers: tuple[int, ...]

    # Expert validation as a dense length-n array (MISSING = -1).
    validated: np.ndarray

    # Refinement epoch: the dirty set (every object whose statistics
    # changed since the last conclude) and the warm-start model (empty
    # and None before the first).
    dirty: tuple[int, ...]
    assignment: np.ndarray | None
    confusions: np.ndarray | None
    priors: np.ndarray | None
    model_n_iterations: int
    model_converged: bool
    model_dims: tuple[int, int] | None

    # Counters.
    n_concludes: int = 0
    total_em_iterations: int = 0
    n_conflicts: int = 0

    # Quality-target concluded mask (``None`` ⇔ no object concluded —
    # the normalized form, so checkpoints written before the mask existed
    # load identically to a fresh all-False mask without a schema bump).
    concluded: np.ndarray | None = None

    schema_version: int = field(default=STATE_SCHEMA_VERSION)

    @property
    def n_answers(self) -> int:
        return int(self.log_objects.size)

    @property
    def has_model(self) -> bool:
        return self.assignment is not None

    def restore(self) -> "ValidationSession":
        """Rebuild a live session from this snapshot (see module docs)."""
        return restore_session(self)

    def equals(self, other: "SessionState") -> bool:
        """Bit-for-bit equality across every field."""
        if not isinstance(other, SessionState):
            return False

        def arr_eq(a, b):
            if a is None or b is None:
                return a is None and b is None
            return a.shape == b.shape and bool(np.all(a == b))

        scalar_fields = (
            "schema_version", "n_objects", "n_workers", "n_labels", "init",
            "max_iter", "tol", "smoothing", "on_conflict",
            "masked_workers", "dirty",
            "model_n_iterations", "model_converged", "model_dims",
            "n_concludes", "total_em_iterations", "n_conflicts")
        if any(getattr(self, f) != getattr(other, f)
               for f in scalar_fields):
            return False
        if self.rng_state != other.rng_state:
            return False
        array_fields = ("log_objects", "log_workers", "log_labels",
                        "validated", "assignment",
                        "confusions", "priors", "concluded")
        return all(arr_eq(getattr(self, f), getattr(other, f))
                   for f in array_fields)


def capture_session(session) -> SessionState:
    """Snapshot a live session (the engine of ``capture_state``)."""
    obj, wrk, lab = session.stats.answer_log()
    model = session.model
    aggregator = session.aggregator
    return SessionState(
        n_objects=session.n_objects,
        n_workers=session.n_workers,
        n_labels=session.n_labels,
        init=aggregator.init,
        max_iter=aggregator.max_iter,
        tol=aggregator.tol,
        smoothing=aggregator.smoothing,
        on_conflict=session.on_conflict,
        rng_state=rng_state(aggregator.rng),
        log_objects=obj,
        log_workers=wrk,
        log_labels=lab,
        masked_workers=tuple(sorted(session.masked_workers)),
        validated=session.validation.as_array(),
        dirty=tuple(sorted(session._dirty)),
        assignment=None if model is None else model.assignment.copy(),
        confusions=None if model is None else model.confusions.copy(),
        priors=None if model is None else model.priors.copy(),
        model_n_iterations=0 if model is None else model.n_iterations,
        model_converged=False if model is None else model.converged,
        model_dims=session._model_dims,
        n_concludes=session.n_concludes,
        total_em_iterations=session.total_em_iterations,
        n_conflicts=session.n_conflicts,
        concluded=session._concluded.copy()
        if session._concluded.any() else None,
    )


def restore_session(state: SessionState,
                    telemetry=None) -> "ValidationSession":
    """Rebuild a live session from a snapshot, bit-for-bit.

    ``telemetry`` optionally re-attaches an instrumentation hub to the
    restored session. Snapshots never carry telemetry state (it is
    execution machinery), and the hub is
    attached only *after* the state replay below, so rebuilding a
    session never replays ingestion counters into the hub.

    Aggregates are re-derived rather than deserialized: the answer log is
    bulk-replayed in its insertion order, validations are re-asserted per
    object through ``add_validation``, and the warm-start model, dirty
    set, and counters are installed directly, so the dirty set is the
    captured one, not what the replay marked. The aggregator is a plain
    :class:`~repro.core.iem.IncrementalEM` rebuilt from the captured knobs
    and RNG state. The sorted cell index is built from the log, with one
    argsort, at the first cell lookup (a replayed answer), and the cached
    flat encoding is rebuilt lazily in ``(object, worker)`` order, which
    depends only on the set of cells — identical to the captured
    session's.
    """
    from repro.streaming.session import ValidationSession

    session = ValidationSession(
        state.n_objects, state.n_workers, state.n_labels,
        aggregator=IncrementalEM(
            init=state.init, max_iter=state.max_iter, tol=state.tol,
            smoothing=state.smoothing, rng=rng_from_state(state.rng_state)),
        on_conflict=state.on_conflict)
    session.stats.add_answers(state.log_objects, state.log_workers,
                              state.log_labels)
    session.set_masked_workers(state.masked_workers)
    for index in np.flatnonzero(state.validated != MISSING):
        session.add_validation(int(index), int(state.validated[index]))
    if state.assignment is not None:
        session._model = EMResult(
            assignment=state.assignment.copy(),
            confusions=state.confusions.copy(),
            priors=state.priors.copy(),
            n_iterations=state.model_n_iterations,
            converged=state.model_converged)
    session._model_dims = state.model_dims
    if state.concluded is not None:
        session._concluded = state.concluded.astype(bool).copy()
    session._dirty = set(state.dirty)
    session.n_concludes = state.n_concludes
    session.total_em_iterations = state.total_em_iterations
    session.n_conflicts = state.n_conflicts
    if telemetry is not None:
        session.attach_telemetry(telemetry)
    return session
