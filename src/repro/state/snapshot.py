"""Value-object snapshots of a :class:`~repro.streaming.ValidationSession`.

A :class:`SessionState` is the *complete* mutable state of a session,
captured as plain arrays and scalars by
:meth:`~repro.streaming.ValidationSession.capture_state`: the append-only
answer log in exact insertion order, the masked-worker set, the
expert-validation function, the warm-start model, the concluded mask, the
conclude counters, and the aggregator's knobs and RNG state. These are
what a refinement reads (the answers, the validations, the previous
model) and what a driver reads back. :meth:`SessionState.restore`
rebuilds a session that is bit-for-bit indistinguishable from the captured
one: every aggregate the session maintains (the sorted cell index, cached
encodings) is a pure function of these inputs, re-derived on restore.
Spammer detection's validated-confusion counts are not session state at
all: detectors count them from an encoding when they need them. A session
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
from repro.utils.rng import rng_from_state

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

    # The warm-start model (None before the first conclude) and the
    # dimensions it was refined at.
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

    def restore(self, telemetry=None) -> "ValidationSession":
        """Rebuild a live session from this snapshot, bit-for-bit.

        ``telemetry`` optionally re-attaches an instrumentation hub to the
        restored session. Snapshots never carry telemetry state (it is
        execution machinery), and the hub is attached only *after* the
        state replay below, so rebuilding a session never replays
        ingestion counters into the hub.

        Aggregates are re-derived rather than deserialized: the answer log
        is bulk-replayed in its insertion order, validations are
        re-asserted per object through ``add_validation``, and the
        warm-start model and counters are installed directly. The
        aggregator is a plain :class:`~repro.core.iem.IncrementalEM`
        rebuilt from the captured knobs and RNG state. The sorted cell
        index is built from the log, with one argsort, at the first cell
        lookup (a replayed answer), and the cached flat encoding is
        rebuilt lazily in ``(object, worker)`` order, which depends only
        on the set of cells — identical to the captured session's.
        """
        from repro.streaming.session import ValidationSession

        session = ValidationSession(
            self.n_objects, self.n_workers, self.n_labels,
            aggregator=IncrementalEM(
                init=self.init, max_iter=self.max_iter, tol=self.tol,
                smoothing=self.smoothing,
                rng=rng_from_state(self.rng_state)),
            on_conflict=self.on_conflict)
        session.stats.add_answers(self.log_objects, self.log_workers,
                                  self.log_labels)
        session.set_masked_workers(self.masked_workers)
        for index in np.flatnonzero(self.validated != MISSING):
            session.add_validation(int(index), int(self.validated[index]))
        if self.assignment is not None:
            session._model = EMResult(
                assignment=self.assignment.copy(),
                confusions=self.confusions.copy(),
                priors=self.priors.copy(),
                n_iterations=self.model_n_iterations,
                converged=self.model_converged)
        session._model_dims = self.model_dims
        if self.concluded is not None:
            session._concluded = self.concluded.astype(bool).copy()
        session.n_concludes = self.n_concludes
        session.total_em_iterations = self.total_em_iterations
        session.n_conflicts = self.n_conflicts
        if telemetry is not None:
            session.attach_telemetry(telemetry)
        return session

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
            "masked_workers",
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

