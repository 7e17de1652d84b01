"""Streaming validation sessions: incremental ingestion + warm-started i-EM.

A :class:`ValidationSession` is the online counterpart of the batch
pipeline ``AnswerSet → encode_answers → IncrementalEM.conclude``. Instead of
rebuilding the flat answer encoding and re-running ``conclude`` over the
whole matrix on every event, the session

* ingests answers and expert validations *incrementally*, maintaining
  mutable sufficient statistics (:class:`repro.core.em_kernel.AnswerStats`:
  the triple log and its sorted cell index) as deltas;
* refines through :meth:`repro.core.iem.IncrementalEM.refine`,
  *warm-starting* from the previous model (confusion matrices + priors),
  exactly the paper's view-maintenance principle (§4.1), so each
  :meth:`~ValidationSession.conclude` costs a handful of EM iterations
  instead of a cold solve.

A session keeps what a refinement reads — the answers, the expert
validations and the previous model — plus the aggregator with its RNG
stream, the concluded mask and its counters, and nothing else:
:meth:`~ValidationSession.capture_state` copies exactly that, and
:meth:`repro.state.SessionState.restore` rebuilds it. Reads between
refinements (:meth:`~ValidationSession.posteriors`) compute from these
when they are called.

The exact-refinement path is **bit-for-bit consistent** with the batch
kernel: ``session.conclude()`` produces the same floats as
``IncrementalEM.conclude`` on the equivalent batch ``AnswerSet`` with the
same warm-start state, because both hand identical inputs (the sorted flat
encoding, the same previous model) to the same
:meth:`~repro.core.iem.IncrementalEM.refine`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.answer_set import MISSING, AnswerSet
from repro.core import em_kernel
from repro.core.iem import IncrementalEM
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.validation import ExpertValidation
from repro.errors import (InvalidAnswerSetError, InvalidValidationError,
                          StreamingError)
from repro.state import store as state_events
from repro.state.snapshot import SessionState
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import rng_state


class ValidationSession:
    """Online answer validation over a continuously arriving crowd stream.

    With a :class:`repro.state.SessionStore` attached (:meth:`attach_journal`)
    the session writes its own write-ahead log: every call of
    :meth:`add_answer` (exact duplicates and dropped conflicts included),
    :meth:`add_validation`, :meth:`retract_validation`,
    :meth:`set_masked_workers`, :meth:`grow`, :meth:`conclude`,
    :meth:`conclude_object` and :meth:`mark_step` checks its input, appends
    one record, then applies it. A refused call writes nothing. The growth
    inside ``add_answer(grow=True)`` rides on the answer's record, and
    :meth:`conclude_snapshot` logs the one conclude it runs. A restored
    session starts detached.

    These methods are the only way to change the session. The
    :attr:`validation` it hands out is a read-only view, so no write can
    bypass the journal; change validations through
    :meth:`add_validation` and :meth:`retract_validation`.

    The session holds its answers once, as the statistics' append-only
    log and the encoding of each statistics version
    (:meth:`~repro.core.em_kernel.AnswerStats.encoded`); it keeps no
    dense matrix and no object, worker or label names. A
    :meth:`snapshot` hands that encoding over as
    ``ProbabilisticAnswerSet.encoded``, so guidance, detection and the
    confirmation check read the answers the refinement read. Export a
    matrix with ``stats.to_matrix()``.

    Parameters
    ----------
    n_objects, n_workers, n_labels:
        Initial dimensions. Objects and workers may grow later
        (:meth:`grow`, or implicitly via ``add_answer(..., grow=True)``);
        the label vocabulary is fixed.
    aggregator:
        The :class:`~repro.core.iem.IncrementalEM` every refinement runs
        through (default ``IncrementalEM()``): its ``init`` policy
        cold-starts the first refinement and the first after dimension
        growth; later refinements warm-start from the previous model.
    on_conflict:
        Policy for a *conflicting* re-answer to an already-answered cell
        (exact duplicates are always dropped silently): ``"error"`` raises
        :class:`~repro.errors.InvalidAnswerSetError` — the batch
        ``AnswerSet.from_triples`` contract — while ``"ignore"`` keeps the
        first answer, drops the resubmission, and counts it in
        :attr:`n_conflicts`. First-write-wins is the pinned policy (not
        last-write-wins): the sufficient statistics are an append-only
        log, so the first answer is the one every batch replay of the
        same stream sees.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hub (or spawn
        scope). Each ``conclude`` emits a ``session.conclude`` span and
        feeds the ``session.conclude_seconds`` histogram; ingestion
        bumps per-event counters only (no per-answer spans — the ingest
        path stays flat). Never captured by checkpoints; re-attach
        after a restore with :meth:`attach_telemetry`. Defaults to the
        free :data:`repro.telemetry.NULL_TELEMETRY`.

    Examples
    --------
    >>> session = ValidationSession(n_objects=2, n_workers=2, n_labels=2,
    ...                             aggregator=IncrementalEM(max_iter=50))
    >>> session.add_answer(0, 0, 0); session.add_answer(0, 1, 0)
    True
    True
    >>> session.add_answer(1, 0, 1)
    True
    >>> result = session.conclude()          # cold start (majority init)
    >>> session.add_validation(1, 0)         # expert input streams in
    >>> result = session.conclude()          # warm-started refinement
    >>> session.map_label(1)
    0
    """

    def __init__(self,
                 n_objects: int,
                 n_workers: int,
                 n_labels: int,
                 *,
                 aggregator: IncrementalEM | None = None,
                 on_conflict: str = "error",
                 telemetry=NULL_TELEMETRY) -> None:
        if on_conflict not in ("error", "ignore"):
            raise ValueError(f"unknown conflict policy {on_conflict!r}")
        self.aggregator = aggregator or IncrementalEM()
        self.on_conflict = on_conflict

        self._stats = em_kernel.AnswerStats(n_objects, n_workers, n_labels)
        self._validation = ExpertValidation(n_objects, n_labels)

        # Last installed model and the statistics epoch it refined.
        self._model: em_kernel.EMResult | None = None
        self._model_dims: tuple[int, int] | None = None

        # Per-object concluded mask (CDAS-style quality targets): objects
        # whose posterior cleared a confidence target and left the
        # guidance frontier. Maintained only through conclude_object —
        # refinements never touch it (hysteresis: un-concluding requires
        # an explicit revoke).
        self._concluded = np.zeros(n_objects, dtype=bool)

        #: Refinements run and EM iterations spent across them.
        self.n_concludes = 0
        self.total_em_iterations = 0
        #: Conflicting resubmissions dropped under ``on_conflict="ignore"``.
        self.n_conflicts = 0

        self._journal = None
        self.attach_telemetry(telemetry)

    def attach_journal(self, store) -> None:
        """Log every later mutation to ``store``'s WAL (``None`` detaches).

        Like telemetry, the journal is never part of :meth:`capture_state`:
        re-attach it after a restore.
        """
        self._journal = store

    def attach_telemetry(self, telemetry) -> None:
        """Attach (or replace) the telemetry hub and resolve instruments.

        Instruments are resolved once here so the per-event hot paths pay
        only an attribute lookup plus a no-op call when telemetry is
        disabled. Telemetry is execution machinery, never state: it is
        excluded from :meth:`capture_state` snapshots, and a restored
        session comes back with :data:`~repro.telemetry.NULL_TELEMETRY`
        until a hub is re-attached here (or via
        ``SessionState.restore(telemetry=...)``).
        """
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._stats.telemetry = self.telemetry
        self._tel_conclude_s = self.telemetry.histogram(
            "session.conclude_seconds")
        self._tel_answers = self.telemetry.counter("session.answers")
        self._tel_validations = self.telemetry.counter("session.validations")
        self._tel_conflicts = self.telemetry.gauge("session.n_conflicts")
        self._tel_concluded = self.telemetry.gauge("session.n_concluded")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_answer_set(cls, answer_set: AnswerSet,
                        validation: ExpertValidation | None = None,
                        **kwargs) -> "ValidationSession":
        """Seed a session from a batch answer set (and optional validation).

        The canonical embedding path: a
        :class:`~repro.process.validation_process.ValidationProcess` starts
        from a fixed crowd matrix and streams only expert validations.

        The statistics are seeded from ``encode_answers(answer_set)``, one
        scan of the matrix, and adopt that encoding as their first epoch
        (:meth:`~repro.core.em_kernel.AnswerStats.seed`): the first
        refinement, its snapshot and every look-ahead over it share one
        encoding, kernel plan and CSR view. The encoding stays memoized
        on ``answer_set``, so a detector reading the caller's answer set
        reuses it too. The session keeps no reference to ``answer_set``
        itself.
        """
        session = cls(answer_set.n_objects, answer_set.n_workers,
                      answer_set.n_labels, **kwargs)
        session._stats.seed(em_kernel.encode_answers(answer_set))
        if validation is not None:
            for index, label in validation.as_dict().items():
                session.add_validation(index, label)
        return session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return self._stats.n_objects

    @property
    def n_workers(self) -> int:
        return self._stats.n_workers

    @property
    def n_labels(self) -> int:
        return self._stats.n_labels

    @property
    def n_answers(self) -> int:
        return self._stats.n_answers

    @property
    def n_validated(self) -> int:
        return self._validation.count

    @property
    def stats(self) -> em_kernel.AnswerStats:
        """The maintained sufficient statistics (mutate via the session)."""
        return self._stats

    @property
    def validation(self) -> ExpertValidation:
        """Read-only live view of the expert-validation function.

        The view shares the session's array, so it sees later validations
        without a copy per access; its ``assign`` and ``retract`` raise
        :class:`~repro.errors.InvalidValidationError`. Change validations
        through :meth:`add_validation` and :meth:`retract_validation`,
        which the journal logs. Growing the object axis replaces the
        array: re-read this view after :meth:`grow`.
        """
        return self._validation.read_only()

    @property
    def model(self) -> em_kernel.EMResult | None:
        """The last installed refinement result (``None`` before the first)."""
        return self._model

    @property
    def has_model(self) -> bool:
        return self._model is not None

    @property
    def masked_workers(self) -> frozenset[int]:
        return self._stats.masked_workers

    @property
    def concluded_mask(self) -> np.ndarray:
        """Copy of the per-object concluded mask (see :meth:`conclude_object`)."""
        return self._concluded.copy()

    @property
    def n_concluded(self) -> int:
        """Objects currently marked concluded."""
        return int(np.count_nonzero(self._concluded))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def grow(self, n_objects: int | None = None,
             n_workers: int | None = None) -> None:
        """Extend dimensions mid-stream (new objects/workers appeared).

        Growth invalidates the warm start: the next :meth:`conclude` cold
        starts with the aggregator's ``init`` policy, matching what a batch
        replay without a shape-compatible previous snapshot would do.
        Shrinking raises ``ValueError``.
        """
        self._stats.check_grow(n_objects, n_workers)
        if self._journal is not None:
            self._journal.append(state_events.grow_event(n_objects, n_workers))
        self._grow(n_objects, n_workers)

    def _grow(self, n_objects: int | None, n_workers: int | None) -> None:
        old_n = self.n_objects
        self._stats.grow(n_objects=n_objects, n_workers=n_workers)
        if self.n_objects > old_n:
            validation = ExpertValidation(self.n_objects, self.n_labels)
            for index, label in self._validation.as_dict().items():
                validation.assign(index, label)
            self._validation = validation
            grown_concluded = np.zeros(self.n_objects, dtype=bool)
            grown_concluded[:old_n] = self._concluded
            self._concluded = grown_concluded

    def add_answer(self, obj: int, worker: int, label: int,
                   *, grow: bool = False,
                   on_conflict: str | None = None) -> bool:
        """Ingest one crowd answer; returns ``False`` for exact duplicates.

        With ``grow=True``, out-of-range object/worker indices extend the
        dimensions instead of raising. ``on_conflict`` overrides the
        session's conflict policy for this call (see the class docstring);
        under ``"ignore"`` a conflicting resubmission keeps the first
        answer, returns ``False``, and bumps :attr:`n_conflicts`.
        """
        obj, worker, label = int(obj), int(worker), int(label)
        policy = self.on_conflict if on_conflict is None else on_conflict
        if policy not in ("error", "ignore"):
            raise ValueError(f"unknown conflict policy {policy!r}")
        grows = grow and (obj >= self.n_objects or worker >= self.n_workers)
        if grows or self._journal is not None:
            # Refuse before the first write: neither growth nor a WAL
            # record may outlive a rejected answer.
            self._stats.check_answer(obj, worker, label, grow=grow,
                                     conflicts=policy == "error")
            if self._journal is not None:
                self._journal.append(state_events.answer_event(
                    obj, worker, label, grow=grow, on_conflict=on_conflict))
            if grows:
                self._grow(max(self.n_objects, obj + 1),
                           max(self.n_workers, worker + 1))
        if policy == "ignore":
            current = self._stats.check_answer(obj, worker, label,
                                               conflicts=False)
            if current != MISSING and current != label:
                self.n_conflicts += 1
                self._tel_conflicts.set(self.n_conflicts)
                return False
        if not self._stats._append(obj, worker, label):
            return False
        self._tel_answers.inc()
        return True

    def add_answers(self, triples: Iterable[tuple[int, int, int]],
                    *, grow: bool = False,
                    on_conflict: str | None = None) -> int:
        """Ingest a batch of ``(object, worker, label)`` answers."""
        added = 0
        for obj, worker, label in triples:
            if self.add_answer(obj, worker, label, grow=grow,
                               on_conflict=on_conflict):
                added += 1
        return added

    def add_validation(self, obj: int, label: int,
                       *, overwrite: bool = False, grow: bool = False) -> None:
        """Ingest one expert validation (the stream's ground-truth events).

        With ``grow=True``, an object index past ``n_objects`` extends the
        dimensions instead of raising.
        """
        obj, label = int(obj), int(label)
        self._validation.check(obj, label, overwrite=overwrite, grow=grow)
        if self._journal is not None:
            self._journal.append(state_events.validation_event(
                obj, label, overwrite=overwrite))
        if obj >= self.n_objects:
            self._grow(obj + 1, None)
        self._validation.assign(obj, label, overwrite=overwrite)
        self._tel_validations.inc()

    def retract_validation(self, obj: int) -> None:
        """Remove the expert input for ``obj``."""
        obj = int(obj)
        self._check_object(obj)
        if self._journal is not None:
            self._journal.append(state_events.retract_event(obj))
        self._validation.retract(obj)

    def conclude_object(self, obj: int, *, revoke: bool = False) -> bool:
        """Mark ``obj`` as concluded (or un-conclude it with ``revoke=True``).

        A concluded object's posterior cleared a quality target's
        confidence bound; guidance prunes it from the candidate frontier.
        The mark is *sticky* — later refinements dipping back under the
        bound do not clear it (hysteresis) — so the frontier only shrinks
        unless a caller explicitly revokes. Returns whether the bit
        changed. The mask never affects refinement results, only
        selection and stopping.
        """
        obj = int(obj)
        self._check_object(obj)
        if self._journal is not None:
            self._journal.append(state_events.conclude_object_event(
                obj, revoke=revoke))
        target = not revoke
        if bool(self._concluded[obj]) == target:
            return False
        self._concluded[obj] = target
        if self.telemetry.enabled:
            self._tel_concluded.set(self.n_concluded)
        return True

    def set_masked_workers(self, workers: Iterable[int]) -> frozenset[int]:
        """Exclude (or re-include) workers' answers from aggregation (§5.3).

        Returns the workers whose state toggled.
        """
        masked = frozenset(int(worker) for worker in workers)
        outside = sorted(w for w in masked if not 0 <= w < self.n_workers)
        if outside:
            raise InvalidAnswerSetError(
                f"worker index {outside[0]} outside [0, {self.n_workers})")
        if self._journal is not None:
            self._journal.append(state_events.mask_event(masked))
        return self._stats.set_masked_workers(masked)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def conclude(self) -> em_kernel.EMResult:
        """Refine the model over the maintained statistics (exact path).

        Warm-starts from the previous refinement when dimensions are
        unchanged; cold-starts (``aggregator.init``) otherwise. Bit-for-bit
        equal to ``IncrementalEM.conclude`` on the equivalent batch answer
        set with the same warm-start state.
        """
        if self._journal is not None:
            self._journal.append(state_events.conclude_event())
        warm = self._model is not None \
            and self._model_dims == (self.n_objects, self.n_workers)
        span = self.telemetry.span(
            "session.conclude", warm=warm, n_objects=self.n_objects,
            n_answers=self.n_answers)
        with span:
            result = self.aggregator.refine(
                self._stats.encoded(), self._validation,
                self._model if warm else None, telemetry=self.telemetry)
            self._install(result)
            span.set("em_iterations", result.n_iterations)
        self._tel_conclude_s.observe(span.duration)
        if self.telemetry.enabled:
            self._tel_conflicts.set(self.n_conflicts)
            self._tel_concluded.set(self.n_concluded)
        return result

    def mark_step(self, step: int) -> None:
        """Log a driver's step marker (what a restore reports as
        :attr:`repro.state.RestoredSession.step`); no-op when detached."""
        if self._journal is not None:
            self._journal.append(state_events.step_event(step))

    def _install(self, result: em_kernel.EMResult) -> None:
        self._model = result
        self._model_dims = (self.n_objects, self.n_workers)
        self.n_concludes += 1
        self.total_em_iterations += result.n_iterations

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def posterior(self, obj: int) -> np.ndarray:
        """Current label distribution of one object (:meth:`posteriors`)."""
        return self.posteriors()[int(obj)]

    def posteriors(self) -> np.ndarray:
        """Current label distributions for all objects.

        One E-step under the last installed model over the current
        statistics, so answers that arrived since the last refinement
        count, clamped to one-hot for validated objects. Before the first
        refinement, and after growth until the next, vote shares are
        returned instead.
        """
        encoded = self._stats.encoded()
        if self._model is None \
                or self._model_dims != (self.n_objects, self.n_workers):
            assignment = em_kernel.initial_assignment_majority(encoded)
        else:
            assignment = em_kernel.e_step(encoded, self._model.confusions,
                                          self._model.priors)
        return em_kernel.clamp_validated(
            assignment, self._validation.validated_indices(),
            self._validation.validated_labels())

    def map_label(self, obj: int) -> int:
        """Maximum-a-posteriori label for one object."""
        return int(np.argmax(self.posterior(obj)))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> ProbabilisticAnswerSet:
        """Materialize the last refinement as a batch-compatible snapshot.

        The returned :class:`~repro.core.probabilistic.ProbabilisticAnswerSet`
        is what every downstream consumer (guidance, uncertainty,
        instantiation) already understands. Its ``encoded`` is
        ``stats.encoded()`` itself, the encoding the refinement read. It
        runs in a ``session.snapshot`` span.
        """
        if self._model is None:
            raise StreamingError(
                "no refinement yet — call conclude() before snapshot()")
        if self._model_dims != (self.n_objects, self.n_workers):
            raise StreamingError(
                "session dimensions grew since the last refinement — "
                "call conclude() before snapshot()")
        with self.telemetry.span("session.snapshot"):
            return ProbabilisticAnswerSet(
                encoded=self._stats.encoded(),
                validation=self._validation.copy(),
                assignment=self._model.assignment,
                confusions=self._model.confusions,
                priors=self._model.priors,
                n_em_iterations=self._model.n_iterations,
            )

    def conclude_snapshot(self) -> ProbabilisticAnswerSet:
        """Refine, then snapshot — one call for embedding hosts."""
        self.conclude()
        return self.snapshot()

    # ------------------------------------------------------------------
    # Durable state (checkpoint/restore seam for :mod:`repro.state`)
    # ------------------------------------------------------------------
    def capture_state(self) -> SessionState:
        """Capture the complete mutable state as a value object.

        The returned :class:`repro.state.SessionState` is self-contained:
        its :meth:`~repro.state.SessionState.restore` rebuilds a session
        whose every observable — sufficient statistics, expert
        validations, warm-start model, aggregator and RNG stream,
        concluded mask, conclude counters — is bit-for-bit identical to
        this one's. Every array is a copy.
        """
        obj, wrk, lab = self._stats.answer_log()
        model = self._model
        aggregator = self.aggregator
        return SessionState(
            n_objects=self.n_objects,
            n_workers=self.n_workers,
            n_labels=self.n_labels,
            init=aggregator.init,
            max_iter=aggregator.max_iter,
            tol=aggregator.tol,
            smoothing=aggregator.smoothing,
            on_conflict=self.on_conflict,
            rng_state=rng_state(aggregator.rng),
            log_objects=obj,
            log_workers=wrk,
            log_labels=lab,
            masked_workers=tuple(sorted(self.masked_workers)),
            validated=self._validation.as_array(),
            assignment=None if model is None else model.assignment.copy(),
            confusions=None if model is None else model.confusions.copy(),
            priors=None if model is None else model.priors.copy(),
            model_n_iterations=0 if model is None else model.n_iterations,
            model_converged=False if model is None else model.converged,
            model_dims=self._model_dims,
            n_concludes=self.n_concludes,
            total_em_iterations=self.total_em_iterations,
            n_conflicts=self.n_conflicts,
            concluded=self._concluded.copy()
            if self._concluded.any() else None,
        )

    # ------------------------------------------------------------------
    def _check_object(self, obj: int) -> None:
        if not 0 <= obj < self.n_objects:
            raise InvalidValidationError(
                f"object index {obj} outside [0, {self.n_objects})")

    def __repr__(self) -> str:
        return (f"ValidationSession(n_objects={self.n_objects}, "
                f"n_workers={self.n_workers}, n_labels={self.n_labels}, "
                f"n_answers={self.n_answers}, validated={self.n_validated}, "
                f"concludes={self.n_concludes})")
