"""Replay a simulated crowd as a timed answer/validation event stream.

Turns a :class:`~repro.simulation.crowd.SimulatedCrowd` — a static matrix
plus hidden gold — into what a live deployment actually sees: a
time-ordered sequence of answer events (workers submitting labels) and
validation events (an expert asserting ground truth), with Poisson arrival
times. The streams feed :class:`repro.streaming.ValidationSession` through
:func:`replay`, which is how the streaming engine is exercised end-to-end
in tests and benchmarks.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.answer_set import MISSING
from repro.simulation.crowd import SimulatedCrowd
from repro.utils.rng import ensure_rng, spawn_rngs

#: Supported replay orders for :func:`answer_stream`.
ORDERS = ("shuffled", "by_object", "by_worker")


@dataclass(frozen=True)
class AnswerEvent:
    """One crowd answer arriving at ``time``."""

    time: float
    object_index: int
    worker_index: int
    label: int


@dataclass(frozen=True)
class ValidationEvent:
    """One expert validation arriving at ``time``."""

    time: float
    object_index: int
    label: int


def answer_stream(crowd: SimulatedCrowd,
                  *,
                  rate: float = 100.0,
                  order: str = "shuffled",
                  rng: np.random.Generator | int | None = None,
                  ) -> Iterator[AnswerEvent]:
    """Yield every answer of ``crowd`` as a timed event.

    Parameters
    ----------
    rate:
        Mean arrivals per unit time; inter-arrival gaps are exponential
        (Poisson process).
    order:
        ``"shuffled"`` (random arrival order — the realistic default),
        ``"by_object"`` (row-major), or ``"by_worker"`` (column-major, a
        worker finishing their batch in one sitting).
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    generator = ensure_rng(rng)
    matrix = crowd.answer_set.matrix
    obj, wrk = np.nonzero(matrix != MISSING)
    if order == "shuffled":
        permutation = generator.permutation(obj.size)
        obj, wrk = obj[permutation], wrk[permutation]
    elif order == "by_worker":
        column_major = np.lexsort((obj, wrk))
        obj, wrk = obj[column_major], wrk[column_major]
    time = 0.0
    for i, j in zip(obj, wrk):
        time += float(generator.exponential(1.0 / rate))
        yield AnswerEvent(time=time, object_index=int(i),
                          worker_index=int(j), label=int(matrix[i, j]))


def validation_stream(crowd: SimulatedCrowd,
                      *,
                      rate: float = 1.0,
                      limit: int | None = None,
                      start_time: float = 0.0,
                      rng: np.random.Generator | int | None = None,
                      ) -> Iterator[ValidationEvent]:
    """Yield expert validations (gold labels) for random objects over time.

    Models the §3.1 expert working alongside the crowd: objects are drawn
    without replacement in random order, each asserted with its gold label,
    at Poisson times starting from ``start_time``. ``limit`` caps the
    number of validations (default: all objects).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    generator = ensure_rng(rng)
    objects = generator.permutation(crowd.answer_set.n_objects)
    if limit is not None:
        objects = objects[:int(limit)]
    time = float(start_time)
    for obj in objects:
        time += float(generator.exponential(1.0 / rate))
        yield ValidationEvent(time=time, object_index=int(obj),
                              label=int(crowd.gold[obj]))


def merge_streams(*streams: Iterable) -> Iterator:
    """Merge timed event streams into one, ordered by event time."""
    return heapq.merge(*streams, key=lambda event: event.time)


def crowd_streams(crowd: SimulatedCrowd,
                  *,
                  answer_rate: float = 100.0,
                  validation_rate: float = 1.0,
                  validation_limit: int | None = None,
                  order: str = "shuffled",
                  seed: int | None = 0) -> Iterator:
    """Merged answer + validation replay from a **single seed**.

    The RNG-plumbing footgun this closes: :func:`answer_stream` and
    :func:`validation_stream` each take their own ``rng``, and passing the
    *same live generator* to both makes each stream's draws depend on how
    far the other was consumed — under :func:`heapq.merge` the interleaving
    is time-dependent, so the replay is not reproducible from one seed.
    Here the two streams get independent children spawned statelessly off
    ``seed`` (:func:`repro.utils.rng.spawn_rngs`), making the merged replay
    a pure function of ``(crowd, parameters, seed)``.
    """
    answer_rng, validation_rng = spawn_rngs(seed, 2)
    return merge_streams(
        answer_stream(crowd, rate=answer_rate, order=order, rng=answer_rng),
        validation_stream(crowd, rate=validation_rate, limit=validation_limit,
                          rng=validation_rng),
    )


@dataclass(frozen=True)
class ReplaySummary:
    """What happened while replaying a stream into a session."""

    n_answers: int
    n_validations: int
    n_concludes: int
    total_em_iterations: int
    duration: float

    @property
    def n_events(self) -> int:
        return self.n_answers + self.n_validations


def replay(events: Iterable,
           session,
           *,
           conclude_every: int | None = None,
           conclude_every_seconds: float | None = None,
           on_conflict: str | None = None,
           store=None,
           checkpoint_every_seconds: float | None = None,
           ) -> ReplaySummary:
    """Drive a :class:`~repro.streaming.ValidationSession` with an event stream.

    Parameters
    ----------
    events:
        Timed :class:`AnswerEvent`/:class:`ValidationEvent` items (e.g.
        from :func:`merge_streams`). Answers for unseen objects/workers
        grow the session.
    conclude_every:
        Refine (the session's exact ``conclude``) after every this-many
        events; ``None`` refines only once, after the stream ends. A
        refinement always runs at the end.
    conclude_every_seconds:
        Refine whenever event time crosses the next multiple of this
        interval — a wall-clock refresh cadence, like a service refining
        on a timer. Unlike ``conclude_every`` this makes the *arrival
        distribution* matter: a bursty stream packs many events into one
        refinement and leaves refinements over lulls to no-op, which is
        exactly what the adversarial arrival scenarios stress. Both
        cadences may be combined (either trigger refines).
    on_conflict:
        Conflict policy forwarded to every ingested answer (``None`` uses
        the session's own policy). Pass ``"ignore"`` when the stream may
        carry duplicate/conflicting resubmissions (the
        ``duplicate-resubmissions`` scenario): resubmitted conflicts are
        dropped first-write-wins and counted on the session.
    store:
        Optional :class:`repro.state.SessionStore`, attached as the
        session's journal (:meth:`~repro.streaming.ValidationSession
        .attach_journal`) and left attached. Every ingested event and
        every refinement is appended to its write-ahead log after the
        session has checked it and before it is applied, so
        ``store.restore()`` after a crash rebuilds the session
        bit-for-bit at the last logged event, and an event the session
        refuses leaves no record.
    checkpoint_every_seconds:
        Full-checkpoint cadence on the event clock (same crossing
        semantics as ``conclude_every_seconds``); requires ``store``. A
        final checkpoint is always taken after the stream drains.
    """
    if conclude_every is not None and conclude_every < 1:
        raise ValueError("conclude_every must be >= 1 or None, "
                         f"got {conclude_every}")
    if conclude_every_seconds is not None and conclude_every_seconds <= 0:
        raise ValueError("conclude_every_seconds must be > 0 or None, "
                         f"got {conclude_every_seconds}")
    if checkpoint_every_seconds is not None:
        if checkpoint_every_seconds <= 0:
            raise ValueError("checkpoint_every_seconds must be > 0 or "
                             f"None, got {checkpoint_every_seconds}")
        if store is None:
            raise ValueError("checkpoint_every_seconds requires a store")
    concludes_before = session.n_concludes
    iterations_before = session.total_em_iterations
    n_answers = n_validations = 0
    duration = 0.0
    next_refine_time = conclude_every_seconds \
        if conclude_every_seconds is not None else None
    next_checkpoint_time = checkpoint_every_seconds \
        if checkpoint_every_seconds is not None else None
    if store is not None:
        session.attach_journal(store)

    for event in events:
        if isinstance(event, AnswerEvent):
            session.add_answer(event.object_index, event.worker_index,
                               event.label, grow=True,
                               on_conflict=on_conflict)
            n_answers += 1
        elif isinstance(event, ValidationEvent):
            session.add_validation(event.object_index, event.label,
                                   overwrite=True, grow=True)
            n_validations += 1
        else:
            raise TypeError(f"unknown stream event {event!r}")
        duration = max(duration, float(event.time))
        if conclude_every is not None \
                and (n_answers + n_validations) % conclude_every == 0:
            session.conclude()
        if next_refine_time is not None and event.time >= next_refine_time:
            session.conclude()
            # Skip empty intervals wholesale: refine once per crossing.
            intervals = int(event.time // conclude_every_seconds) + 1
            next_refine_time = intervals * conclude_every_seconds
        if next_checkpoint_time is not None \
                and event.time >= next_checkpoint_time:
            store.checkpoint(session, meta={"time": float(event.time)})
            intervals = int(event.time // checkpoint_every_seconds) + 1
            next_checkpoint_time = intervals * checkpoint_every_seconds
    session.conclude()
    if store is not None:
        store.checkpoint(session, meta={"final": True})
    return ReplaySummary(
        n_answers=n_answers,
        n_validations=n_validations,
        n_concludes=session.n_concludes - concludes_before,
        total_em_iterations=session.total_em_iterations - iterations_before,
        duration=duration,
    )
