"""The degradation log: the audit trail of retried execution.

Every time the resilience layer masks, retries, or routes around a fault
— instead of letting it surface as an exception — it records an event
into an :class:`EventLog`. The record is the telemetry timeline's own
:class:`~repro.telemetry.TimelineEvent`; there is no second event type.
The contract of the chaos conformance suite is precisely this split:
*transient* faults are invisible in results (final posteriors stay
bit-equal) but visible in the event log, while failures that force a
degradation (a checkpoint scan-back) appear as events **instead of**
exceptions.

The log is deliberately simple — an append-only in-process list with a
JSON projection — so it can be attached to any layer (retry helper,
store, expert, scenario runner) without coupling them, and dumped as the
CI chaos job's artifact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.telemetry import NULL_TELEMETRY, TimelineEvent

#: Event kinds the library itself records. Callers may record others;
#: these are the vocabulary the conformance suite asserts over.
EVENT_KINDS = (
    "retry",                 # one transient failure absorbed, attempt rerun
    "deadline",              # per-attempt deadline breached, attempt rerun
    "retry-exhausted",       # transient failures outlived the retry budget
    "permanent-failure",     # a non-retryable failure was observed
    "checkpoint-scan-back",  # restore skipped a corrupt/stale checkpoint
)


@dataclass
class EventLog:
    """Append-only recorder shared across the resilience layers.

    One log instance is typically threaded through a whole supervised run
    (retried calls + store + expert), so the resulting sequence is the
    run's complete degradation history in causal order.

    Each entry is a :class:`~repro.telemetry.TimelineEvent`. With a
    ``telemetry`` hub attached, :meth:`record` keeps the very object the
    hub appended to its timeline — so chaos and retries share one
    timeline with the spans and metrics — and counts it on a
    ``resilience.<kind>`` counter. Without one, the log builds the entry
    itself. The log stays the canonical chaos-artifact source.
    """

    _events: list[TimelineEvent] = field(default_factory=list)
    telemetry: object = NULL_TELEMETRY

    def record(self, kind: str, site: str, *,
               error: BaseException | str | None = None,
               **fields) -> TimelineEvent:
        """Append one event; ``fields`` are the :class:`TimelineEvent`
        attributes ``key``, ``attempt`` and ``detail``, and an exception
        ``error`` is rendered to ``"Type: message"``."""
        if error is not None and not isinstance(error, str):
            error = f"{type(error).__name__}: {error}"
        event = self.telemetry.event(kind, site, error=error, **fields)
        if event is None:  # the null hub keeps no timeline
            event = TimelineEvent(kind, site, error=error, **fields)
        self._events.append(event)
        self.telemetry.counter(f"resilience.{kind}").inc()
        return event

    @property
    def events(self) -> tuple[TimelineEvent, ...]:
        return tuple(self._events)

    def of_kind(self, *kinds: str) -> tuple[TimelineEvent, ...]:
        """Events whose kind is one of ``kinds``, in record order."""
        return tuple(e for e in self._events if e.kind in kinds)

    def count(self, *kinds: str) -> int:
        """Number of events (optionally restricted to ``kinds``)."""
        if not kinds:
            return len(self._events)
        return len(self.of_kind(*kinds))

    def to_json(self) -> list[dict]:
        """The whole log as JSON-serializable dicts (the CI artifact).

        Each dict holds every field of the event except the hub's
        ``time`` and ``scope``, so two replays of one seed compare equal.
        """
        return [{name: value for name, value in asdict(event).items()
                 if name not in ("time", "scope")}
                for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
