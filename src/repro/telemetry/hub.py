"""The telemetry hub and its zero-overhead null twin.

Instrumented code takes a ``telemetry`` object and calls ``span`` /
``counter`` / ``gauge`` / ``histogram`` / ``event`` on it. The default
everywhere is the module-level :data:`NULL_TELEMETRY` singleton, whose
methods return shared no-op instruments — so a disabled call site costs
an attribute lookup plus an empty method call, with no branching added
to any inner loop. Hot paths that fire per event resolve their
instruments once at construction time (see
``ValidationSession.attach_telemetry``) and afterwards pay only the
no-op call.

``spawn`` creates labelled child scopes sharing the parent's registry,
tracer, and timeline: metric names gain a ``label/`` prefix and spans
carry the scope string, giving per-path / per-session sub-streams that
still aggregate into one manifest.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


class _NullSpan:
    """Shared no-op span: usable as a context manager, always 0s long."""

    __slots__ = ()
    duration = 0.0
    attrs: dict = {}

    def set(self, key, value):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount=1):
        return None


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value):
        return None


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value):
        return None


NULL_SPAN = _NullSpan()
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullTelemetry:
    """The disabled hub: every method returns a shared no-op object.

    Stateless and reusable — all call sites share the single
    :data:`NULL_TELEMETRY` instance, and ``spawn`` returns ``self`` so
    scoping is free too.
    """

    __slots__ = ()
    enabled = False

    def span(self, name, **attrs):
        return NULL_SPAN

    def counter(self, name):
        return NULL_COUNTER

    def gauge(self, name):
        return NULL_GAUGE

    def histogram(self, name, edges=None):
        return NULL_HISTOGRAM

    def event(self, kind, site="", **fields):
        return None

    def spawn(self, label):
        return self


NULL_TELEMETRY = NullTelemetry()


@dataclass
class TimelineEvent:
    """One timeline entry: a degradation, retry trace, or custom marker.

    It is also the resilience layer's degradation record: a
    :class:`repro.resilience.EventLog` keeps the very objects its hub
    appends here. ``kind`` says what happened (see
    :data:`repro.resilience.EVENT_KINDS`) at the named ``site``; ``key``
    is the affected object or checkpoint (``None`` site-wide),
    ``attempt`` the 1-based attempt (0 when moot) and ``error`` the
    failure as ``"Type: message"``. ``time`` is the hub clock's reading
    and ``scope`` the recording scope.
    """

    kind: str
    site: str = ""
    key: int | str | None = None
    attempt: int = 0
    detail: str = ""
    error: str | None = None
    time: float = 0.0
    scope: str = ""

    def to_dict(self) -> dict:
        return {"type": "event", **asdict(self)}


class Telemetry:
    """The enabled hub: a metrics registry + span tracer + event timeline.

    One hub instruments one run; pass it (or a ``spawn`` scope of it) to
    every layer that should report into the same manifest. The clock is
    injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock=clock)
        self.events: list[TimelineEvent] = []
        self.scope = ""

    # -- instruments ----------------------------------------------------
    def span(self, name, **attrs):
        return self.tracer.span(name, scope=self.scope, attrs=attrs)

    def counter(self, name):
        return self.registry.counter(name)

    def gauge(self, name):
        return self.registry.gauge(name)

    def histogram(self, name, edges=None):
        return self.registry.histogram(name, edges)

    def event(self, kind, site="", **fields) -> TimelineEvent:
        """Append and return one :class:`TimelineEvent` (``fields`` are
        its ``key`` … ``error`` attributes)."""
        entry = TimelineEvent(kind, site, **fields,
                              time=self.tracer.clock(), scope=self.scope)
        self.events.append(entry)
        return entry

    # -- scoping --------------------------------------------------------
    def spawn(self, label: str) -> "TelemetryScope":
        """A labelled child scope writing into this hub."""
        return TelemetryScope(self, str(label))


class TelemetryScope:
    """A labelled view of a hub (see :meth:`Telemetry.spawn`).

    Shares the hub's collectors; metric names gain a ``scope/`` prefix,
    spans and events carry the scope string. Scopes nest: spawning from
    a scope appends another ``/label`` segment.
    """

    __slots__ = ("hub", "scope")
    enabled = True

    def __init__(self, hub: Telemetry, scope: str) -> None:
        self.hub = hub
        self.scope = scope

    def span(self, name, **attrs):
        return self.hub.tracer.span(name, scope=self.scope, attrs=attrs)

    def counter(self, name):
        return self.hub.registry.counter(f"{self.scope}/{name}")

    def gauge(self, name):
        return self.hub.registry.gauge(f"{self.scope}/{name}")

    def histogram(self, name, edges=None):
        return self.hub.registry.histogram(f"{self.scope}/{name}", edges)

    def event(self, kind, site="", **fields) -> TimelineEvent:
        entry = TimelineEvent(kind, site, **fields,
                              time=self.hub.tracer.clock(), scope=self.scope)
        self.hub.events.append(entry)
        return entry

    def spawn(self, label: str) -> "TelemetryScope":
        return TelemetryScope(self.hub, f"{self.scope}/{label}")


def root_hub(telemetry) -> Telemetry | None:
    """The underlying :class:`Telemetry` hub, or ``None`` when disabled."""
    if isinstance(telemetry, Telemetry):
        return telemetry
    if isinstance(telemetry, TelemetryScope):
        return telemetry.hub
    return None
