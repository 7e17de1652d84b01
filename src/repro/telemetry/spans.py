"""Nested wall-clock spans with structured attributes.

A span measures one call-boundary region (``em.run``, ``session.conclude``,
``store.checkpoint_write``, …). Nesting is tracked with an explicit stack:
entering a span makes it the parent of any span opened before it exits,
so the exported records form a forest and per-name *self time* (total
minus direct children) can be computed after the fact.

Spans are deliberately coarse: one per EM call, per guidance select, per
checkpoint — never inside the vectorised E/M kernels, whose inner
loops must stay instrumentation-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One finished span (appended to the tracer in completion order)."""

    name: str
    scope: str
    span_id: int
    parent_id: int | None
    depth: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"type": "span", "name": self.name, "scope": self.scope,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "depth": self.depth, "start": self.start, "end": self.end,
                "duration": self.duration, "attrs": dict(self.attrs)}


class ActiveSpan:
    """Context manager handed out by :meth:`SpanTracer.span`.

    ``set`` records attributes discovered mid-flight (iteration counts,
    convergence deltas); ``duration`` is available after the ``with``
    block exits and is what histogram-observing callers should use, so
    disabled telemetry (whose null span reports ``0.0``) never pays for
    a clock read.
    """

    __slots__ = ("_tracer", "name", "scope", "attrs", "start", "duration",
                 "span_id", "parent_id", "depth")

    def __init__(self, tracer: "SpanTracer", name: str, scope: str,
                 attrs: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.scope = scope
        self.attrs = dict(attrs) if attrs else {}
        self.start = 0.0
        self.duration = 0.0
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0

    def set(self, key: str, value) -> "ActiveSpan":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "ActiveSpan":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._exit(self)
        return False


class SpanTracer:
    """Span factory + store for one telemetry hub.

    The clock is injectable for deterministic tests; it defaults to
    ``time.perf_counter`` (monotonic, sub-microsecond).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.records: list[SpanRecord] = []
        self._stack: list[ActiveSpan] = []
        self._next_id = 0

    def span(self, name: str, scope: str = "",
             attrs: dict | None = None) -> ActiveSpan:
        return ActiveSpan(self, name, scope, attrs)

    def _enter(self, span: ActiveSpan) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        self._stack.append(span)
        span.start = self.clock()

    def _exit(self, span: ActiveSpan) -> None:
        end = self.clock()
        span.duration = end - span.start
        # Tolerate mispaired exits (e.g. a generator finalised late):
        # pop back to this span rather than corrupting the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.records.append(SpanRecord(
            name=span.name, scope=span.scope, span_id=span.span_id,
            parent_id=span.parent_id, depth=span.depth,
            start=span.start, end=end, attrs=span.attrs))

    def __len__(self) -> int:
        return len(self.records)
