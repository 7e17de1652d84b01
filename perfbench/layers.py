"""Per-layer timing from outside the program.

Each layer is timed at its public boundary: a delegating
:class:`~repro.guidance.base.GuidanceStrategy`, ``SpammerDetector`` and
``Expert`` are handed to ``ValidationProcess`` through its constructor,
and the stream workload wraps the bound methods of its
``ValidationSession`` and ``FileSessionStore``. Nothing here changes a
decision: every wrapper returns exactly what the wrapped call returned.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experts.simulated import Expert
from repro.guidance.base import GuidanceStrategy
from repro.workers.spammer_detection import SpammerDetector


class CallTimer:
    """Wall time of every call made through :meth:`wrap`."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def wrap(self, fn):
        durations = self.durations
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            durations.append(clock() - start)
            return result
        return timed

    @property
    def total(self) -> float:
        return float(sum(self.durations))

    @property
    def calls(self) -> int:
        return len(self.durations)

    def p50(self) -> float:
        return float(np.median(self.durations)) if self.durations else 0.0

    def mean(self) -> float:
        return self.total / self.calls if self.durations else 0.0


class TimedStrategy(GuidanceStrategy):
    """Delegates ``select`` and counts what the selection reports."""

    def __init__(self, inner: GuidanceStrategy) -> None:
        self.name = inner.name
        self.timer = CallTimer()
        self._select = self.timer.wrap(inner.select)
        self.worker_branch_selects = 0
        self.candidates_scored = 0

    def select(self, context):
        selection = self._select(context)
        if selection.strategy == "worker":
            self.worker_branch_selects += 1
        if selection.candidate_indices is not None:
            self.candidates_scored += int(selection.candidate_indices.size)
        return selection


class TimedDetector(SpammerDetector):
    """Times ``detect``; guidance's ``detect_from_counts`` stays untimed."""

    def __init__(self) -> None:
        super().__init__()
        self.timer = CallTimer()
        self._detect = self.timer.wrap(super().detect)
        self.suspected = 0

    def detect(self, answer_set, validation, priors=None):
        result = self._detect(answer_set, validation, priors)
        self.suspected = result.n_faulty
        return result


class TimedExpert(Expert):
    """Times ``validate`` on a wrapped expert."""

    def __init__(self, inner: Expert) -> None:
        self.timer = CallTimer()
        self._validate = self.timer.wrap(inner.validate)

    def validate(self, obj, context=None):
        return self._validate(obj, context)


def spans_since(hub, start: int, name: str) -> list[float]:
    """Durations of the hub's spans named ``name`` recorded after ``start``."""
    return [record.duration for record in hub.tracer.records[start:]
            if record.name == name]


def counter(hub, name: str) -> int:
    return int(hub.registry.counter(name).value)
