"""Retry with classification: exponential backoff, deterministic jitter,
per-attempt deadlines.

:func:`call_with_retry` is the single-call building block the supervised
layers share: it reruns a callable while failures classify as transient
(:func:`repro.errors.is_transient`), spacing attempts by exponential
backoff whose jitter is drawn from a caller-seeded
:mod:`repro.utils.rng` generator — so a retry schedule is a pure
function of ``(policy, seed, failure sequence)`` and two identically
seeded runs produce identical :class:`RetryTrace`\\ s.

Deadlines are enforced in two halves. Latency *injected* by a
:class:`~repro.resilience.FaultInjector` is charged **before** the
callable runs — a would-be-timeout is abandoned with no side effects,
exactly like a caller giving up on a stalled RPC — while *real* elapsed
time is checked after the call. Both breaches raise
:class:`~repro.errors.DeadlineExceededError`, which is transient and
therefore retried.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import (DeadlineExceededError, RetryExhaustedError,
                          is_transient)
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try, and how long to wait between tries.

    Parameters
    ----------
    max_attempts:
        Total calls allowed (1 = no retries).
    base_delay, multiplier, max_delay:
        Exponential backoff: attempt ``i`` (0-based) sleeps
        ``min(base_delay * multiplier**i, max_delay)`` before retrying.
        The default base of 0.0 keeps tests instant; services set it.
    jitter:
        Fractional jitter: each backoff is stretched by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` from the caller's
        deterministic stream.
    deadline:
        Per-attempt deadline in seconds (``None`` disables); breaches
        classify as transient and consume an attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("backoff parameters must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 or None, got {self.deadline}")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before re-running after 0-based ``attempt`` failed."""
        delay = min(self.base_delay * self.multiplier ** attempt,
                    self.max_delay)
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


@dataclass(frozen=True)
class RetryTrace:
    """What one supervised call actually did.

    ``attempts`` counts calls made (1 = first try succeeded); ``errors``
    and ``delays`` record each absorbed failure and the backoff slept
    after it, in order. Two identically seeded runs over the same
    failure sequence produce equal traces — the determinism contract the
    hypothesis suite pins.
    """

    site: str
    attempts: int
    delays: tuple[float, ...] = ()
    errors: tuple[str, ...] = ()
    succeeded: bool = True


def call_with_retry(fn: Callable[[], object],
                    policy: RetryPolicy | None = None,
                    *,
                    site: str = "call",
                    key: int | str | None = None,
                    rng: np.random.Generator | int | None = 0,
                    injector=None,
                    event_log=None,
                    telemetry=NULL_TELEMETRY,
                    sleep: Callable[[float], None] = time.sleep,
                    ) -> tuple[object, RetryTrace]:
    """Run ``fn`` under ``policy``; return ``(result, trace)``.

    Parameters
    ----------
    fn:
        Zero-argument callable. Attempts abandoned by an *injected*
        deadline breach never invoke it, so effectful callables (a
        ``conclude`` that installs a model) are retried whole, never
        half-run.
    site, key:
        Names this call for fault injection and event records.
    rng:
        Seed/generator for jitter draws (deterministic by default).
    injector:
        Optional :class:`~repro.resilience.FaultInjector`; its
        :meth:`check` runs at the top of every attempt.
    event_log:
        Optional :class:`~repro.resilience.EventLog`; absorbed failures
        are recorded as ``"retry"``/``"deadline"`` events, terminal ones
        as ``"retry-exhausted"``/``"permanent-failure"``. They reach a
        timeline through the log's own hub, not through ``telemetry``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub. The whole call
        runs inside a ``retry.call`` span carrying ``site``/``key`` and,
        on success, ``attempts``/``absorbed``; calls that recovered after
        absorbing failures additionally emit their :class:`RetryTrace`
        onto the hub timeline as a ``"retry-trace"`` event. Defaults to
        the free no-op hub.
    sleep:
        Injectable clock for tests.

    Raises
    ------
    RetryExhaustedError
        When every attempt failed transiently (the last failure is the
        ``__cause__``).
    Exception
        The original failure, immediately, when it classifies permanent.
    """
    policy = policy or RetryPolicy()
    generator = ensure_rng(rng)
    delays: list[float] = []
    errors: list[str] = []
    last_error: BaseException | None = None
    span = telemetry.span("retry.call", site=site, key=key)
    with span:
        for attempt in range(policy.max_attempts):
            try:
                injected = 0.0
                if injector is not None:
                    injected = injector.check(site, key)
                if policy.deadline is not None and injected > policy.deadline:
                    raise DeadlineExceededError(
                        f"{site} stalled for {injected:.3f}s (injected) "
                        f"against a {policy.deadline:.3f}s deadline")
                started = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - started + injected
                if policy.deadline is not None and elapsed > policy.deadline:
                    raise DeadlineExceededError(
                        f"{site} took {elapsed:.3f}s against a "
                        f"{policy.deadline:.3f}s deadline")
            except Exception as exc:
                last_error = exc
                if not is_transient(exc):
                    if event_log is not None:
                        event_log.record("permanent-failure", site, key=key,
                                         attempt=attempt + 1, error=exc)
                    raise
                errors.append(f"{type(exc).__name__}: {exc}")
                if attempt + 1 >= policy.max_attempts:
                    break
                delay = policy.backoff(attempt, generator)
                delays.append(delay)
                if event_log is not None:
                    kind = "deadline" \
                        if isinstance(exc, DeadlineExceededError) else "retry"
                    event_log.record(kind, site, key=key, attempt=attempt + 1,
                                     error=exc)
                if delay > 0:
                    sleep(delay)
                continue
            trace = RetryTrace(site=site, attempts=attempt + 1,
                               delays=tuple(delays),
                               errors=tuple(errors), succeeded=True)
            span.set("attempts", trace.attempts)
            span.set("absorbed", len(trace.errors))
            if trace.errors:
                telemetry.event(
                    "retry-trace", site, key=key, attempt=trace.attempts,
                    detail=f"recovered after absorbing {len(trace.errors)} "
                           f"transient failure(s)",
                    error=trace.errors[-1])
            return result, trace
        span.set("attempts", policy.max_attempts)
        span.set("absorbed", len(errors))
        if event_log is not None:
            event_log.record("retry-exhausted", site, key=key,
                             attempt=policy.max_attempts, error=last_error)
        raise RetryExhaustedError(
            f"{site} failed {policy.max_attempts} attempt(s); last error: "
            f"{errors[-1]}") from last_error
