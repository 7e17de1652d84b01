"""Supervised parallel execution: timeouts, retries, shard quarantine.

:class:`SupervisedExecutor` wraps a :class:`repro.parallel.Executor`
with the failure semantics a long-lived service needs from its shard
fleet:

* every task runs under a per-attempt **deadline** (real elapsed time
  plus any injected latency);
* failures are **classified** (:func:`repro.errors.is_transient`) —
  transient ones are retried in backoff-spaced waves, permanent ones
  fail the task immediately;
* tasks that keep failing burn their shard's **failure budget**; a shard
  that exceeds it is **quarantined** — skipped by subsequent runs until
  :meth:`SupervisedExecutor.lift_quarantine` — so one poisoned block
  cannot stall every refresh;
* every degradation is recorded into an
  :class:`~repro.resilience.EventLog`, never printed or lost.

Tasks must be *pure* (the per-block i-EM solves are): a task abandoned
by a deadline breach after it ran merely discards its result, and a
retried task recomputes from identical inputs. Failures inside pool
workers are captured and shipped back as values, so one bad shard never
poisons the whole map call (see also the cancellation fix in
:meth:`repro.parallel.Executor.map` for the unsupervised path).
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import is_transient
from repro.parallel.executor import Executor
from repro.resilience.events import EventLog
from repro.resilience.retry import RetryPolicy
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import ensure_rng

#: Task statuses in a :class:`TaskOutcome`.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one supervised task.

    ``value`` is the task's return value for ``status="ok"`` and
    ``None`` otherwise; ``attempts`` counts calls actually made (0 for a
    task skipped because its shard was already quarantined).
    ``queue_wait`` is the seconds the final attempt sat between dispatch
    and the worker starting it (pool saturation), as distinct from
    ``elapsed``, the worker-side run time plus injected latency —
    previously the wait was silently folded away inside the pool and
    unobservable from outcomes or degradation events.
    """

    key: int | str
    status: str
    value: object = None
    attempts: int = 0
    elapsed: float = 0.0
    queue_wait: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class _CapturedCall:
    """Picklable wrapper running one task and capturing its failure.

    Returns ``(ok, payload, elapsed, transient, started_at)`` —
    exceptions are rendered and classified *inside* the pool worker, so
    the parent never needs to unpickle exotic exception types.
    ``started_at`` is the worker-side ``perf_counter`` reading at task
    entry; on Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is
    system-wide and survives ``fork``, so the parent can subtract its
    own dispatch reading to recover how long the task queued.
    """

    def __init__(self, fn: Callable, star: bool) -> None:
        self.fn = fn
        self.star = star

    def __call__(self, item) -> tuple[bool, object, float, bool, float]:
        started = time.perf_counter()
        try:
            value = self.fn(*item) if self.star else self.fn(item)
        except Exception as exc:
            return (False, f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started, is_transient(exc),
                    started)
        return (True, value, time.perf_counter() - started, True, started)


class SupervisedExecutor:
    """Run task batches with retries, deadlines, and shard quarantine.

    Parameters
    ----------
    executor:
        The underlying map backend (default: serial). Parallel modes
        keep their parallelism — each retry wave maps all still-pending
        tasks in one call.
    retry_policy:
        Attempt budget + backoff (+ optional per-attempt ``deadline``,
        which ``deadline`` below overrides when given).
    deadline:
        Convenience override for the per-attempt deadline in seconds.
    failure_budget:
        How many *failed runs* (retries already exhausted) a single key
        may accumulate before it is quarantined.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted in
        the parent before each dispatch of each task.
    event_log:
        Degradation sink (a fresh :class:`~repro.resilience.EventLog`
        when omitted; exposed as :attr:`event_log`).
    seed:
        Determinism for backoff jitter draws.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub. Each
        :meth:`run` executes inside a ``supervisor.run`` span and every
        completed attempt feeds the ``supervisor.queue_wait_seconds`` /
        ``supervisor.run_seconds`` histograms. A fresh internal
        ``event_log`` records onto the hub, so its entries are the
        shared timeline's own events, worker-side ``queue_wait`` and
        ``run_time`` included.

    Examples
    --------
    >>> supervisor = SupervisedExecutor()
    >>> [o.value for o in supervisor.run(lambda x: x * x, [1, 2, 3])]
    [1, 4, 9]
    """

    def __init__(self,
                 executor: Executor | None = None,
                 *,
                 retry_policy: RetryPolicy | None = None,
                 deadline: float | None = None,
                 failure_budget: int = 2,
                 fault_injector=None,
                 event_log: EventLog | None = None,
                 seed: int = 0,
                 telemetry=NULL_TELEMETRY) -> None:
        if failure_budget < 1:
            raise ValueError(
                f"failure_budget must be >= 1, got {failure_budget}")
        self.executor = executor or Executor("serial")
        policy = retry_policy or RetryPolicy()
        if deadline is not None:
            policy = RetryPolicy(
                max_attempts=policy.max_attempts,
                base_delay=policy.base_delay, multiplier=policy.multiplier,
                max_delay=policy.max_delay, jitter=policy.jitter,
                deadline=deadline)
        self.retry_policy = policy
        self.failure_budget = int(failure_budget)
        self.fault_injector = fault_injector
        self.event_log = event_log if event_log is not None \
            else EventLog(telemetry=telemetry)
        self.telemetry = telemetry
        self._tel_queue_wait = telemetry.histogram(
            "supervisor.queue_wait_seconds")
        self._tel_run_time = telemetry.histogram("supervisor.run_seconds")
        self._rng = ensure_rng(seed)
        #: Cumulative failed runs per key (across :meth:`run` calls).
        self.failures: Counter = Counter()
        #: Keys currently quarantined.
        self.quarantined: set[int | str] = set()

    # ------------------------------------------------------------------
    def lift_quarantine(self, key: int | str | None = None) -> None:
        """Re-admit one key (or all) and forget its failure history."""
        if key is None:
            self.quarantined.clear()
            self.failures.clear()
        else:
            self.quarantined.discard(key)
            self.failures.pop(key, None)

    # ------------------------------------------------------------------
    def run(self, fn: Callable, items: Sequence, *,
            keys: Sequence[int | str] | None = None,
            site: str = "task",
            star: bool = False) -> list[TaskOutcome]:
        """Execute ``fn`` over ``items`` under supervision.

        Returns one :class:`TaskOutcome` per item, in input order —
        never raises for task failures. ``keys`` names each item for
        injection, budgets, and quarantine (default: its index).
        """
        items = list(items)
        keys = list(range(len(items))) if keys is None else list(keys)
        if len(keys) != len(items):
            raise ValueError(f"{len(keys)} keys for {len(items)} items")
        call = _CapturedCall(fn, star)
        policy = self.retry_policy

        outcomes: dict[int, TaskOutcome] = {}
        pending: list[int] = []
        for position, key in enumerate(keys):
            if key in self.quarantined:
                outcomes[position] = TaskOutcome(
                    key=key, status=STATUS_QUARANTINED,
                    error="shard is quarantined")
            else:
                pending.append(position)

        span = self.telemetry.span("supervisor.run", site=site,
                                   n_items=len(items),
                                   n_quarantined=len(items) - len(pending))
        with span:
            for attempt in range(policy.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    delay = policy.backoff(attempt - 1, self._rng)
                    if delay > 0:
                        time.sleep(delay)
                dispatch: list[int] = []
                delays: list[float] = []
                survivors: list[int] = []
                for position in pending:
                    key = keys[position]
                    injected = 0.0
                    if self.fault_injector is not None:
                        try:
                            injected = self.fault_injector.check(site, key)
                        except Exception as exc:
                            self._absorb(outcomes, survivors, position, key,
                                         site, attempt, exc,
                                         is_transient(exc))
                            continue
                    if policy.deadline is not None \
                            and injected > policy.deadline:
                        self._absorb(
                            outcomes, survivors, position, key, site,
                            attempt,
                            f"DeadlineExceededError: injected "
                            f"{injected:.3f}s latency > "
                            f"{policy.deadline:.3f}s deadline",
                            True, kind="deadline")
                        continue
                    dispatch.append(position)
                    delays.append(injected)
                dispatched = time.perf_counter()
                results = self.executor.map(
                    call, [items[position] for position in dispatch])
                for position, injected, \
                        (ok, payload, elapsed, transient, started_at) \
                        in zip(dispatch, delays, results):
                    key = keys[position]
                    charged = elapsed + injected
                    queue_wait = max(0.0, started_at - dispatched)
                    self._tel_queue_wait.observe(queue_wait)
                    self._tel_run_time.observe(elapsed)
                    if ok and (policy.deadline is None
                               or charged <= policy.deadline):
                        outcomes[position] = TaskOutcome(
                            key=key, status=STATUS_OK, value=payload,
                            attempts=attempt + 1, elapsed=charged,
                            queue_wait=queue_wait)
                    elif ok:
                        self._absorb(
                            outcomes, survivors, position, key, site,
                            attempt,
                            f"DeadlineExceededError: {charged:.3f}s > "
                            f"{policy.deadline:.3f}s deadline",
                            True, kind="deadline", queue_wait=queue_wait,
                            run_time=elapsed)
                    else:
                        self._absorb(outcomes, survivors, position, key,
                                     site, attempt, payload, transient,
                                     queue_wait=queue_wait,
                                     run_time=elapsed)
                pending = survivors
            if self.telemetry.enabled:
                statuses = Counter(
                    outcome.status for outcome in outcomes.values())
                span.set("n_ok", statuses.get(STATUS_OK, 0))
                span.set("n_failed", statuses.get(STATUS_FAILED, 0))
                span.set("n_quarantined",
                         statuses.get(STATUS_QUARANTINED, 0))
        return [outcomes[position] for position in range(len(items))]

    def starmap_run(self, fn: Callable, items: Sequence, *,
                    keys: Sequence[int | str] | None = None,
                    site: str = "task") -> list[TaskOutcome]:
        """:meth:`run` with each item unpacked as positional arguments."""
        return self.run(fn, items, keys=keys, site=site, star=True)

    # ------------------------------------------------------------------
    def _absorb(self, outcomes: dict, survivors: list[int], position: int,
                key, site: str, attempt: int, error, transient: bool,
                kind: str | None = None,
                queue_wait: float | None = None,
                run_time: float | None = None) -> None:
        """Handle one failed attempt: requeue it when retry budget remains
        (permanent failures forfeit theirs), else finalize the task as
        failed, charge the key's failure budget, and quarantine on
        exhaustion. ``queue_wait``/``run_time`` carry worker-side timing
        for attempts that actually ran (``None`` for attempts abandoned
        before dispatch)."""
        failed = dict(key=key, attempt=attempt + 1, error=error,
                      queue_wait=queue_wait, run_time=run_time)
        if transient and attempt + 1 < self.retry_policy.max_attempts:
            self.event_log.record(kind or "retry", site, **failed)
            survivors.append(position)
            return
        terminal = "retry-exhausted" if transient else "permanent-failure"
        rendered = self.event_log.record(terminal, site, **failed).error
        outcomes[position] = TaskOutcome(
            key=key, status=STATUS_FAILED, attempts=attempt + 1,
            queue_wait=queue_wait or 0.0, elapsed=run_time or 0.0,
            error=rendered)
        self.failures[key] += 1
        if self.failures[key] >= self.failure_budget \
                and key not in self.quarantined:
            self.quarantined.add(key)
            self.event_log.record(
                "quarantine", site, key=key,
                detail=f"failure budget of {self.failure_budget} exhausted",
                error=rendered)

    def __repr__(self) -> str:
        return (f"SupervisedExecutor(executor={self.executor!r}, "
                f"max_attempts={self.retry_policy.max_attempts}, "
                f"deadline={self.retry_policy.deadline}, "
                f"quarantined={sorted(map(str, self.quarantined))})")
