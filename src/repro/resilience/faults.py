"""Deterministic, seed-driven fault injection at named sites.

A :class:`FaultPlan` declares *what* can fail — which site, which
key, which failure shape, how often — and a :class:`FaultInjector`
executes the plan deterministically: per-spec randomness is spawned
statelessly from the plan seed (:func:`repro.utils.rng.spawn_rngs`
semantics), and per-``(site, key)`` visit counters make a fault like
"the third checkpoint write fails once" an exact, replayable statement.
Two injectors built from the same plan and visited in the same order
fire the same faults — the property the chaos determinism suite pins.

Instrumented sites call :meth:`FaultInjector.check` at the top of the
guarded operation. A failure-shaped fault *raises* (the realistic typed
exception for the site: :class:`~repro.errors.TransientInjectedFault`,
:class:`~repro.errors.CheckpointWriteError`, …); a slowness-shaped fault
instead *returns* extra latency seconds which
:func:`~repro.resilience.call_with_retry` charges against its
per-attempt deadline — no wall-clock sleeping, so chaos tests stay fast
and flake-free.

Built-in sites (the names are a convention, not an enum — any caller may
guard its own):

==============================  ========================================
``session.conclude``            an exact streaming refinement
``store.checkpoint``            driver-level checkpoint write
``filestore.checkpoint-write``  the file store's manifest commit
``filestore.segment-read``      a segment read during restore (corrupt)
``expert.validate``             one expert elicitation (flaky endpoint)
==============================  ========================================
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import (CheckpointCorruptionError, CheckpointWriteError,
                          ExpertUnavailableError, PermanentInjectedFault,
                          TransientInjectedFault)

#: Failure shapes a spec can inject.
FAULT_KINDS = ("crash", "slow", "io-error", "corrupt", "flaky")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Parameters
    ----------
    site:
        The named site this fault arms.
    kind:
        ``"crash"`` — a worker/task died
        (:class:`~repro.errors.TransientInjectedFault`, or the permanent
        variant when ``transient=False``);
        ``"slow"`` — add ``delay`` seconds of simulated latency (the only
        non-raising kind);
        ``"io-error"`` — a transient checkpoint-write failure
        (:class:`~repro.errors.CheckpointWriteError`);
        ``"corrupt"`` — a read yielded garbage
        (:class:`~repro.errors.CheckpointCorruptionError`, always
        permanent);
        ``"flaky"`` — a transient expert/endpoint failure
        (:class:`~repro.errors.ExpertUnavailableError`).
    probability:
        Per-visit firing probability (drawn from the spec's own
        deterministic stream); 1.0 fires on every eligible visit.
    max_fires:
        Total firing budget; ``None`` is unbounded. The default of 1
        makes the common conformance shape — "fails once, the retry
        succeeds" — the default.
    key:
        Restrict the fault to one object/checkpoint key
        (``None`` matches every key).
    after_visits:
        Skip the first this-many eligible visits of ``(site, key)``
        before becoming armed — "the third write fails" is
        ``after_visits=2``.
    delay:
        Simulated extra seconds for ``kind="slow"``.
    transient:
        Whether a ``"crash"`` raises the transient or permanent injected
        fault (the other kinds carry fixed classifications).
    """

    site: str
    kind: str = "crash"
    probability: float = 1.0
    max_fires: int | None = 1
    key: int | str | None = None
    after_visits: int = 0
    delay: float = 0.0
    transient: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0 or None, "
                             f"got {self.max_fires}")
        if self.after_visits < 0:
            raise ValueError(
                f"after_visits must be >= 0, got {self.after_visits}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` plus the seed that
    makes every probabilistic draw replayable."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(spec.site for spec in self.specs)

    def transient_only(self) -> bool:
        """Whether every spec in the plan injects a *maskable* fault.

        True when no spec can surface a permanent failure: permanent
        crashes and corrupt reads are degradations by design, everything
        else a retry can absorb. The chaos conformance suite asserts
        bit-equality only for transient-only plans.
        """
        return all(spec.kind != "corrupt"
                   and (spec.kind != "crash" or spec.transient)
                   for spec in self.specs)


def transient_chaos_plan(seed: int = 0) -> FaultPlan:
    """The default transient-only schedule for conformance replays.

    One crashed refinement, two flaky expert calls, and one
    checkpoint-write IO error at each of the two write sites — every
    built-in failure shape that a retry must fully mask.
    """
    return FaultPlan(specs=(
        FaultSpec(site="session.conclude", kind="crash", after_visits=1),
        FaultSpec(site="expert.validate", kind="flaky", max_fires=2),
        FaultSpec(site="store.checkpoint", kind="io-error"),
        FaultSpec(site="filestore.checkpoint-write", kind="io-error"),
    ), seed=seed)


@dataclass(frozen=True)
class FiredFault:
    """Bookkeeping for one fault that actually fired."""

    site: str
    key: int | str | None
    visit: int
    kind: str
    spec_index: int

    def to_dict(self) -> dict:
        return {"site": self.site, "key": self.key, "visit": self.visit,
                "kind": self.kind, "spec_index": self.spec_index}


class FaultInjector:
    """Execute a :class:`FaultPlan` deterministically.

    Examples
    --------
    >>> plan = FaultPlan(specs=(FaultSpec(site="session.conclude"),))
    >>> injector = FaultInjector(plan)
    >>> injector.check("session.conclude")  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    TransientInjectedFault: ...
    >>> injector.check("session.conclude")  # budget spent: passes
    0.0
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._visits: dict[tuple[str, int | str | None], int] = \
            defaultdict(int)
        self._fires = [0] * len(self.plan.specs)
        # One independent stream per spec, a pure function of
        # (plan.seed, spec index) — sibling specs never perturb each
        # other's draws no matter the interleaving of site visits.
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence(
                (int(self.plan.seed), index)))
            for index in range(len(self.plan.specs))]
        self.fired: list[FiredFault] = []

    # ------------------------------------------------------------------
    def check(self, site: str, key: int | str | None = None) -> float:
        """Visit ``site`` for ``key``; raise or return injected latency.

        Returns the summed ``delay`` of every slow fault that fired
        (0.0 when none did); raises the typed exception of the first
        failure-shaped fault that fires. Each call counts as one visit
        of ``(site, key)`` whether or not anything fires — which is what
        lets a retried operation sail past a spent ``max_fires`` budget.
        """
        visit = self._visits[site, key]
        self._visits[site, key] += 1
        delay = 0.0
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.key is not None and spec.key != key:
                continue
            if visit < spec.after_visits:
                continue
            if spec.max_fires is not None \
                    and self._fires[index] >= spec.max_fires:
                continue
            if spec.probability < 1.0 \
                    and float(self._rngs[index].random()) >= spec.probability:
                continue
            self._fires[index] += 1
            self.fired.append(FiredFault(site=site, key=key, visit=visit,
                                         kind=spec.kind, spec_index=index))
            if spec.kind == "slow":
                delay += spec.delay
                continue
            raise self._exception(spec, site, key, visit)
        return delay

    def n_fired(self, site: str | None = None) -> int:
        """Faults fired so far (optionally restricted to one site)."""
        if site is None:
            return len(self.fired)
        return sum(1 for fault in self.fired if fault.site == site)

    # ------------------------------------------------------------------
    @staticmethod
    def _exception(spec: FaultSpec, site: str, key: int | str | None,
                   visit: int) -> Exception:
        where = f"at {site!r}" + (f" key={key!r}" if key is not None else "") \
            + f" (visit {visit})"
        if spec.kind == "io-error":
            return CheckpointWriteError(f"injected IO error {where}")
        if spec.kind == "corrupt":
            return CheckpointCorruptionError(
                f"injected corrupt read {where}")
        if spec.kind == "flaky":
            return ExpertUnavailableError(
                f"injected flaky endpoint {where}")
        if spec.transient:
            return TransientInjectedFault(f"injected crash {where}")
        return PermanentInjectedFault(f"injected permanent fault {where}")

    def __repr__(self) -> str:
        return (f"FaultInjector(specs={len(self.plan.specs)}, "
                f"fired={len(self.fired)})")
