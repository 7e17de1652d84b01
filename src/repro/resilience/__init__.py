"""Fault injection + retries for the validation engine.

The resilience layer makes the streaming validation path safe to run as
a long-lived service: deterministic seed-driven chaos
(:class:`FaultPlan` / :class:`FaultInjector`), classified retries with
deadlines (:class:`RetryPolicy` / :func:`call_with_retry`), and an audit
trail of every degradation (:class:`EventLog`, whose entries are the
telemetry timeline's :class:`~repro.telemetry.TimelineEvent` records).

The conformance contract: replaying a scenario under a *transient-only*
fault plan must produce a final posterior bit-equal to the fault-free
replay (L∞ = 0.0), while unmaskable failures surface as recorded
events — an exhausted retry, a permanent failure, a checkpoint
scan-back — never as silent divergence.
"""

from repro.resilience.events import EVENT_KINDS, EventLog
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
    transient_chaos_plan,
)
from repro.resilience.retry import RetryPolicy, RetryTrace, call_with_retry

__all__ = [
    "EVENT_KINDS",
    "FAULT_KINDS",
    "EventLog",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "RetryPolicy",
    "RetryTrace",
    "call_with_retry",
    "transient_chaos_plan",
]
