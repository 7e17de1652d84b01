"""Property-based determinism contracts for supervised execution.

The resilience layer's central promise is that *chaos is replayable*:
a fault schedule, a retry policy, and a seed fully determine what fires,
what retries, and what the final model looks like. Hypothesis drives the
seed/parameter space and pins:

* identical seeds ⇒ identical retry traces (``EventLog`` JSON equality)
  and bit-identical final posteriors;
* :class:`~repro.state.MemorySessionStore` and
  :class:`~repro.state.FileSessionStore` are interchangeable under the
  same fault schedule — same degradations, same floats;
* a retry schedule is a pure function of its seed.

The scenario/steps are recorded once at module scope; per-example work
is replay only. File stores use ``tempfile.mkdtemp`` (not ``tmp_path``:
function-scoped fixtures trip hypothesis's health checks).
"""

from __future__ import annotations

import shutil
import tempfile
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TransientInjectedFault
from repro.resilience import (FaultInjector, FaultPlan, FaultSpec,
                              RetryPolicy, call_with_retry)
from repro.scenarios import ScenarioRunner, compile_registered
from repro.state import FileSessionStore, MemorySessionStore

#: Fault sites that fire identically regardless of the store backend.
_STORE_AGNOSTIC_PLAN_SPECS = (
    FaultSpec(site="session.conclude", kind="crash", after_visits=1,
              max_fires=2),
    FaultSpec(site="expert.validate", kind="flaky", max_fires=2),
    FaultSpec(site="store.checkpoint", kind="io-error", probability=0.6,
              max_fires=2),
)


@lru_cache(maxsize=1)
def _recorded():
    """One batch run, shared by every example: (scenario, runner, template,
    steps, fault-free streaming posteriors)."""
    scenario = compile_registered("colluding-clique")
    runner = ScenarioRunner(seed=11)
    process, steps = runner.run_batch(scenario)
    baseline = runner.replay_streaming(scenario, steps, process.session)
    return scenario, runner, process.session, steps, baseline


def _fault_replay(plan: FaultPlan, store=None, n_kills: int = 0):
    scenario, runner, template, steps, _ = _recorded()
    return runner.replay_under_faults(
        scenario, steps, template, plan=plan, store=store,
        retry_policy=RetryPolicy(max_attempts=3), n_kills=n_kills)


@given(seed=st.integers(0, 2**16 - 1))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_identical_seeds_identical_traces_and_posteriors(seed):
    plan = FaultPlan(specs=_STORE_AGNOSTIC_PLAN_SPECS, seed=seed)
    first = _fault_replay(plan)
    second = _fault_replay(plan)
    assert first.event_log.to_json() == second.event_log.to_json()
    assert [f.to_dict() for f in first.injector.fired] \
        == [f.to_dict() for f in second.injector.fired]
    assert np.array_equal(first.posteriors, second.posteriors)
    # Transient-only plan: supervision masked every fault bit-for-bit.
    _, _, _, _, baseline = _recorded()
    assert float(np.abs(first.posteriors - baseline).max()) == 0.0


@given(seed=st.integers(0, 2**16 - 1))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_memory_and_file_stores_agree_under_faults(seed):
    plan = FaultPlan(specs=_STORE_AGNOSTIC_PLAN_SPECS, seed=seed)
    in_memory = _fault_replay(plan, store=MemorySessionStore(), n_kills=1)
    root = tempfile.mkdtemp(prefix="resilience-hyp-")
    try:
        on_disk = _fault_replay(plan, store=FileSessionStore(root),
                                n_kills=1)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert in_memory.event_log.to_json() == on_disk.event_log.to_json()
    assert np.array_equal(in_memory.posteriors, on_disk.posteriors)


@given(seed=st.integers(0, 2**16 - 1),
       probability=st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_retry_traces_pure_function_of_seed(seed, probability):
    plan = FaultPlan(specs=(
        FaultSpec(site="s", kind="crash", probability=probability,
                  max_fires=2),), seed=seed)

    def traces():
        injector = FaultInjector(plan)
        out = []
        for _ in range(5):
            try:
                _, trace = call_with_retry(
                    lambda: 1, RetryPolicy(max_attempts=3, base_delay=0.1,
                                           jitter=0.5),
                    site="s", rng=seed, injector=injector,
                    sleep=lambda _t: None)
                out.append(trace)
            except TransientInjectedFault:  # pragma: no cover
                out.append(None)
        return out

    assert traces() == traces()
