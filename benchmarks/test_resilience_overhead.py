"""Supervision must be (nearly) free when nothing goes wrong.

Measures the cost of running the sharded refresh under a
:class:`~repro.resilience.SupervisedExecutor` — retry classification,
deadline accounting, per-task fault-injection checks, degradation
bookkeeping — relative to the bare refresher, at the paper-scale
workload (``n=2000, k=200``, Table 5 territory). The armed
fault injector carries a real plan whose specs never fire, so the
measured path includes every per-task check a chaos run performs.

Asserts the no-fault overhead factor stays under a conservative
ceiling; with ``REPRO_BENCH_RECORD=1`` it also appends the measurement
to ``BENCH_guidance.json``, extending the per-PR performance trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.resilience import (FaultInjector, FaultPlan, FaultSpec,
                              SupervisedExecutor)
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.streaming import ShardedRefresher, ValidationSession

from _bench import median_seconds, record


#: Supervised refresh may cost at most this factor over the bare one
#: when no faults fire (measured ~1.0x; the ceiling absorbs CI noise).
OVERHEAD_CEILING = 1.5


def test_supervised_refresh_overhead_without_faults():
    crowd = simulate_crowd(
        CrowdConfig(n_objects=2000, n_workers=200, n_labels=4,
                    answers_per_object=15, reliability=0.8), rng=0)

    def fresh_session() -> ValidationSession:
        return ValidationSession.from_answer_set(crowd.answer_set)

    bare = ShardedRefresher(max_objects_per_block=256)
    # A plan that is armed (checks run for every task, every wave) but
    # whose spec never reaches its firing window: pure-overhead path.
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="shard.refresh", kind="crash",
                  after_visits=10**9),)))
    supervised = ShardedRefresher(
        max_objects_per_block=256,
        supervisor=SupervisedExecutor(fault_injector=injector))

    bare_session = fresh_session()
    supervised_session = fresh_session()
    bare.refresh(bare_session, force_all=True)
    supervised.refresh(supervised_session, force_all=True)
    assert np.array_equal(bare_session.model.assignment,
                          supervised_session.model.assignment), \
        "supervision changed the refreshed model despite zero faults"
    assert len(supervised.supervisor.event_log) == 0

    bare_time = median_seconds(
        lambda: bare.refresh(bare_session, force_all=True), rounds=3)
    supervised_time = median_seconds(
        lambda: supervised.refresh(supervised_session, force_all=True),
        rounds=3)
    overhead = supervised_time / bare_time
    print(f"\nsharded refresh at n=2000/k=200 (8 blocks): bare "
          f"{bare_time * 1e3:.1f} ms vs supervised "
          f"{supervised_time * 1e3:.1f} ms -> {overhead:.2f}x overhead")
    record("supervised_refresh_overhead", {
        "n_objects": 2000, "n_workers": 200, "n_labels": 4,
        "max_objects_per_block": 256,
        "bare_ops_per_sec": 1.0 / bare_time,
        "supervised_ops_per_sec": 1.0 / supervised_time,
        "overhead_factor": overhead, "ceiling": OVERHEAD_CEILING,
        "injector_armed": True, "faults_fired": injector.n_fired(),
    })
    assert injector.n_fired() == 0
    assert overhead <= OVERHEAD_CEILING, (
        f"supervised refresh costs {overhead:.2f}x the bare refresh with "
        f"no faults firing (ceiling {OVERHEAD_CEILING}x)")
