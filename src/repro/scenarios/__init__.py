"""Adversarial scenarios + the differential conformance harness.

The paper characterizes guidance and i-EM on *stationary* crowds (§2's
Figure 1 worker types). This package makes the non-stationary world a
first-class, registry-driven test surface:

* :mod:`~repro.scenarios.behaviors` — time-varying worker behaviors
  (reliability drift, sleeper spammers, colluding cliques) and arrival
  schedules (Poisson, heavy-tailed bursts);
* :mod:`~repro.scenarios.spec` — declarative, composable scenario
  specifications;
* :mod:`~repro.scenarios.compiler` — one seed → a batch
  :class:`~repro.core.answer_set.AnswerSet` *and* a timed event replay,
  projected from the same label draws;
* :mod:`~repro.scenarios.runner` — drives every scenario through the
  batch, streaming, ingest, crash/resume and replay-under-faults paths
  and asserts they agree bit for bit;
* :mod:`~repro.scenarios.registry` — named builtin workloads; future PRs
  add coverage by registering one spec.

Quickstart
----------
>>> from repro.scenarios import ScenarioRunner, compile_registered
>>> scenario = compile_registered("colluding-clique")
>>> outcome = ScenarioRunner().run(scenario, lookahead="exact")
>>> outcome.streaming_divergence.max_abs_posterior_gap <= 1e-9
True
"""

from repro.scenarios.behaviors import (
    BEHAVIOR_TYPES,
    SCHEDULE_TYPES,
    ArrivalSchedule,
    BurstySchedule,
    CollusionClique,
    PoissonSchedule,
    ReliabilityDrift,
    ResubmitDuplicates,
    SleeperSpammer,
    WorkerBehavior,
    WorkerChurn,
)
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.registry import (
    PRODUCTION_SCALE,
    SCENARIO_REGISTRY,
    compile_registered,
    get_scenario,
    iter_compiled,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    ConformanceError,
    FaultReplay,
    PathDivergence,
    RecordedStep,
    ScenarioOutcome,
    ScenarioRunner,
)
from repro.scenarios.spec import ExpertSpec, ScenarioSpec

__all__ = [
    "BEHAVIOR_TYPES",
    "PRODUCTION_SCALE",
    "SCENARIO_REGISTRY",
    "SCHEDULE_TYPES",
    "ArrivalSchedule",
    "BurstySchedule",
    "CollusionClique",
    "CompiledScenario",
    "ConformanceError",
    "ExpertSpec",
    "FaultReplay",
    "PathDivergence",
    "PoissonSchedule",
    "RecordedStep",
    "ReliabilityDrift",
    "ResubmitDuplicates",
    "ScenarioOutcome",
    "ScenarioRunner",
    "ScenarioSpec",
    "SleeperSpammer",
    "WorkerBehavior",
    "WorkerChurn",
    "compile_registered",
    "compile_scenario",
    "get_scenario",
    "iter_compiled",
    "register_scenario",
    "scenario_names",
]
