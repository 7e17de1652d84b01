"""The scenario registry: named adversarial workloads, one spec each.

Every entry is a :class:`~repro.scenarios.spec.ScenarioSpec` the
conformance suite (``tests/test_scenarios_conformance.py``) executes
through all five paths. Coverage grows by registering one more spec —
the harness picks it up automatically.

Builtin coverage:

============================  ==========================================
``reliability-drift``         honest workers degrade mid-campaign (CDAS
                              evolving quality)
``sleeper-spammers``          reputation farmers turn after N answers
``colluding-clique``          a fraud ring copies its leader
``bursty-arrivals``           heavy-tail arrival pacing
``label-skew``                85/15 gold skew + hard questions
``fallible-expert``           the §6.7 slipping expert, deterministic
``difficulty-strata``         easy/medium/hard object strata
``worker-churn``              generational worker cohorts (grow
                              cold-start under churn)
``duplicate-resubmissions``   duplicate/conflicting re-sent answers
                              (first-write-wins conflict policy)
``sharded-multiblock``        sparse block-diagonal answer matrix: the
                              disjoint blocks §5.4's partitioning finds
============================  ==========================================

:data:`PRODUCTION_SCALE` is the deliberate exception: a production-sized
(n≈5k, k≈500) multi-block workload that stays **unregistered** so
the every-PR conformance and chaos sweeps (which parametrize over
:func:`scenario_names`) never pick it up; the ``slow``-marked suite runs
it on the nightly/manual CI trigger instead.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import DatasetError
from repro.scenarios.behaviors import (
    BurstySchedule,
    CollusionClique,
    PoissonSchedule,
    ReliabilityDrift,
    ResubmitDuplicates,
    SleeperSpammer,
    WorkerChurn,
)
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.spec import ExpertSpec, ScenarioSpec
from repro.workers.types import WorkerType

#: name -> spec. Mutated only through :func:`register_scenario`.
SCENARIO_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec,
                      replace: bool = False) -> ScenarioSpec:
    """Add a spec to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in SCENARIO_REGISTRY:
        raise DatasetError(f"scenario {spec.name!r} is already registered")
    SCENARIO_REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a registered spec up by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError as exc:
        raise DatasetError(
            f"unknown scenario {name!r}; "
            f"available: {sorted(SCENARIO_REGISTRY)}") from exc


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(SCENARIO_REGISTRY))


def compile_registered(name: str,
                       seed: int | None = None) -> CompiledScenario:
    """Compile a registered scenario (canonical seed unless overridden)."""
    return compile_scenario(get_scenario(name), seed=seed)


def iter_compiled(seed: int | None = None) -> Iterator[CompiledScenario]:
    """Compile every registered scenario, in name order."""
    for name in scenario_names():
        yield compile_registered(name, seed=seed)


# ----------------------------------------------------------------------
# Builtin specs. Conformance-sized (seconds, not minutes, per scenario —
# the harness solves |budget| × 3 paths × m hypothetical EMs per run).
# ----------------------------------------------------------------------
_HONEST_LEANING = {
    WorkerType.NORMAL: 0.6,
    WorkerType.SLOPPY: 0.2,
    WorkerType.UNIFORM_SPAMMER: 0.1,
    WorkerType.RANDOM_SPAMMER: 0.1,
}

register_scenario(ScenarioSpec(
    name="reliability-drift",
    description="Half the honest workers fatigue from 0.9 to 0.35 accuracy "
                "over their answer sequence; the model sees a crowd whose "
                "early and late answers disagree.",
    n_objects=36, n_workers=14, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=8,
    behaviors=(ReliabilityDrift(fraction=0.5, start_accuracy=0.9,
                                end_accuracy=0.35),),
    expert=ExpertSpec(n_validations=14),
    seed=1101,
))

register_scenario(ScenarioSpec(
    name="sleeper-spammers",
    description="A third of the honest pool answers faithfully for their "
                "first 4 answers, then pins a pet label — reputation "
                "farming that stationary profiles cannot express.",
    n_objects=36, n_workers=14, reliability=0.8,
    population=_HONEST_LEANING,
    answers_per_object=8,
    behaviors=(SleeperSpammer(fraction=0.3, honest_answers=4),),
    expert=ExpertSpec(n_validations=14),
    seed=1102,
))

register_scenario(ScenarioSpec(
    name="colluding-clique",
    description="Four workers submit the leader's answer sheet with "
                "probability 0.9 — correlated errors that violate the "
                "conditional-independence assumption of Dawid–Skene.",
    n_objects=36, n_workers=14, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=8,
    behaviors=(CollusionClique(size=4, copy_probability=0.9),),
    expert=ExpertSpec(n_validations=14),
    seed=1103,
))

register_scenario(ScenarioSpec(
    name="bursty-arrivals",
    description="The default population arriving in heavy-tailed bursts "
                "(Pareto lulls between geometric bursts) — stresses "
                "refresh cadence rather than answer content.",
    n_objects=36, n_workers=14, reliability=0.7,
    answers_per_object=8,
    schedule=BurstySchedule(rate=200.0, burst_size=15, alpha=1.3),
    expert=ExpertSpec(n_validations=14),
    seed=1104,
))

register_scenario(ScenarioSpec(
    name="label-skew",
    description="Gold labels drawn 85/15 with moderately hard questions: "
                "priors dominate, spammers pinning the majority label "
                "become nearly invisible to accuracy-style detectors.",
    n_objects=40, n_workers=14, reliability=0.7,
    answers_per_object=8,
    label_priors=(0.85, 0.15),
    difficulty_strata=((1.0, 0.3),),
    expert=ExpertSpec(n_validations=16),
    seed=1105,
))

register_scenario(ScenarioSpec(
    name="fallible-expert",
    description="An expert who slips on 15% of objects, compiled into a "
                "deterministic label sheet so every path faces the same "
                "wrong assertions (§6.7 made differential).",
    n_objects=36, n_workers=14, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=8,
    expert=ExpertSpec(mistake_probability=0.15, n_validations=14),
    seed=1106,
))

register_scenario(ScenarioSpec(
    name="difficulty-strata",
    description="An object set split 40/40/20 into easy (0.05), medium "
                "(0.35), and hard (0.7) questions under Poisson arrivals.",
    n_objects=40, n_workers=14, reliability=0.75,
    answers_per_object=8,
    schedule=PoissonSchedule(rate=150.0),
    difficulty_strata=((0.4, 0.05), (0.4, 0.35), (0.2, 0.7)),
    expert=ExpertSpec(n_validations=16),
    seed=1107,
))

register_scenario(ScenarioSpec(
    name="worker-churn",
    description="The worker pool turns over in three generational cohorts: "
                "each generation's answers arrive only after the previous "
                "generation finishes, so a streaming session keeps meeting "
                "brand-new workers mid-campaign and must cold-start their "
                "statistics (grow-path stress; labels are untouched).",
    n_objects=36, n_workers=15, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=8,
    behaviors=(WorkerChurn(generations=3),),
    expert=ExpertSpec(n_validations=14),
    seed=1108,
))

register_scenario(ScenarioSpec(
    name="duplicate-resubmissions",
    description="A third of the workers re-send answers (flaky clients, "
                "second thoughts): half the resubmissions are exact "
                "duplicates, half carry a conflicting label. The batch "
                "view keeps the first write — replaying the stream under "
                "on_conflict='ignore' must drop every conflict and match "
                "it bit-for-bit (the pinned first-write-wins policy).",
    n_objects=36, n_workers=14, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=8,
    behaviors=(ResubmitDuplicates(fraction=0.35, resubmit_probability=0.25,
                                  conflict_probability=0.5),),
    expert=ExpertSpec(n_validations=14),
    seed=1109,
))

register_scenario(ScenarioSpec(
    name="sharded-multiblock",
    description="Four disjoint object/worker blocks, dense inside and "
                "empty between: the sparse block-structured matrix of "
                "§5.4 where blocks share no workers. Run through all "
                "five runner paths, each held to the exact tolerance "
                "(tests/test_scenarios_conformance.py).",
    n_objects=48, n_workers=16, reliability=0.8,
    population=_HONEST_LEANING,
    answers_per_object=4,
    n_blocks=4,
    expert=ExpertSpec(n_validations=16),
    seed=1110,
))

#: Production-size multi-block workload (n≈5k, k≈500, 25 blocks) — the
#: scale the registry deliberately leaves out. NOT registered: the every-PR
#: scenario/chaos sweeps parametrize over the registry, and this spec is
#: minutes, not seconds. The ``slow``-marked conformance test runs it
#: behind the nightly/manual CI trigger.
PRODUCTION_SCALE = ScenarioSpec(
    name="production-scale-multiblock",
    description="Multi-block workload at production size: 5 000 "
                "objects answered inside 25 disjoint 200-object × "
                "20-worker blocks, 6 answers per object, a small expert "
                "budget. Exercises the same five runner paths as the "
                "conformance-sized registry entries, at the scale the "
                "ROADMAP north-star targets.",
    n_objects=5000, n_workers=500, reliability=0.75,
    population=_HONEST_LEANING,
    answers_per_object=6,
    n_blocks=25,
    expert=ExpertSpec(n_validations=12),
    seed=1120,
)
