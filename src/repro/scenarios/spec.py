"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single source of truth for one adversarial
workload: a worker-population mix (reusing the §2 taxonomy and the crowd
simulator's profile generators), a set of time-varying
:mod:`~repro.scenarios.behaviors`, an arrival schedule, object-set shaping
(label skew, difficulty strata), and the expert's fallibility. Compiling a
spec (:func:`repro.scenarios.compiler.compile_scenario`) yields both a
batch :class:`~repro.core.answer_set.AnswerSet` and a
:mod:`repro.simulation.stream`-compatible timed event replay, derived from
the *same* label draws — which is what makes cross-path conformance checks
meaningful.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.errors import DatasetError
from repro.scenarios.behaviors import (
    ArrivalSchedule,
    PoissonSchedule,
    WorkerBehavior,
)
from repro.simulation.crowd import CrowdConfig
from repro.utils.checks import check_fraction, check_positive_int
from repro.workers.types import DEFAULT_POPULATION, WorkerType


@dataclass(frozen=True)
class ExpertSpec:
    """How the validating expert behaves in a scenario.

    ``mistake_probability`` corrupts the expert's label sheet at compile
    time (a uniformly random wrong label), so every execution path sees the
    *same* fallible expert — the §6.7 robustness setting made
    deterministic. ``n_validations`` bounds the expert-effort budget
    (default: half the objects).
    """

    mistake_probability: float = 0.0
    n_validations: int | None = None

    def __post_init__(self) -> None:
        check_fraction(self.mistake_probability, "mistake_probability")
        if self.n_validations is not None and self.n_validations < 0:
            raise DatasetError(
                f"n_validations must be >= 0, got {self.n_validations}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One adversarial workload, declaratively.

    Attributes
    ----------
    name, description:
        Registry identity and human-readable intent.
    n_objects, n_workers, n_labels, reliability, population,
    answers_per_object:
        The stationary base crowd, with the semantics of
        :class:`~repro.simulation.crowd.CrowdConfig`.
    behaviors:
        Time-varying :class:`~repro.scenarios.behaviors.WorkerBehavior`
        instances layered on top of the base crowd.
    schedule:
        Arrival-time model for the event replay.
    label_priors:
        Gold-label distribution (label-skewed object sets).
    difficulty_strata:
        ``((fraction, difficulty), …)`` splitting the object set into
        difficulty strata (fractions are normalized; objects are assigned
        deterministically, then shuffled by a dedicated seed stream).
        ``None`` means difficulty 0 everywhere.
    expert:
        The validating expert's fallibility and budget.
    n_blocks:
        Block-diagonal answer structure (see
        :attr:`~repro.simulation.crowd.CrowdConfig.n_blocks`): > 1 makes
        the workload sparse and block-structured, the disjoint-block
        matrices the §5.4 partitioner is built to find. The default
        single block leaves every draw byte-identical to pre-block
        compilations.
    seed:
        Canonical seed; every compile from the same seed is bit-identical.
    """

    name: str
    description: str = ""
    n_objects: int = 60
    n_workers: int = 20
    n_labels: int = 2
    reliability: float = 0.65
    population: Mapping[WorkerType, float] = field(
        default_factory=lambda: dict(DEFAULT_POPULATION))
    answers_per_object: int | None = None
    behaviors: tuple[WorkerBehavior, ...] = ()
    schedule: ArrivalSchedule = field(default_factory=PoissonSchedule)
    label_priors: tuple[float, ...] | None = None
    difficulty_strata: tuple[tuple[float, float], ...] | None = None
    expert: ExpertSpec = field(default_factory=ExpertSpec)
    n_blocks: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise DatasetError("a scenario needs a non-empty name")
        check_positive_int(self.n_objects, "n_objects")
        check_positive_int(self.n_workers, "n_workers")
        check_positive_int(self.n_labels, "n_labels")
        check_fraction(self.reliability, "reliability")
        if self.difficulty_strata is not None:
            for fraction, difficulty in self.difficulty_strata:
                if fraction < 0:
                    raise DatasetError(
                        f"stratum fraction must be >= 0, got {fraction}")
                check_fraction(difficulty, "difficulty")

    def to_crowd_config(self) -> CrowdConfig:
        """The stationary base of this scenario as a simulator config."""
        return CrowdConfig(
            n_objects=self.n_objects,
            n_workers=self.n_workers,
            n_labels=self.n_labels,
            reliability=self.reliability,
            population=dict(self.population),
            answers_per_object=self.answers_per_object,
            label_priors=self.label_priors,
            n_blocks=self.n_blocks,
        )

    @property
    def budget(self) -> int:
        """Expert-effort budget (defaults to half the object count)."""
        if self.expert.n_validations is not None:
            return min(self.expert.n_validations, self.n_objects)
        return max(1, self.n_objects // 2)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """Copy with a different canonical seed (for repeat studies)."""
        return replace(self, seed=int(seed))

    def with_size(self, n_objects: int | None = None,
                  n_workers: int | None = None) -> "ScenarioSpec":
        """Copy resized (keeps behaviors/schedule/expert unchanged)."""
        return replace(
            self,
            n_objects=self.n_objects if n_objects is None else int(n_objects),
            n_workers=self.n_workers if n_workers is None else int(n_workers),
        )

    def compile(self, seed: int | None = None):
        """Compile into a :class:`~repro.scenarios.compiler.CompiledScenario`.

        Convenience for :func:`repro.scenarios.compiler.compile_scenario`
        (imported lazily to keep spec declarations import-light).
        """
        from repro.scenarios.compiler import compile_scenario
        return compile_scenario(self, seed=seed)
