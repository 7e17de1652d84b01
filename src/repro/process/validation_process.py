"""The hybrid answer-validation process — Algorithm 1 of the paper (§5.4).

One :class:`ValidationProcess` drives the full cycle of Figure 3: select an
object (expert guidance) → elicit expert input → detect and handle faulty
workers → integrate the validation via i-EM (``conclude``) → refresh the
deterministic assignment (``filter``). It stops when the validation goal Δ
holds or the effort budget ``b`` is spent, and records the paper's
evaluation metrics along the way.

The same class runs every strategy — hybrid, pure information-gain, pure
worker-driven, the max-entropy baseline, random — because strategies are
plug-in selectors; Algorithm 1's spammer handling is keyed to iterations in
which the worker-driven branch was drawn, exactly as in the paper.

The loop is driven through a :class:`~repro.streaming.ValidationSession`:
expert validations and worker maskings are ingested as deltas, and every
``conclude`` is a warm-started refinement over the session's maintained
sufficient statistics — bit-for-bit what ``IncrementalEM.conclude`` would
compute from the full matrix, and replayable from the session's
write-ahead log.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.answer_set import AnswerSet
from repro.core.iem import IncrementalEM
from repro.core.instantiation import deterministic_assignment
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.uncertainty import answer_set_uncertainty
from repro.core.validation import ExpertValidation
from repro.errors import BudgetExhaustedError, GoalError, GuidanceError
from repro.experts.confirmation import ConfirmationCheck
from repro.experts.simulated import Expert
from repro.guidance.base import GuidanceContext, GuidanceStrategy
from repro.guidance.hybrid import HybridStrategy
from repro.metrics.evaluation import precision as precision_metric
from repro.process.faulty_filter import FaultyWorkerFilter
from repro.process.goals import (NeverSatisfied, QualityTarget,
                                 ValidationGoal, iter_goals)
from repro.process.report import StepRecord, ValidationReport
from repro.process.weighting import dynamic_weight
from repro.streaming.session import ValidationSession
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import ensure_rng
from repro.workers.spammer_detection import SpammerDetector


class ValidationProcess:
    """Iterative expert validation of a crowd answer set (Algorithm 1).

    Parameters
    ----------
    answer_set:
        The crowd answers ``N`` to validate.
    expert:
        Source of answer validations (oracle, noisy, interactive, …).
    strategy:
        Guidance strategy; defaults to the paper's hybrid approach.
    aggregator:
        The :class:`~repro.core.iem.IncrementalEM` handed to the streaming
        session that runs every ``conclude``, to the default confirmation
        check, and to guidance for its look-ahead knobs; defaults to a
        fresh ``IncrementalEM()``. A subclass that overrides ``conclude``
        or ``refine`` is rejected with :class:`TypeError` rather than
        silently bypassed (a restored session rebuilds a plain one).
    goal:
        Stopping predicate Δ; defaults to "never" (budget-bound only).
    budget:
        Expert-effort budget ``b`` (number of expert interactions,
        including confirmation-check reconsiderations). Defaults to the
        number of objects.
    detector:
        Faulty-worker detector; defaults to paper thresholds
        (τ_s = 0.2, τ_p = 0.8).
    handle_faulty:
        Whether Algorithm 1's spammer handling (answer masking) is active.
    confirmation_interval:
        Run the §5.5 confirmation check every this-many iterations
        (``None`` disables it — appropriate for oracle experts).
    gold:
        Optional ground-truth labels enabling precision tracking and
        precision-based goals.
    store:
        Optional :class:`repro.state.SessionStore` giving the run crash
        durability. It becomes the session's journal right after the
        construction-time solve, so every later mutation (the
        construction-time quality-target conclusions included) and a
        step marker per iteration land in its write-ahead log. Full
        checkpoints are taken on the ``checkpoint_every`` cadence (plus
        once when :meth:`run` finishes), the process-loop analogue of the
        streaming replay's ``conclude_every_seconds`` timer.
    checkpoint_every:
        Checkpoint after every this-many iterations (requires ``store``;
        ``None`` checkpoints only at the end of :meth:`run`).
    rng:
        Randomness for the roulette wheel and strategy tie-breaks.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hub (or spawn
        scope). Each :meth:`step` emits a ``process.step`` span nesting
        the strategy's ``guidance.select`` and the session's
        ``session.conclude``; checkpoints emit ``process.checkpoint``.
        Purely observational — never consulted for decisions — and
        defaults to the free :data:`repro.telemetry.NULL_TELEMETRY`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.answer_set import AnswerSet
    >>> from repro.experts.simulated import OracleExpert
    >>> from repro.guidance.max_entropy import MaxEntropyStrategy
    >>> answers = AnswerSet(np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1]]),
    ...                     labels=("T", "F"))
    >>> gold = np.array([0, 1, 1])
    >>> process = ValidationProcess(answers, OracleExpert(gold),
    ...                             strategy=MaxEntropyStrategy(),
    ...                             gold=gold, budget=3, rng=0)
    >>> report = process.run()
    >>> report.final_precision()
    1.0
    """

    def __init__(self,
                 answer_set: AnswerSet,
                 expert: Expert,
                 strategy: GuidanceStrategy | None = None,
                 aggregator: IncrementalEM | None = None,
                 goal: ValidationGoal | None = None,
                 budget: int | None = None,
                 detector: SpammerDetector | None = None,
                 handle_faulty: bool = True,
                 confirmation_interval: int | None = None,
                 confirmation_check: ConfirmationCheck | None = None,
                 gold: Sequence[int] | np.ndarray | None = None,
                 store=None,
                 checkpoint_every: int | None = None,
                 rng: np.random.Generator | int | None = None,
                 telemetry=NULL_TELEMETRY) -> None:
        self.answer_set = answer_set
        self.expert = expert
        self.strategy = strategy or HybridStrategy()
        self.aggregator = aggregator or IncrementalEM()
        for method in ("conclude", "refine"):
            if getattr(type(self.aggregator), method) \
                    is not getattr(IncrementalEM, method):
                raise TypeError(
                    f"{type(self.aggregator).__name__} overrides {method}, "
                    f"but the process concludes through its streaming "
                    f"session; pass a plain IncrementalEM to configure it")
        self.goal = goal or NeverSatisfied()
        self.budget = int(budget) if budget is not None else answer_set.n_objects
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        self.detector = detector or SpammerDetector()
        self.handle_faulty = bool(handle_faulty)
        if confirmation_interval is not None and confirmation_interval < 1:
            raise ValueError("confirmation_interval must be >= 1 or None, "
                             f"got {confirmation_interval}")
        self.confirmation_interval = confirmation_interval
        self.confirmation_check = confirmation_check \
            or ConfirmationCheck(self.aggregator)
        self.gold = None if gold is None else np.asarray(gold, dtype=np.int64)
        if self.gold is not None and self.gold.shape != (answer_set.n_objects,):
            raise ValueError(
                f"gold must have length {answer_set.n_objects}, "
                f"got shape {self.gold.shape}")
        if self.gold is None:
            needy = [type(g).__name__ for g in iter_goals(self.goal)
                     if g.requires_gold]
            if needy:
                raise GoalError(
                    f"goal(s) {needy} require gold labels but the process "
                    f"was constructed without gold — pass gold= or choose "
                    f"a gold-free goal")
        self._quality_targets = [g for g in iter_goals(self.goal)
                                 if isinstance(g, QualityTarget)]
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1 or None, "
                                 f"got {checkpoint_every}")
            if store is None:
                raise ValueError("checkpoint_every requires a store")
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.rng = ensure_rng(rng)
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

        # Mutable run state (Algorithm 1, lines 1–4), held by a streaming
        # session: validations and worker maskings are ingested as deltas
        # and every conclude is a warm-started refinement.
        self.session = ValidationSession.from_answer_set(
            answer_set, aggregator=self.aggregator, telemetry=self.telemetry)
        self.validation = self.session.validation
        self.faulty_filter = FaultyWorkerFilter()
        self.hybrid_weight = 0.0
        self.iteration = 0
        self.effort = 0
        self.records: list[StepRecord] = []
        self.prob_set: ProbabilisticAnswerSet = \
            self.session.conclude_snapshot()
        self.session.attach_journal(store)
        self._sync_quality_targets()
        self._initial_precision = self.current_precision()
        self._initial_uncertainty = answer_set_uncertainty(self.prob_set)

    def _sync_quality_targets(self) -> None:
        """Conclude every object whose posterior clears a quality target.

        Each conclusion is a journaled ``conclude_object``, so crash/resume
        replays the mask bit-exactly. The mask is sticky — objects dipping
        back below the threshold stay concluded (see
        :class:`~repro.process.goals.QualityTarget`).
        """
        if not self._quality_targets:
            return
        mask = self.session.concluded_mask
        for target in self._quality_targets:
            for obj in target.newly_concluded(self.prob_set.assignment, mask):
                self.session.conclude_object(int(obj))
                mask[obj] = True

    def _checkpoint(self, meta: dict) -> None:
        """One checkpoint of the live session."""
        with self.telemetry.span("process.checkpoint",
                                 iteration=meta.get("iteration")):
            self.store.checkpoint(self.session, meta=meta)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def current_assignment(self) -> np.ndarray:
        """The deterministic assignment ``d_i`` (filter step)."""
        return deterministic_assignment(self.prob_set)

    def current_precision(self) -> float | None:
        """Precision of ``d_i`` against gold (``None`` without gold)."""
        if self.gold is None:
            return None
        return precision_metric(self.current_assignment(), self.gold)

    def is_done(self) -> bool:
        """Whether Algorithm 1's loop condition fails."""
        return (self.goal.satisfied(self)
                or self.effort >= self.budget
                or self.validation.count >= self.answer_set.n_objects)

    # ------------------------------------------------------------------
    # One iteration of Algorithm 1 (lines 6–18)
    # ------------------------------------------------------------------
    def step(self) -> StepRecord:
        """Run one select → elicit → handle → integrate iteration."""
        if self.effort >= self.budget:
            raise BudgetExhaustedError(
                f"effort budget of {self.budget} already spent")
        if self.validation.count >= self.answer_set.n_objects:
            raise GuidanceError("all objects are already validated")
        started = time.perf_counter()
        span = self.telemetry.span("process.step",
                                   iteration=self.iteration + 1)
        with span:
            # (1) Select an object, pruning quality-target-concluded
            # objects from the frontier. With no targets (or none
            # concluded yet) the mask is literally None, so the disabled
            # path is bit-identical to a process built before quality
            # targets existed.
            mask = self.session.concluded_mask \
                if self._quality_targets else None
            if mask is not None and not mask.any():
                mask = None
            context = GuidanceContext(
                prob_set=self.prob_set,
                aggregator=self.aggregator,
                detector=self.detector,
                rng=self.rng,
                hybrid_weight=self.hybrid_weight,
                concluded=mask,
                telemetry=self.telemetry,
            )
            frontier_size = int(context.candidates().size)
            selection = self.strategy.select(context)
            obj = selection.object_index
            worker_branch = selection.strategy == "worker"

            # (2) Elicit expert input and compute the error rate ε_i.
            aggregated = int(np.argmax(self.prob_set.assignment[obj]))
            label = int(self.expert.validate(obj, {
                "aggregated": aggregated,
                "beliefs": np.array(self.prob_set.assignment[obj]),
            }))
            error_rate = 1.0 - float(self.prob_set.assignment[obj, label])
            self.session.add_validation(obj, label, overwrite=True)
            self.effort += 1
            self.iteration += 1

            # (3) Detect (always) and handle (worker-branch only) spammers.
            detection = self.detector.detect(self.answer_set,
                                             self.validation,
                                             self.prob_set.priors)
            self.faulty_filter.observe(detection)
            if self.handle_faulty and worker_branch:
                self.faulty_filter.commit()
                self.session.set_masked_workers(self.faulty_filter.suspected)
            spammer_ratio = detection.faulty_ratio()
            self.hybrid_weight = dynamic_weight(
                error_rate, spammer_ratio, self.validation.ratio())

            # (4) Integrate the validation (conclude + filter): a
            # warm-started refinement over the session's delta-maintained
            # statistics.
            self.prob_set = self.session.conclude_snapshot()

            # (5) Periodic confirmation check for erroneous expert
            # input (§5.5).
            reconsidered: tuple[int, ...] = ()
            if (self.confirmation_interval is not None
                    and self.iteration % self.confirmation_interval == 0):
                reconsidered = self._run_confirmation_check()

            # (6) Conclude objects whose refreshed posterior clears a
            # target.
            self._sync_quality_targets()

            span.set("object_index", obj)
            span.set("strategy", selection.strategy)
            span.set("frontier_size", frontier_size)
            span.set("effort", self.effort)
        elapsed = time.perf_counter() - started
        self.telemetry.histogram("process.step_seconds").observe(elapsed)
        precision = self.current_precision()
        record = StepRecord(
            iteration=self.iteration,
            object_index=obj,
            expert_label=label,
            strategy=selection.strategy,
            hybrid_weight=self.hybrid_weight,
            error_rate=error_rate,
            spammer_ratio=spammer_ratio,
            n_suspected=len(self.faulty_filter.suspected),
            uncertainty=answer_set_uncertainty(self.prob_set),
            precision=float("nan") if precision is None else precision,
            effort=self.effort,
            em_iterations=self.prob_set.n_em_iterations,
            elapsed_seconds=elapsed,
            reconsidered=reconsidered,
            frontier_size=frontier_size,
        )
        self.records.append(record)
        self.session.mark_step(self.iteration)
        if self.checkpoint_every is not None \
                and self.iteration % self.checkpoint_every == 0:
            self._checkpoint({"iteration": self.iteration,
                              "effort": self.effort})
        return record

    def _run_confirmation_check(self) -> tuple[int, ...]:
        """Leave-one-out sweep; flagged objects are re-elicited (+1 effort)."""
        with self.telemetry.span("process.confirmation",
                                 iteration=self.iteration):
            report = self.confirmation_check.run(self.prob_set)
        reconsidered: list[int] = []
        for obj in report.flagged:
            if self.effort >= self.budget:
                break
            new_label = int(self.expert.reconsider(int(obj)))
            if new_label != self.validation.label_of(int(obj)):
                self.session.add_validation(int(obj), new_label,
                                            overwrite=True)
            self.effort += 1
            reconsidered.append(int(obj))
        if reconsidered:
            self.prob_set = self.session.conclude_snapshot()
        return tuple(reconsidered)

    # ------------------------------------------------------------------
    def report(self) -> ValidationReport:
        """The run-so-far as a report (also valid mid-run).

        External drivers that call :meth:`step` themselves — the scenario
        conformance harness records per-step state between iterations —
        use this to get the same artifact :meth:`run` returns.
        """
        return ValidationReport(
            n_objects=self.answer_set.n_objects,
            initial_precision=(float("nan") if self._initial_precision is None
                               else self._initial_precision),
            initial_uncertainty=self._initial_uncertainty,
            records=list(self.records),
            goal_reached=self.goal.satisfied(self),
        )

    def run(self) -> ValidationReport:
        """Iterate until the goal holds, the budget is spent, or all objects
        are validated; return the full report (plus a final checkpoint
        when a store is attached)."""
        while not self.is_done():
            self.step()
        if self.store is not None:
            self._checkpoint({"iteration": self.iteration,
                              "effort": self.effort, "final": True})
        return self.report()
