"""The differential end-to-end conformance harness.

A :class:`ScenarioRunner` drives one compiled scenario through the five
execution paths the system ships:

1. **batch** — a full :class:`~repro.process.validation_process
   .ValidationProcess` (Algorithm 1) with a guidance strategy choosing the
   validation order against the scenario's precompiled expert sheet;
2. **streaming** — a fresh :class:`~repro.streaming.ValidationSession`
   seeded from the batch answer set, replaying the *recorded* batch
   decisions (validations + worker maskings) event by event through
   exact warm-started ``conclude``s;
3. **ingest** — the same replay into a session that starts empty and
   ingests the scenario's stream view (its ``answer_events``, in arrival
   order, conflicting resubmissions dropped first-write-wins) instead of
   being seeded from the batch matrix;
4. **crash/resume** — the streaming replay again, but checkpointed into a
   :class:`~repro.state.SessionStore` on a fixed cadence with process
   kills injected at random step boundaries; each kill discards the live
   session and resumes from ``store.restore()`` (latest checkpoint +
   write-ahead-log tail);
5. **replay under faults** — the streaming replay once more, with every
   driver-level operation supervised (:mod:`repro.resilience`) and a
   deterministic :class:`~repro.resilience.FaultPlan` firing failures at
   the named sites: flaky expert elicitations, crashed refinements, and
   checkpoint-write IO errors are retried whole; unmaskable failures
   degrade into recorded events.

and then checks that they agree:

* batch vs streaming must match to ``exact_atol`` (the streaming exact
  path is bit-for-bit the batch kernel, so the observed divergence is
  0.0 — any widening is a regression in the view-maintenance contract);
* ingest vs the streaming replay must match to ``exact_atol`` — the
  statistics encode answers in sorted order, so a session fed the stream
  holds the same encoding as one seeded from the matrix, and every
  refinement sees the same floats;
* crash/resume vs the uninterrupted streaming run must also match to
  ``exact_atol`` — restore is bit-for-bit, so surviving a kill changes
  *no float* of the final posterior;
* replay-under-faults vs the fault-free streaming run must match to
  ``exact_atol`` whenever the fault plan is *transient-only*: retries and
  deadline reruns may change how many attempts things took, but never a
  single float of the final posterior.

The outcome bundles the paper's §6.1 effort-to-quality curves (via
:class:`~repro.process.report.ValidationReport`) and spammer-detection
precision/recall against the scenario's ground-truth faulty mask, so a
scenario run doubles as a metrics report.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Collection
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.experts.simulated import ScriptedExpert
from repro.experts.supervised import SupervisedExpert
from repro.guidance.base import GuidanceStrategy
from repro.guidance.information_gain import (
    LOOKAHEAD_MODES,
    InformationGainStrategy,
)
from repro.process.report import ValidationReport
from repro.process.validation_process import ValidationProcess
from repro.resilience import (
    EventLog,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    call_with_retry,
    transient_chaos_plan,
)
from repro.scenarios.compiler import CompiledScenario
from repro.state import MemorySessionStore
from repro.streaming.session import ValidationSession
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import spawn_rngs
from repro.workers.spammer_detection import (
    SpammerDetector,
    detection_precision_recall,
)


class ConformanceError(ReproError):
    """Raised when execution paths disagree beyond the documented bounds."""


@dataclass(frozen=True)
class RecordedStep:
    """One batch iteration, replayable against a session.

    ``concluded_objects`` lists the objects a quality target concluded by
    the end of this iteration (the first step also carries conclusions
    made at process construction — the mask is monotone during a run, so
    folding them forward preserves the final union). Empty when the
    runner has no quality target.
    """

    object_index: int
    expert_label: int
    masked_workers: frozenset[int]
    concluded_objects: tuple[int, ...] = ()


@dataclass(frozen=True)
class PathDivergence:
    """Posterior disagreement between two execution paths."""

    max_abs_posterior_gap: float
    map_agreement: float

    def __str__(self) -> str:
        return (f"L∞={self.max_abs_posterior_gap:.3e}, "
                f"MAP agreement={self.map_agreement:.3f}")


@dataclass(frozen=True)
class FaultReplay:
    """Path 5 artifacts: posteriors plus the full degradation record.

    ``posteriors`` is the final assignment matrix; ``event_log`` holds
    every degradation the supervision recorded (retries, deadline
    breaches, exhausted retries, scan-backs); ``injector`` exposes which
    planned faults actually fired.
    """

    posteriors: np.ndarray
    event_log: EventLog
    injector: FaultInjector

    @property
    def n_faults_fired(self) -> int:
        return len(self.injector.fired)

    @property
    def n_degradations(self) -> int:
        return len(self.event_log)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything one conformance run produced.

    Attributes
    ----------
    scenario, lookahead:
        Which workload ran, under which guidance look-ahead mode.
    report:
        The batch path's full effort-to-quality trace.
    streaming_divergence:
        Streaming replay vs batch; the same kernel on the same floats
        makes this exactly zero.
    ingest_divergence:
        Ingest replay vs the streaming replay; a session fed the stream
        holds the streaming session's encoding, so this too is exactly
        zero.
    resume_divergence:
        Crash/resume replay vs the uninterrupted streaming replay; the
        restore contract makes this exactly zero.
    fault_divergence:
        Replay-under-faults vs the fault-free streaming replay. The
        default transient-only chaos plan must be fully masked, so this
        too is exactly zero.
    n_faults_fired, n_degradations:
        How many injected faults fired during path 5 and how many
        degradation events the supervision recorded for them — evidence
        the chaos actually happened rather than being planned and missed.
    detection_precision, detection_recall:
        Spammer detection against the scenario's ``true_spammer_mask``
        after the run's final validation state.
    n_detected, n_truly_faulty:
        Sizes behind the precision/recall.
    elapsed_seconds:
        Wall clock of the full five-path run.
    """

    scenario: str
    lookahead: str
    report: ValidationReport
    streaming_divergence: PathDivergence
    ingest_divergence: PathDivergence
    resume_divergence: PathDivergence
    detection_precision: float
    detection_recall: float
    n_detected: int
    n_truly_faulty: int
    elapsed_seconds: float = 0.0
    fault_divergence: PathDivergence = PathDivergence(
        max_abs_posterior_gap=0.0, map_agreement=1.0)
    n_faults_fired: int = 0
    n_degradations: int = 0

    def summary(self) -> dict[str, float | str | int]:
        """Flat scalars for tables and JSON reports."""
        return {
            "scenario": self.scenario,
            "lookahead": self.lookahead,
            "initial_precision": float(self.report.initial_precision),
            "final_precision": float(self.report.final_precision()),
            "effort": int(self.report.total_effort),
            "stream_linf": float(
                self.streaming_divergence.max_abs_posterior_gap),
            "ingest_linf": float(
                self.ingest_divergence.max_abs_posterior_gap),
            "resume_linf": float(
                self.resume_divergence.max_abs_posterior_gap),
            "fault_linf": float(
                self.fault_divergence.max_abs_posterior_gap),
            "n_faults_fired": int(self.n_faults_fired),
            "n_degradations": int(self.n_degradations),
            "detection_precision": float(self.detection_precision),
            "detection_recall": float(self.detection_recall),
            "elapsed_seconds": float(self.elapsed_seconds),
        }


def _divergence(reference: np.ndarray, other: np.ndarray) -> PathDivergence:
    gap = float(np.max(np.abs(reference - other))) if reference.size else 0.0
    agreement = float(np.mean(
        np.argmax(reference, axis=1) == np.argmax(other, axis=1))) \
        if reference.size else 1.0
    return PathDivergence(max_abs_posterior_gap=gap, map_agreement=agreement)


class ScenarioRunner:
    """Run scenarios through every execution path and assert agreement.

    Parameters
    ----------
    strategy_factory:
        ``(lookahead) -> GuidanceStrategy`` for the batch path; defaults
        to :class:`~repro.guidance.InformationGainStrategy` with the given
        look-ahead mode and a small candidate limit (scenario matrices are
        conformance-sized, not benchmark-sized).
    candidate_limit:
        Candidate pruning width for the default strategy.
    exact_atol:
        Maximum tolerated posterior divergence between any two paths the
        runner compares. Every replay feeds identical floats to the same
        kernel, so this is a regression tripwire, not a modeling
        tolerance.
    handle_faulty:
        Whether the batch path masks detected spammers (Algorithm 1's
        worker handling); replays mirror whatever the batch path did.
    n_kills, checkpoint_every:
        Crash/resume path knobs: how many kills are injected (at step
        boundaries drawn from a dedicated seed stream; capped at the
        number of boundaries available) and the checkpoint cadence in
        steps. ``n_kills=0`` degrades path 4 to a store-logged but
        uninterrupted replay.
    seed:
        Tie-break randomness for the guidance roulette and the kill-point
        draws (scenario content is fixed by the compiled scenario, not by
        this).
    quality_target:
        Optional :class:`~repro.process.goals.QualityTarget` goal for the
        batch path. When set, the batch run stops early once the target's
        coverage holds, guidance prunes concluded objects, the recorded
        steps carry the per-step concluded deltas, and every replay path
        reproduces the mask — crash/resume asserts the restored mask is
        bit-equal to the recorded union. ``None`` (default) leaves every
        path exactly as it was before quality targets existed.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub. Each execution
        path instruments into its own ``spawn`` scope (``batch``,
        ``streaming``, ``ingest``, ``resume``, ``faults``), so one
        conformance run yields five labelled sub-streams in a single
        manifest; :meth:`run` itself is a ``scenario.run`` span.
        Instrumentation observes and never perturbs — posteriors are
        bit-identical with the hub on or off (pinned by the telemetry
        test suite).
    """

    def __init__(self,
                 strategy_factory: Callable[[str], GuidanceStrategy]
                 | None = None,
                 candidate_limit: int = 8,
                 exact_atol: float = 1e-9,
                 handle_faulty: bool = True,
                 n_kills: int = 2,
                 checkpoint_every: int = 3,
                 seed: int = 0,
                 quality_target=None,
                 telemetry=NULL_TELEMETRY) -> None:
        if n_kills < 0:
            raise ValueError(f"n_kills must be >= 0, got {n_kills}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.strategy_factory = strategy_factory
        self.candidate_limit = int(candidate_limit)
        self.exact_atol = float(exact_atol)
        self.handle_faulty = bool(handle_faulty)
        self.n_kills = int(n_kills)
        self.checkpoint_every = int(checkpoint_every)
        self.seed = int(seed)
        self.quality_target = quality_target
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def _strategy(self, lookahead: str) -> GuidanceStrategy:
        if self.strategy_factory is not None:
            return self.strategy_factory(lookahead)
        return InformationGainStrategy(
            candidate_limit=self.candidate_limit, lookahead=lookahead)

    # ------------------------------------------------------------------
    def run_batch(self, scenario: CompiledScenario, lookahead: str = "exact",
                  ) -> tuple[ValidationProcess, list[RecordedStep]]:
        """Path 1: the guided batch process, recording every decision."""
        rng = spawn_rngs(np.random.SeedSequence((self.seed, 0xC0FFEE)), 1)[0]
        kwargs = {}
        if self.quality_target is not None:
            kwargs["goal"] = self.quality_target
        process = ValidationProcess(
            scenario.answer_set,
            ScriptedExpert({i: int(lab)
                            for i, lab in enumerate(scenario.expert_labels)}),
            strategy=self._strategy(lookahead),
            budget=scenario.spec.budget,
            handle_faulty=self.handle_faulty,
            gold=scenario.gold,
            rng=rng,
            telemetry=self.telemetry.spawn("batch"),
            **kwargs,
        )
        steps: list[RecordedStep] = []
        # All-False before the loop, so construction-time conclusions show
        # up in the first recorded step's delta.
        seen_concluded = np.zeros(scenario.n_objects, dtype=bool)
        while not process.is_done():
            record = process.step()
            mask = process.session.concluded_mask
            newly = np.flatnonzero(mask & ~seen_concluded)
            seen_concluded = mask
            steps.append(RecordedStep(
                object_index=int(record.object_index),
                expert_label=int(record.expert_label),
                masked_workers=frozenset(process.session.masked_workers),
                concluded_objects=tuple(int(o) for o in newly),
            ))
        return process, steps

    def replay_streaming(self, scenario: CompiledScenario,
                         steps: list[RecordedStep],
                         template: ValidationSession) -> np.ndarray:
        """Path 2: exact warm-started session replay of the recorded run."""
        session = self._replay(self._fresh_session(
            scenario, template, self.telemetry.spawn("streaming")), steps)
        return np.array(session.model.assignment)

    def replay_ingest(self, scenario: CompiledScenario,
                      steps: list[RecordedStep],
                      template: ValidationSession) -> np.ndarray:
        """Path 3: path 2's replay into a session fed the answer stream.

        The session starts empty at the scenario's dimensions and ingests
        ``scenario.answer_events`` in arrival order through
        :meth:`~repro.streaming.ValidationSession.add_answers` with
        ``on_conflict="ignore"``, so a conflicting resubmission is dropped
        first-write-wins and counted (``session.n_conflicts``) exactly as
        the batch view dropped it. Only how the session is built differs
        from path 2; the recorded steps replay through the same loop.
        """
        session = ValidationSession(
            scenario.n_objects, scenario.n_workers, scenario.n_labels,
            aggregator=template.aggregator,
            telemetry=self.telemetry.spawn("ingest"))
        session.add_answers(((event.object_index, event.worker_index,
                              event.label)
                             for event in scenario.answer_events),
                            on_conflict="ignore")
        return np.array(self._replay(session, steps).model.assignment)

    def replay_crash_resume(self, scenario: CompiledScenario,
                            steps: list[RecordedStep],
                            template: ValidationSession,
                            store=None) -> np.ndarray:
        """Path 4: the streaming replay, killed and resumed mid-run.

        Every step's mutations are write-ahead logged into ``store``
        (default: a fresh :class:`~repro.state.MemorySessionStore`; pass a
        :class:`~repro.state.FileSessionStore` to exercise the on-disk
        format) and a full checkpoint is taken every
        ``checkpoint_every`` steps. ``n_kills`` step boundaries are drawn
        from a dedicated seed stream; at each, the live session is
        *discarded* and rebuilt via ``store.restore()`` — latest
        checkpoint plus WAL-tail replay — then the replay continues from
        the step after the last logged step marker. Because restore is
        bit-for-bit and the WAL replays the same warm-started conclude
        chain, the final posterior must equal the uninterrupted streaming
        replay's exactly (L∞ = 0.0).
        """
        session = self._replay(
            self._fresh_session(scenario, template,
                                self.telemetry.spawn("resume")),
            steps,
            store=store if store is not None else MemorySessionStore(),
            kills=self._kill_points(len(steps), self.n_kills, 0xDEAD))
        # The concluded mask must survive the kills exactly: every bit in
        # the recorded union came back through checkpoint + WAL replay.
        expected = np.zeros(scenario.n_objects, dtype=bool)
        for step in steps:
            expected[list(step.concluded_objects)] = True
        if not np.array_equal(session.concluded_mask, expected):
            raise ConformanceError(
                f"scenario {scenario.spec.name!r}: crash/resume lost the "
                f"quality-target concluded mask — restored "
                f"{int(session.concluded_mask.sum())} bits, recorded "
                f"{int(expected.sum())}")
        return np.array(session.model.assignment)

    def replay_under_faults(self, scenario: CompiledScenario,
                            steps: list[RecordedStep],
                            template: ValidationSession,
                            *,
                            plan: FaultPlan | None = None,
                            store=None,
                            retry_policy: RetryPolicy | None = None,
                            n_kills: int = 0) -> FaultReplay:
        """Path 5: the recorded replay, supervised, under a fault schedule.

        Every driver-level operation runs under supervision: expert
        elicitations through a :class:`~repro.experts.SupervisedExpert`
        (site ``"expert.validate"``), and refinements and checkpoint
        writes through :func:`~repro.resilience.call_with_retry` (sites
        ``"session.conclude"`` / ``"store.checkpoint"``).

        With a *transient-only* ``plan`` (default:
        :func:`~repro.resilience.transient_chaos_plan`) the final
        posterior is bit-equal to the fault-free streaming replay: an
        injected fault fires *before* the guarded operation runs, so
        every retried conclude is a whole conclude and the warm-start
        chain is reproduced float for float. ``n_kills`` additionally
        crashes and restores the session mid-replay (``store.restore``
        scan-back included), which must also be invisible in the result.
        """
        plan = plan if plan is not None else transient_chaos_plan(self.seed)
        injector = FaultInjector(plan)
        scope = self.telemetry.spawn("faults")
        event_log = EventLog(telemetry=scope)
        policy = retry_policy or RetryPolicy(max_attempts=3)
        expert = SupervisedExpert(
            ScriptedExpert({int(step.object_index): int(step.expert_label)
                            for step in steps}),
            retry_policy=policy, fault_injector=injector,
            event_log=event_log, rng=0)
        guard_rng = spawn_rngs(
            np.random.SeedSequence((self.seed, 0xFA_17)), 1)[0]

        def guard(call, site: str) -> None:
            call_with_retry(call, policy, site=site, rng=guard_rng,
                            injector=injector, event_log=event_log,
                            telemetry=scope)

        # Elicit through the supervised expert so flaky-endpoint faults
        # land on the expert site; the recorded label is what gets
        # ingested either way (the scripted expert is pure).
        session = self._replay(
            self._fresh_session(scenario, template, scope), steps,
            store=store if store is not None else MemorySessionStore(),
            kills=self._kill_points(len(steps), n_kills, 0xFA_11),
            guard=guard, elicit=expert.validate, event_log=event_log)
        return FaultReplay(posteriors=np.array(session.model.assignment),
                           event_log=event_log, injector=injector)

    def _kill_points(self, n_steps: int, n_kills: int,
                     stream: int) -> set[int]:
        """``n_kills`` distinct step boundaries in ``[1, n_steps)``, drawn
        from the seed stream ``(seed, stream)``."""
        if n_steps < 2 or n_kills < 1:
            return set()
        rng = spawn_rngs(np.random.SeedSequence((self.seed, stream)), 1)[0]
        boundaries = np.arange(1, n_steps)
        chosen = rng.choice(boundaries, size=min(n_kills, boundaries.size),
                            replace=False)
        return {int(b) for b in chosen}

    def _replay(self, session: ValidationSession,
                steps: list[RecordedStep], *,
                store=None,
                kills: Collection[int] = (),
                guard=lambda call, site: call(),
                elicit=None,
                event_log=None) -> ValidationSession:
        """The recorded steps, replayed into a fresh ``session`` (all
        replay paths); returns the session that finished the run.

        Each refinement is the session's exact
        :meth:`~repro.streaming.ValidationSession.conclude`. With a
        ``store``, the session journals into it, a checkpoint is taken
        before the first step and after every ``checkpoint_every`` steps,
        and before each step index in ``kills`` the live session is
        discarded and rebuilt by ``store.restore()``, resuming after the
        last logged step marker. ``guard(call, site)`` runs each
        refinement (site ``"session.conclude"``) and checkpoint (site
        ``"store.checkpoint"``); ``elicit(obj)`` runs before each step's
        validation.
        """
        telemetry = session.telemetry
        session.attach_journal(store)

        def checkpoint(step: int) -> None:
            if store is not None:
                guard(lambda: store.checkpoint(session, meta={"step": step}),
                      "store.checkpoint")

        guard(session.conclude, "session.conclude")
        checkpoint(-1)
        pending = set(kills)
        index = 0
        while index < len(steps):
            if index in pending:
                pending.discard(index)  # each kill fires exactly once
                del session  # the "crash": all live state is gone
                restored = store.restore(event_log=event_log)
                session = restored.session
                # Checkpoints carry neither the journal nor a hub; the
                # resumed session picks both back up here.
                session.attach_journal(store)
                session.attach_telemetry(telemetry)
                index = 0 if restored.step is None else restored.step + 1
                continue
            step = steps[index]
            if elicit is not None:
                elicit(step.object_index)
            session.add_validation(step.object_index, step.expert_label,
                                   overwrite=True)
            session.set_masked_workers(step.masked_workers)
            guard(session.conclude, "session.conclude")
            for obj in step.concluded_objects:
                session.conclude_object(obj)
            session.mark_step(index)
            if (index + 1) % self.checkpoint_every == 0:
                checkpoint(index)
            index += 1
        return session

    @staticmethod
    def _fresh_session(scenario: CompiledScenario,
                       template: ValidationSession,
                       telemetry) -> ValidationSession:
        """A new session seeded from the scenario's answer set, with the
        batch path's aggregator."""
        return ValidationSession.from_answer_set(
            scenario.answer_set, aggregator=template.aggregator,
            telemetry=telemetry)

    # ------------------------------------------------------------------
    def run(self, scenario: CompiledScenario, lookahead: str = "exact",
            check: bool = True) -> ScenarioOutcome:
        """All five paths + agreement checks + metrics for one scenario.

        With ``check=True`` (default), a violation of the documented
        tolerances raises :class:`ConformanceError`; ``check=False``
        returns the outcome for inspection regardless.
        """
        started = time.perf_counter()
        span = self.telemetry.span("scenario.run",
                                   scenario=scenario.spec.name,
                                   lookahead=lookahead)
        with span:
            process, steps = self.run_batch(scenario, lookahead)
            batch_posteriors = np.array(process.prob_set.assignment)

            streaming = self.replay_streaming(scenario, steps,
                                              process.session)
            ingested = self.replay_ingest(scenario, steps, process.session)
            resumed = self.replay_crash_resume(scenario, steps,
                                               process.session)
            fault_replay = self.replay_under_faults(scenario, steps,
                                                    process.session)
            span.set("n_steps", len(steps))
        streaming_divergence = _divergence(batch_posteriors, streaming)
        ingest_divergence = _divergence(streaming, ingested)
        resume_divergence = _divergence(streaming, resumed)
        fault_divergence = _divergence(streaming, fault_replay.posteriors)

        detection = SpammerDetector().detect(
            scenario.answer_set, process.validation,
            process.prob_set.priors)
        precision, recall = detection_precision_recall(
            detection.spammer_mask, scenario.true_spammer_mask)

        outcome = ScenarioOutcome(
            scenario=scenario.spec.name,
            lookahead=lookahead,
            report=process.report(),
            streaming_divergence=streaming_divergence,
            ingest_divergence=ingest_divergence,
            resume_divergence=resume_divergence,
            detection_precision=precision,
            detection_recall=recall,
            n_detected=int(np.count_nonzero(detection.spammer_mask)),
            n_truly_faulty=int(
                np.count_nonzero(scenario.true_spammer_mask)),
            elapsed_seconds=time.perf_counter() - started,
            fault_divergence=fault_divergence,
            n_faults_fired=fault_replay.n_faults_fired,
            n_degradations=fault_replay.n_degradations,
        )
        if check:
            self.check(outcome)
        return outcome

    # ------------------------------------------------------------------
    def check(self, outcome: ScenarioOutcome) -> None:
        """Raise :class:`ConformanceError` on out-of-tolerance divergence."""
        stream_gap = outcome.streaming_divergence.max_abs_posterior_gap
        if stream_gap > self.exact_atol:
            raise ConformanceError(
                f"scenario {outcome.scenario!r} ({outcome.lookahead}): "
                f"batch vs streaming posteriors diverge by {stream_gap:.3e} "
                f"(> {self.exact_atol:.1e}) — the exact streaming path must "
                f"be bit-for-bit with the batch kernel")
        ingest_gap = outcome.ingest_divergence.max_abs_posterior_gap
        if ingest_gap > self.exact_atol:
            raise ConformanceError(
                f"scenario {outcome.scenario!r} ({outcome.lookahead}): "
                f"the session fed the answer stream diverges from the "
                f"seeded streaming replay by {ingest_gap:.3e} "
                f"(> {self.exact_atol:.1e}) — ingesting the stream must "
                f"build the same statistics as seeding from the matrix")
        resume_gap = outcome.resume_divergence.max_abs_posterior_gap
        if resume_gap > self.exact_atol:
            raise ConformanceError(
                f"scenario {outcome.scenario!r} ({outcome.lookahead}): "
                f"crash/resume replay diverges from the uninterrupted "
                f"streaming run by {resume_gap:.3e} "
                f"(> {self.exact_atol:.1e}) — checkpoint restore must be "
                f"bit-for-bit")
        fault_gap = outcome.fault_divergence.max_abs_posterior_gap
        if fault_gap > self.exact_atol:
            raise ConformanceError(
                f"scenario {outcome.scenario!r} ({outcome.lookahead}): "
                f"replay under transient-only faults diverges from the "
                f"fault-free streaming run by {fault_gap:.3e} "
                f"(> {self.exact_atol:.1e}) — retried operations must "
                f"mask injected faults without touching a single float")

    def run_matrix(self, scenarios, lookaheads=LOOKAHEAD_MODES,
                   check: bool = True) -> list[ScenarioOutcome]:
        """Every scenario × look-ahead mode, collected into one list."""
        outcomes: list[ScenarioOutcome] = []
        for scenario in scenarios:
            for lookahead in lookaheads:
                outcomes.append(self.run(scenario, lookahead, check=check))
        return outcomes
