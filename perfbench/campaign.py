"""The measured process: one workload's inputs, one single-threaded process.

Started by ``run.py`` as ``python -m perfbench.campaign``; it loads the
handed-over input arrays, runs the workload through the public API in a
closed loop (the next operation starts when the previous one returns),
checks the outputs, and writes its raw measurements as JSON to ``--out``.

Untraced runs repeat the workload back to back while the next repetition is
expected to end within ``--seconds`` (at least once; ``--seconds 0`` runs
exactly one repetition and no extra set-ups) and measure only end-to-end
quantities. A traced run does exactly one repetition with the layer timers
of :mod:`perfbench.layers` and an attached telemetry hub.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.experts.simulated import OracleExpert
from repro.guidance.hybrid import HybridStrategy
from repro.guidance.information_gain import InformationGainStrategy
from repro.guidance.worker_driven import WorkerDrivenStrategy
from repro.metrics.evaluation import precision
from repro.process.validation_process import ValidationProcess
from repro.state import store as state_events
from repro.state.filestore import FileSessionStore
from repro.streaming.session import ValidationSession
from repro.telemetry import Telemetry
from repro.workers.spammer_detection import SpammerDetector

from perfbench import inputs
from perfbench.layers import (CallTimer, TimedDetector, TimedExpert,
                              TimedStrategy, counter, spans_since)

#: Seed of the process's own randomness (the hybrid roulette wheel). The
#: workload seed varies the inputs; fixing this one keeps the sequence of
#: draws, and with it the mix of cheap worker-driven and costly look-ahead
#: steps, from changing with the workload seed.
PROCESS_RNG = 0

clock = time.perf_counter


class Checks:
    """Output checks; a failed check counts as one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def _fits(started: float, seconds: float, last: float) -> bool:
    """Whether a repetition as long as ``last`` ends within ``seconds``."""
    return clock() - started + last <= seconds


# ----------------------------------------------------------------------
# Guided workloads: Algorithm 1 with an oracle expert
# ----------------------------------------------------------------------
def _build_process(params: dict, data: dict, hub):
    """``(process, seconds)``: AnswerSet + ValidationProcess incl. cold EM."""
    gold = data["gold"].astype(np.int64)
    limit = params["candidate_limit"]
    strategy = HybridStrategy(
        InformationGainStrategy(candidate_limit=limit,
                                lookahead=params["lookahead"]),
        WorkerDrivenStrategy(candidate_limit=limit))
    expert, detector = OracleExpert(gold), SpammerDetector()
    if hub is not None:
        strategy = TimedStrategy(strategy)
        expert, detector = TimedExpert(expert), TimedDetector()
    n, k, m = params["n_objects"], params["n_workers"], params["n_labels"]
    start = clock()
    matrix = np.full((n, k), MISSING, dtype=np.int64)
    matrix[data["objects"], data["workers"]] = data["labels"]
    answers = AnswerSet(matrix, labels=tuple(f"l{c + 1}" for c in range(m)))
    del matrix
    process = ValidationProcess(
        answers, expert, strategy=strategy, detector=detector,
        handle_faulty=True, budget=params["budget"], gold=gold,
        rng=PROCESS_RNG, telemetry=hub)
    return process, clock() - start


def _guided_campaign(process, gold: np.ndarray, checks: Checks,
                     hub=None) -> dict:
    """Run the budgeted loop, checking every step outside its timing."""
    session = process.session
    em_before = session.total_em_iterations
    first_uncertainty = answer_set_uncertainty(process.prob_set)
    steps, selected, per_step_conclude = [], [], []
    cap_hits = toggles = 0
    loop_s = 0.0
    while True:
        validated = set(process.validation.validated_indices().tolist())
        masked = session.masked_workers
        first_span = len(hub.tracer.records) if hub is not None else 0
        start = clock()
        if process.is_done():
            loop_s += clock() - start
            break
        step_start = clock()
        record = process.step()
        end = clock()
        loop_s += end - start
        steps.append(end - step_start)

        obj = record.object_index
        selected.append(obj)
        assignment = process.prob_set.assignment
        row_error = float(np.max(np.abs(assignment.sum(axis=1) - 1.0)))
        checks.op(obj not in validated
                  and process.validation.label_of(obj) == int(gold[obj])
                  and bool(np.all(np.isfinite(assignment)))
                  and float(assignment.min()) >= 0.0 and row_error <= 1e-9,
                  f"step {record.iteration}: object {obj} (validated before: "
                  f"{obj in validated}, row error {row_error:.3g})")
        cap_hits += not session.model.converged
        toggles += len(masked ^ session.masked_workers)
        if hub is not None:
            per_step_conclude.append(
                sum(spans_since(hub, first_span, "session.conclude")))
    digest = hashlib.sha256(
        ",".join(map(str, selected)).encode()).hexdigest()[:16]
    # The worker-driven branch costs a few percent of a look-ahead step, so
    # a median over all steps jumps with the seed's branch mix; the median
    # over look-ahead steps does not. The first step always looks ahead.
    lookahead = [t for t, r in zip(steps, process.records)
                 if r.strategy != "worker"]
    return {"step_s": steps, "lookahead_step_s": lookahead,
            "campaign_s": loop_s,
            "precision_final": float(process.current_precision()),
            "uncertainty_final": answer_set_uncertainty(process.prob_set),
            "uncertainty_first": first_uncertainty,
            "conclude_per_step": per_step_conclude,
            "counts": {
                "worker_branch_selects": sum(
                    r.strategy == "worker" for r in process.records),
                "selection_digest": digest,
                "em_iterations": session.total_em_iterations - em_before,
                "refreshes": len(steps),
                "refresh_cap_hits": cap_hits,
                "mask_toggles": toggles,
                "wal_records": 0}}


def run_guided(params: dict, data: dict, seconds: float,
               traced: bool, workdir: Path) -> dict:
    gold = data["gold"].astype(np.int64)
    checks = Checks()
    setups, campaigns = [], []
    started = clock()
    if not traced and seconds > 0:
        for _ in range(params["extra_setups"]):
            process, elapsed = _build_process(params, data, None)
            setups.append(elapsed)
            del process
    hub = Telemetry() if traced else None
    while not campaigns or (not traced and _fits(
            started, seconds, campaigns[-1]["campaign_s"] + setups[-1])):
        process, elapsed = _build_process(params, data, hub)
        setups.append(elapsed)
        em_calls = counter(hub, "em.calls") if traced else 0
        em_iterations = counter(hub, "em.iterations") if traced else 0
        first_span = len(hub.tracer.records) if traced else 0
        campaign = _guided_campaign(process, gold, checks, hub)
        campaigns.append(campaign)
        if traced:
            campaign["layers"] = _guided_layers(
                process, campaign, hub, first_span,
                counter(hub, "em.calls") - em_calls,
                counter(hub, "em.iterations") - em_iterations)
        del process
    return _result(checks, setups, campaigns, "lookahead_step_s")


def _guided_layers(process, campaign: dict, hub, first_span: int,
                   em_calls: int, em_iterations: int) -> dict:
    strategy, detector, expert = \
        process.strategy, process.detector, process.expert
    steps = campaign["step_s"]
    select = strategy.timer.durations
    detect = detector.timer.durations
    validate = expert.timer.durations
    conclude = campaign["conclude_per_step"]
    residual = [s - a - b - c - d for s, a, b, c, d
                in zip(steps, select, detect, validate, conclude)]
    step_total = float(sum(steps))
    busy = strategy.timer.total + detector.timer.total \
        + expert.timer.total + float(sum(conclude))
    counts = campaign["counts"]
    return {
        "guidance.select_ms_p50": 1e3 * strategy.timer.p50(),
        "guidance.select_s": strategy.timer.total,
        "guidance.select_share": strategy.timer.total / step_total,
        "guidance.worker_branch_selects": strategy.worker_branch_selects,
        "guidance.candidates_scored": strategy.candidates_scored,
        "streaming.conclude_ms_p50": 1e3 * float(np.median(conclude)),
        "streaming.conclude_s": float(sum(conclude)),
        "streaming.em_iterations": counts["em_iterations"],
        "streaming.refreshes": counts["refreshes"],
        "streaming.refresh_cap_hits": counts["refresh_cap_hits"],
        "streaming.mask_toggles": counts["mask_toggles"],
        "core.em_run_s": float(sum(spans_since(hub, first_span, "em.run"))),
        "core.em_calls": em_calls,
        "core.em_iterations": em_iterations,
        "workers.detect_ms_p50": 1e3 * detector.timer.p50(),
        "workers.detect_s": detector.timer.total,
        "workers.suspected": detector.suspected,
        "experts.validate_s": expert.timer.total,
        "process.residual_ms_p50": 1e3 * float(np.median(residual)),
        "process.step_calls": len(steps),
        "trace.busy_s": busy,
        "trace.wall_s": step_total,
    }


# ----------------------------------------------------------------------
# Stream workload: log-then-apply ingest, refreshes, checkpoints, restore
# ----------------------------------------------------------------------
def _stream_setup(params: dict, root: Path, hub):
    """``(session, store, seconds)`` at the campaign's dimensions."""
    start = clock()
    session = ValidationSession(params["n_objects"], params["n_workers"],
                                params["n_labels"], telemetry=hub)
    store = FileSessionStore(root, telemetry=hub)
    return session, store, clock() - start


def _tree_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, files in os.walk(root) for name in files)


def _stream_pass(params: dict, events: tuple, session, store, root: Path,
                 distinct_answers: int, gold: np.ndarray, checks: Checks,
                 traced: bool) -> dict:
    refresh_every = params["refresh_every"]
    checkpoint_every = params["checkpoint_every"]
    timers = {name: CallTimer() for name in
              ("wal", "add_answer", "add_validation", "checkpoint")}
    append, add_answer = store.append, session.add_answer
    add_validation, checkpoint = session.add_validation, store.checkpoint
    checkpoint_bytes = 0
    if traced:
        append = timers["wal"].wrap(append)
        add_answer = timers["add_answer"].wrap(add_answer)
        add_validation = timers["add_validation"].wrap(add_validation)
        timed_checkpoint = timers["checkpoint"].wrap(checkpoint)

        def checkpoint(live):
            nonlocal checkpoint_bytes
            before = _tree_bytes(root)
            timed_checkpoint(live)
            checkpoint_bytes += _tree_bytes(root) - before
    answer_event, validation_event = \
        state_events.answer_event, state_events.validation_event
    conclude_event = state_events.conclude_event
    refresh_s: list[float] = []
    cycle_s: list[float] = []
    first_assignment = None
    cap_hits = 0

    def refresh() -> None:
        nonlocal cap_hits, first_assignment, cycle_start
        append(conclude_event())
        start = clock()
        result = session.conclude()
        end = clock()
        refresh_s.append(end - start)
        cycle_s.append(end - cycle_start)
        cycle_start = end
        cap_hits += not result.converged
        if first_assignment is None:
            first_assignment = result.assignment

    em_before = session.total_em_iterations
    n_answers = index = n_checkpoints = 0
    start = cycle_start = clock()
    for index, (kind, obj, worker, label) in enumerate(zip(*events), 1):
        if kind == inputs.ANSWER:
            append(answer_event(obj, worker, label))
            add_answer(obj, worker, label)
            n_answers += 1
        else:
            append(validation_event(obj, label, overwrite=True))
            add_validation(obj, label, overwrite=True)
        if index % refresh_every == 0:
            refresh()
        if index % checkpoint_every == 0:
            checkpoint(session)
            n_checkpoints += 1
    if index % refresh_every:
        refresh()
    ingest_s = clock() - start

    start = clock()
    reopened = FileSessionStore(root)
    restored = reopened.restore().session
    recovery_s = clock() - start

    logged = index + len(refresh_s)
    checks.attempted += index + len(refresh_s) + n_checkpoints
    checks.op(session.n_answers == distinct_answers,
              f"session holds {session.n_answers} answers; the stream has "
              f"{distinct_answers} distinct ones")
    checks.op(reopened.wal_position == logged,
              f"WAL holds {reopened.wal_position} records; "
              f"{logged} were logged")
    live, back = session.model, restored.model
    linf = float(np.max(np.abs(restored.posteriors()
                               - session.posteriors())))
    checks.op(back is not None and linf == 0.0
              and np.array_equal(back.assignment, live.assignment)
              and np.array_equal(back.confusions, live.confusions)
              and np.array_equal(back.priors, live.priors),
              f"restored session differs from the live one (L_inf {linf})")
    assignment = live.assignment
    campaign = {
        "refresh_s": refresh_s, "cycle_s": cycle_s, "campaign_s": ingest_s,
        "ingest_answers_per_s": n_answers / ingest_s,
        "recovery_s": recovery_s,
        "precision_final": precision(np.argmax(assignment, axis=1), gold),
        "uncertainty_final": float(object_entropies(assignment).sum()),
        "uncertainty_first": float(object_entropies(first_assignment).sum()),
        "counts": {
            "worker_branch_selects": 0, "selection_digest": "",
            "em_iterations": session.total_em_iterations - em_before,
            "refreshes": len(refresh_s), "refresh_cap_hits": cap_hits,
            "mask_toggles": 0, "wal_records": reopened.wal_position}}
    if traced:
        campaign["timers"] = timers
        campaign["checkpoint_bytes"] = checkpoint_bytes
    return campaign


def run_stream(params: dict, data: dict, seconds: float,
               traced: bool, workdir: Path) -> dict:
    gold = data["gold"].astype(np.int64)
    events = tuple(data[key].tolist() for key in
                   ("stream_kinds", "stream_objects", "stream_workers",
                    "stream_labels"))
    answers = data["stream_kinds"] == inputs.ANSWER
    distinct_answers = int(np.unique(
        data["stream_objects"][answers].astype(np.int64)
        * params["n_workers"] + data["stream_workers"][answers]).size)
    checks = Checks()
    setups, campaigns = [], []
    started = clock()
    for index in range(params["extra_setups"]
                       if not traced and seconds > 0 else 0):
        root = workdir / f"setup-{index}"
        session, store, elapsed = _stream_setup(params, root, None)
        setups.append(elapsed)
        del session, store
        shutil.rmtree(root)
    hub = Telemetry() if traced else None
    while not campaigns or (not traced and _fits(
            started, seconds,
            campaigns[-1]["campaign_s"] + campaigns[-1]["recovery_s"])):
        root = workdir / f"store-{len(campaigns)}"
        session, store, elapsed = _stream_setup(params, root, hub)
        setups.append(elapsed)
        first_span = len(hub.tracer.records) if traced else 0
        campaign = _stream_pass(params, events, session, store, root,
                                distinct_answers, gold, checks, traced)
        campaigns.append(campaign)
        if traced:
            campaign["layers"] = _stream_layers(campaign, hub, first_span)
        del session, store
        shutil.rmtree(root)
    return _result(checks, setups, campaigns, "cycle_s")


def _stream_layers(campaign: dict, hub, first_span: int) -> dict:
    timers = campaign.pop("timers")
    refresh = campaign["refresh_s"]
    counts = campaign["counts"]
    busy = sum(timer.total for timer in timers.values()) + float(sum(refresh))
    return {
        "streaming.conclude_ms_p50": 1e3 * float(np.median(refresh)),
        "streaming.conclude_s": float(sum(refresh)),
        "streaming.em_iterations": counts["em_iterations"],
        "streaming.refreshes": counts["refreshes"],
        "streaming.refresh_cap_hits": counts["refresh_cap_hits"],
        "streaming.add_answer_us_mean": 1e6 * timers["add_answer"].mean(),
        "streaming.add_answer_s": timers["add_answer"].total,
        "core.em_run_s": float(sum(spans_since(hub, first_span, "em.run"))),
        "core.em_calls": counter(hub, "em.calls"),
        "core.em_iterations": counter(hub, "em.iterations"),
        "streaming.add_validation_s": timers["add_validation"].total,
        "state.wal_append_us_p50": 1e6 * timers["wal"].p50(),
        "state.wal_records": counts["wal_records"],
        "state.checkpoint_ms_p50": 1e3 * timers["checkpoint"].p50(),
        "state.checkpoint_calls": timers["checkpoint"].calls,
        "state.checkpoint_bytes": campaign.pop("checkpoint_bytes"),
        "state.restore_s": campaign["recovery_s"],
        "trace.busy_s": busy,
        "trace.wall_s": campaign["campaign_s"],
    }


# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    Read from ``VmHWM``: ``ru_maxrss`` also counts the orchestrator's pages
    this process shared between its fork and its ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(checks: Checks, setups: list[float], campaigns: list[dict],
            latency_key: str) -> dict:
    """Raw measurements: every sample, for the orchestrator to summarize."""
    first = campaigns[0]
    # Every repetition runs the same inputs with the same seed, so its
    # quality and counts must repeat exactly.
    for campaign in campaigns[1:]:
        checks.op(campaign["counts"] == first["counts"]
                  and campaign["precision_final"] == first["precision_final"],
                  "a repeated campaign did not repeat its counts")
    result = {
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures,
        "setup_s": setups,
        "latency_s": [t for c in campaigns for t in c[latency_key]],
        "campaign_s": [c["campaign_s"] for c in campaigns],
        "precision_final": first["precision_final"],
        "uncertainty_final": first["uncertainty_final"],
        "uncertainty_first": first["uncertainty_first"],
        "counts": first["counts"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    for key in ("ingest_answers_per_s", "recovery_s"):
        if key in first:
            result[key] = [c[key] for c in campaigns]
    for key in ("step_s", "refresh_s"):
        if key in first:
            result[key] = [t for c in campaigns for t in c[key]]
    if "layers" in first:
        result["layers"] = first["layers"]
    return result


RUNNERS = {"guided": run_guided, "stream": run_stream}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full", choices=inputs.SIZES)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    params = inputs.workload_params(args.workload, args.size)
    data = inputs.load(args.inputs)
    runner = RUNNERS[params["kind"]]
    result = runner(params, data, args.seconds,
                    bool(args.trace), args.workdir)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
