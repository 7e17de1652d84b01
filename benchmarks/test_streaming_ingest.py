"""Bench: streaming per-event conclude vs rebuild-from-scratch.

The streaming engine's acceptance benchmark: at ``n = 2000`` objects and
``k = 200`` workers, integrating one new expert validation through a warm
:class:`~repro.streaming.ValidationSession` must be at least 5× faster than
the rebuild-from-scratch path (re-encode the full matrix, cold
``IncrementalEM.conclude``), while agreeing numerically — the equivalence
suite in ``tests/test_streaming_session.py`` proves the latter.

The per-epoch encode has its own floor: at 300k streamed answers, the
encoding after 10k new ones merges them into the statistics' sorted cell
index, at least 5× cheaper than a lexsort of the whole log
(``reference.lexsort_encoding``) and bit-for-bit its arrays.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from repro.core import em_kernel
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.simulation import CrowdConfig, simulate_crowd
from repro.simulation.stream import answer_stream, replay
from repro.streaming import ValidationSession

import reference

#: Acceptance scale: n=2000 objects, k=200 workers (15 answers each, 4
#: labels — a regime where cold EM needs tens of iterations but converges).
N_OBJECTS = 2000
N_WORKERS = 200
ANSWERS_PER_OBJECT = 15
N_LABELS = 4
RELIABILITY = 0.8

_CROWD = None


def _crowd():
    global _CROWD
    if _CROWD is None:
        _CROWD = simulate_crowd(
            CrowdConfig(n_objects=N_OBJECTS, n_workers=N_WORKERS,
                        n_labels=N_LABELS, reliability=RELIABILITY,
                        answers_per_object=ANSWERS_PER_OBJECT), rng=0)
    return _CROWD


def _warm_session():
    session = ValidationSession.from_answer_set(_crowd().answer_set)
    session.conclude()
    return session


def test_stream_ingest_throughput(benchmark):
    """Pure ingestion rate: answers/second into the delta-maintained stats."""
    crowd = _crowd()
    events = list(answer_stream(crowd, rate=1e6, rng=1))

    def ingest():
        session = ValidationSession(1, 1, N_LABELS)
        return replay(events, session, conclude_every=None)

    summary = benchmark.pedantic(ingest, rounds=3, iterations=1)
    assert summary.n_answers == crowd.answer_set.n_answers


def test_session_per_event_conclude(benchmark):
    """One validation event + warm-started refinement (the streaming path)."""
    crowd = _crowd()
    session = _warm_session()
    objects = itertools.cycle(range(N_OBJECTS))

    def event():
        obj = next(objects)
        session.add_validation(obj, int(crowd.gold[obj]), overwrite=True)
        return session.conclude()

    result = benchmark(event)
    assert result.assignment.shape == (N_OBJECTS, N_LABELS)


def test_rebuild_per_event_conclude(benchmark):
    """One validation event + full re-encode + cold conclude (the old path)."""
    crowd = _crowd()
    validation = ExpertValidation.empty_for(crowd.answer_set)
    objects = itertools.cycle(range(N_OBJECTS))

    def event():
        obj = next(objects)
        validation.assign(obj, int(crowd.gold[obj]), overwrite=True)
        em_kernel.encode_answers(crowd.answer_set)
        return IncrementalEM().conclude(crowd.answer_set, validation)

    result = benchmark.pedantic(event, rounds=5, iterations=1)
    assert result.assignment.shape == (N_OBJECTS, N_LABELS)


def test_streaming_speedup_at_least_5x():
    """Acceptance: session-based per-event conclude ≥ 5× faster than rebuild."""
    crowd = _crowd()
    events = 6

    session = _warm_session()
    session_times = []
    for obj in range(events):
        started = time.perf_counter()
        session.add_validation(obj, int(crowd.gold[obj]))
        session.conclude()
        session_times.append(time.perf_counter() - started)

    validation = ExpertValidation.empty_for(crowd.answer_set)
    rebuild_times = []
    for obj in range(events):
        validation.assign(obj, int(crowd.gold[obj]))
        started = time.perf_counter()
        em_kernel.encode_answers(crowd.answer_set)
        IncrementalEM().conclude(crowd.answer_set, validation)
        rebuild_times.append(time.perf_counter() - started)

    session_median = statistics.median(session_times)
    rebuild_median = statistics.median(rebuild_times)
    speedup = rebuild_median / session_median
    print(f"\nper-event conclude at n={N_OBJECTS}, k={N_WORKERS}: "
          f"session {session_median * 1e3:.2f} ms vs rebuild "
          f"{rebuild_median * 1e3:.2f} ms -> {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"streaming per-event conclude only {speedup:.1f}x faster than "
        f"rebuild (session {session_median * 1e3:.2f} ms, rebuild "
        f"{rebuild_median * 1e3:.2f} ms)")


def test_epoch_merge_at_least_5x_cheaper_than_lexsort():
    """Acceptance: merging an epoch's 10k new answers into the cell
    index at 300k answers costs ≥ 5× less than sorting the whole log."""
    n, k, m = 20_000, 1_000, N_LABELS
    rng = np.random.default_rng(0)
    cells = rng.choice(n * k, size=300_000, replace=False)
    objects, workers = np.divmod(cells, k)
    labels = rng.integers(0, m, size=cells.size)
    old = 290_000
    merge_times, rebuild_times = [], []
    for _ in range(3):
        stats = em_kernel.AnswerStats(n, k, m)
        stats.add_answers(objects[:old], workers[:old], labels[:old])
        stats.label_of(0, 0)  # the cell index, as a streamed session has
        for triple in zip(objects[old:].tolist(), workers[old:].tolist(),
                          labels[old:].tolist()):
            stats.add_answer(*triple)
        started = time.perf_counter()
        merged = stats.encoded()
        merge_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        rebuilt = reference.lexsort_encoding(stats)
        rebuild_times.append(time.perf_counter() - started)
        for name in ("object_index", "worker_index", "label_index"):
            assert getattr(merged, name).dtype == getattr(rebuilt, name).dtype
            assert np.array_equal(getattr(merged, name),
                                  getattr(rebuilt, name))

    merge_median = statistics.median(merge_times)
    rebuild_median = statistics.median(rebuild_times)
    speedup = rebuild_median / merge_median
    print(f"\nencode after 10k new at 300k answers: merge "
          f"{merge_median * 1e3:.2f} ms vs lexsort "
          f"{rebuild_median * 1e3:.2f} ms -> {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"merging the epoch's answers only {speedup:.1f}x cheaper than a "
        f"lexsort (merge {merge_median * 1e3:.2f} ms, lexsort "
        f"{rebuild_median * 1e3:.2f} ms)")
