"""Allocation bounds for the guided path: no dense ``int64`` n×k array.

At 4000×400 an ``int64`` copy of the answer matrix is 8·n·k = 12.8 MB,
against n·k = 1.6 MB for the ``int8`` storage of a binary answer set.
``tracemalloc`` sees numpy's buffers, so each bound below fails as soon as
a full-width copy (or a gather of candidate rows) comes back.

The streaming statistics are bounded per answer instead: at 15 answers
per object (60k answers) the triple log retains 12 B/answer when seeded,
and the cell map, built at the first cell lookup, takes that to about
153 B/answer; fed answer by answer, a session retains about 116 B/answer.
Another per-answer index (a position list per object or per worker) adds
more than 35 B/answer and breaks the bounds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import em_kernel
from repro.core.answer_set import AnswerSet
from repro.guidance import GuidanceContext, WorkerDrivenStrategy
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.streaming import ValidationSession
from repro.workers.spammer_detection import SpammerDetector

N_OBJECTS, N_WORKERS = 4000, 400
CELLS = N_OBJECTS * N_WORKERS


@pytest.fixture(scope="module")
def crowd():
    return simulate_crowd(CrowdConfig(n_objects=N_OBJECTS,
                                      n_workers=N_WORKERS,
                                      answers_per_object=6), rng=0)


@pytest.fixture(scope="module")
def dense_crowd():
    return simulate_crowd(CrowdConfig(n_objects=N_OBJECTS,
                                      n_workers=N_WORKERS,
                                      answers_per_object=15), rng=0)


def _peak_bytes(fn) -> int:
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_answer_set_from_int64_allocates_one_narrow_copy(crowd):
    wide = crowd.answer_set.matrix.astype(np.int64)
    peak = _peak_bytes(lambda: AnswerSet(wide, crowd.answer_set.labels))
    # The int8 copy is n·k bytes; the default object and worker names
    # take the rest.
    assert peak <= 1.25 * CELLS, f"{peak / CELLS:.2f}·n·k bytes"


def test_worker_branch_select_allocates_less_than_the_matrix(crowd):
    session = ValidationSession.from_answer_set(crowd.answer_set)
    # After a mask toggle the answer set is materialized from the
    # statistics: it must carry their encoding, not be rescanned.
    session.set_masked_workers(range(0, N_WORKERS, 7))
    context = GuidanceContext(prob_set=session.conclude_snapshot(),
                              aggregator=session.aggregator,
                              detector=SpammerDetector(),
                              rng=np.random.default_rng(0))
    strategy = WorkerDrivenStrategy(candidate_limit=50)
    peak = _peak_bytes(lambda: strategy.select(context))
    assert peak < CELLS, f"{peak / CELLS:.2f}·n·k bytes"


def _retained_bytes(build) -> int:
    """Traced bytes still held once ``build()`` returns (its result kept)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()  # measured while still referenced
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_answer_statistics_retain_few_bytes_per_answer(dense_crowd):
    answer_set = dense_crowd.answer_set
    dims = (answer_set.n_objects, answer_set.n_workers, answer_set.n_labels)
    encoded = em_kernel.encode_answers(answer_set)
    n_answers = encoded.object_index.size
    triples = list(zip(encoded.object_index.tolist(),
                       encoded.worker_index.tolist(),
                       encoded.label_index.tolist()))

    def seeded():
        stats = em_kernel.AnswerStats(*dims)
        stats.seed(encoded)
        return stats

    def looked_up():
        stats = seeded()
        stats.label_of(0, 0)  # builds the cell map
        return stats

    def fed():
        session = ValidationSession(*dims)
        for obj, worker, label in triples:
            session.add_answer(obj, worker, label)
        return session

    per_answer = _retained_bytes(seeded) / n_answers
    assert per_answer <= 32, f"seeded: {per_answer:.0f} B/answer"
    per_answer = _retained_bytes(looked_up) / n_answers
    assert per_answer <= 180, f"looked up: {per_answer:.0f} B/answer"
    per_answer = _retained_bytes(fed) / n_answers
    assert per_answer <= 140, f"fed: {per_answer:.0f} B/answer"
