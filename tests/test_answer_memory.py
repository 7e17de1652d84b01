"""Allocation bounds for the guided path: no dense ``int64`` n×k array.

At 4000×400 an ``int64`` copy of the answer matrix is 8·n·k = 12.8 MB,
against n·k = 1.6 MB for the ``int8`` storage of a binary answer set.
``tracemalloc`` sees numpy's buffers, so each bound below fails as soon as
a full-width copy (or a gather of candidate rows) comes back.

The streaming statistics are bounded per answer instead: at 15 answers
per object (60k answers) the triple log retains 12 B/answer when seeded.
The sorted cell index, built at the first cell lookup, takes that to
23 B/answer: 8 B of int64 key and 1 B of label per cell, plus its filter
at 8 to 16 bits per cell. Fed answer by answer, a session retains
28 B/answer: the log's spare capacity and the dict of cells not yet
merged come on top. Restoring a streamed session whose write-ahead log
holds an answer peaks at 71 B/answer, the restored session's log, index
and model and the index build's argsort included. The tuple-keyed cell
map this index replaced read 153 B/answer looked up, 114 B/answer fed and
198 B/answer at the restore peak; another per-answer index (a position
list per object or per worker) adds more than 35 B/answer and breaks the
bounds. Seeding peaks at 20 B/answer: the int32 log plus the int64 cell
keys it checks for duplicates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.guidance import GuidanceContext, WorkerDrivenStrategy
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.state import FileSessionStore
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


def test_encoding_a_matrix_masks_one_row_block_at_a_time():
    """``encode_answers`` masks row blocks of ``ENCODE_BLOCK_CELLS``
    cells, not the whole matrix: at 16000×400 with 6 answers per object
    its peak is about 0.4·n·k (the three index arrays, twice, plus one
    block's mask), where a whole-matrix ``!= MISSING`` mask took it to
    1.24·n·k."""
    n, k = 16000, 400
    rng = np.random.default_rng(0)
    matrix = np.full((n, k), MISSING, dtype=np.int8)
    matrix[np.repeat(np.arange(n), 6), rng.integers(0, k, 6 * n)] = \
        rng.integers(0, 2, 6 * n)
    answer_set = AnswerSet(matrix, ("a", "b"))
    peak = _peak_bytes(lambda: em_kernel.encode_answers(answer_set))
    assert peak < 0.75 * n * k, f"{peak / (n * k):.2f}·n·k bytes"


def test_worker_branch_select_allocates_less_than_the_matrix(crowd):
    session = ValidationSession.from_answer_set(crowd.answer_set)
    # After a mask toggle the snapshot carries the statistics' new
    # encoding; the select reads it, never a matrix.
    session.set_masked_workers(range(0, N_WORKERS, 7))
    context = GuidanceContext(prob_set=session.conclude_snapshot(),
                              aggregator=session.aggregator,
                              detector=SpammerDetector(),
                              rng=np.random.default_rng(0))
    strategy = WorkerDrivenStrategy(candidate_limit=50)
    peak = _peak_bytes(lambda: strategy.select(context))
    assert peak < CELLS, f"{peak / CELLS:.2f}·n·k bytes"


def test_snapshot_after_mask_toggle_allocates_no_matrix(crowd):
    """The snapshot half of ``conclude_snapshot()`` after a mask toggle
    hands over the statistics' encoding: about 0.08·n·k (the validation
    copy and the row-stochastic check), where rebuilding a dense answer
    set took 2.02·n·k. The conclude half re-encodes and solves over the
    answers, about 0.87·n·k here, with or without a matrix."""
    session = ValidationSession.from_answer_set(crowd.answer_set)
    session.conclude()
    session.set_masked_workers(range(0, N_WORKERS, 7))
    session.conclude()
    peak = _peak_bytes(session.snapshot)
    assert peak < 0.25 * CELLS, f"{peak / CELLS:.2f}·n·k bytes"


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
        stats.label_of(0, 0)  # builds the cell index
        return stats

    def fed():
        session = ValidationSession(*dims)
        for obj, worker, label in triples:
            session.add_answer(obj, worker, label)
        return session

    per_answer = _retained_bytes(seeded) / n_answers
    assert per_answer <= 32, f"seeded: {per_answer:.0f} B/answer"
    per_answer = _retained_bytes(looked_up) / n_answers
    assert per_answer <= 32, f"looked up: {per_answer:.0f} B/answer"
    per_answer = _retained_bytes(fed) / n_answers
    assert per_answer <= 64, f"fed: {per_answer:.0f} B/answer"


def test_restoring_a_streamed_session_keeps_few_bytes_per_answer(
        dense_crowd, tmp_path):
    """A restore replays the checkpoint's log in bulk, then the answer in
    the WAL tail; that lookup builds the cell index from the log with one
    argsort. The peak reads 71 B/answer, the restored session included;
    the tuple-keyed cell map it replaced took it to 198 B/answer."""
    encoded = em_kernel.encode_answers(dense_crowd.answer_set)
    triples = list(zip(encoded.object_index.tolist(),
                       encoded.worker_index.tolist(),
                       encoded.label_index.tolist()))
    order = np.random.default_rng(0).permutation(len(triples))
    session = ValidationSession(encoded.n_objects, encoded.n_workers,
                                encoded.n_labels)
    store = FileSessionStore(tmp_path)
    session.attach_journal(store)
    for index in order[:-1]:
        session.add_answer(*triples[index])
    session.conclude()
    store.checkpoint(session)
    session.add_answer(*triples[order[-1]])
    store.close()
    del session
    reopened = FileSessionStore(tmp_path)
    per_answer = _peak_bytes(reopened.restore) / len(triples)
    assert per_answer <= 120, f"restore peak: {per_answer:.0f} B/answer"


def test_seeding_statistics_keeps_the_encoding_narrow(dense_crowd):
    """``AnswerStats.seed`` reads an int32 encoding in its own type. Its
    peak is the int32 log (12 B/answer) plus the int64 cell keys
    (8 B/answer); widening the three index arrays to int64 first took it
    to 44 B/answer."""
    answer_set = dense_crowd.answer_set
    encoded = em_kernel.encode_answers(answer_set)
    assert encoded.object_index.dtype == np.int32
    dims = (answer_set.n_objects, answer_set.n_workers, answer_set.n_labels)
    peak = _peak_bytes(lambda: em_kernel.AnswerStats(*dims).seed(encoded))
    per_answer = peak / encoded.object_index.size
    assert per_answer <= 24, f"seed peak: {per_answer:.0f} B/answer"
