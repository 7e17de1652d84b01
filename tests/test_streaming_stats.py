"""Property tests: delta-maintained sufficient statistics never desync.

Satellite of the streaming engine: for arbitrary interleavings of
add-answer / add-validation / mask / grow operations, the incrementally
maintained statistics (flat encoding, majority init) must equal a
from-scratch rebuild via ``encode_answers`` over the equivalent batch
answer set, and the session's ``posteriors()`` must equal one fresh
E-step under its installed model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import confusion, em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.errors import InvalidAnswerSetError, InvalidValidationError
from repro.streaming import ValidationSession

import reference


def _labels(m):
    return tuple(f"l{c + 1}" for c in range(m))


def _ingest(stats, triples):
    for triple in triples:
        stats.add_answer(*triple)


@st.composite
def answer_logs(draw, max_n=6, max_k=5, max_m=4):
    """Random dimensions plus a duplicate-free list of answer triples."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(2, max_m))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
        unique=True, max_size=n * k))
    triples = [(obj, wrk, draw(st.integers(0, m - 1))) for obj, wrk in cells]
    return n, k, m, triples


@st.composite
def interleavings(draw):
    """An operation sequence mixing answers, validations, and masking."""
    n, k, m, triples = draw(answer_logs())
    ops: list[tuple] = [("answer",) + t for t in triples]
    for _ in range(draw(st.integers(0, 8))):
        ops.append(("validate", draw(st.integers(0, n - 1)),
                    draw(st.integers(0, m - 1))))
    for _ in range(draw(st.integers(0, 2))):
        subset = draw(st.lists(st.integers(0, k - 1), unique=True,
                               max_size=k))
        ops.append(("mask", tuple(subset)))
    order = draw(st.permutations(ops))
    return n, k, m, order


class TestEncodingEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(answer_logs())
    def test_streamed_encoding_matches_batch(self, log):
        n, k, m, triples = log
        stats = em_kernel.AnswerStats(n, k, m)
        _ingest(stats, triples)
        matrix = np.full((n, k), MISSING, dtype=np.int64)
        for obj, wrk, lab in triples:
            matrix[obj, wrk] = lab
        batch = em_kernel.encode_answers(AnswerSet(matrix, _labels(m)))
        streamed = stats.encoded()
        assert np.array_equal(streamed.object_index, batch.object_index)
        assert np.array_equal(streamed.worker_index, batch.worker_index)
        assert np.array_equal(streamed.label_index, batch.label_index)
        assert np.array_equal(stats.to_matrix(), matrix)

    @settings(max_examples=60, deadline=None)
    @given(answer_logs())
    def test_majority_init_matches_batch_bit_for_bit(self, log):
        """The session's majority start over the streamed encoding equals
        vote shares counted answer by answer in arrival order: whole-number
        counts sum to the same floats in any order."""
        n, k, m, triples = log
        stats = em_kernel.AnswerStats(n, k, m)
        _ingest(stats, triples)
        votes = np.zeros((n, m))
        for obj, _, lab in triples:
            votes[obj, lab] += 1.0
        assert np.array_equal(
            em_kernel.initial_assignment_majority(stats.encoded()),
            confusion.normalize_rows(votes))

    def test_bulk_load_equals_per_answer_ingestion(self):
        """The vectorized seeding path matches the per-answer loop."""
        rng = np.random.default_rng(3)
        n, k, m = 20, 8, 3
        matrix = rng.integers(-1, m, size=(n, k))
        obj, wrk = np.nonzero(matrix != MISSING)
        lab = matrix[obj, wrk]
        bulk = em_kernel.AnswerStats(n, k, m)
        bulk.add_answers(obj, wrk, lab)  # empty log + unique cells -> bulk
        slow = em_kernel.AnswerStats(n, k, m)
        for triple in zip(obj, wrk, lab):
            slow.add_answer(*map(int, triple))
        for bulk_part, slow_part in zip(bulk.answer_log(),
                                        slow.answer_log()):
            assert np.array_equal(bulk_part, slow_part)
        bulk_encoded, slow_encoded = bulk.encoded(), slow.encoded()
        for name in ("object_index", "worker_index", "label_index"):
            assert np.array_equal(getattr(bulk_encoded, name),
                                  getattr(slow_encoded, name))
        assert all(bulk.label_of(obj, wrk) == slow.label_of(obj, wrk)
                   == matrix[obj, wrk]
                   for obj in range(n) for wrk in range(k))
        # Incremental adds on top of a bulk load keep working.
        free = np.argwhere(matrix == MISSING)
        if free.size:
            bulk.add_answer(int(free[0][0]), int(free[0][1]), 0)
            assert bulk.n_answers == slow.n_answers + 1

    @pytest.mark.parametrize("first", ["conflict", "duplicate", "label_of",
                                       "session"])
    def test_seeded_statistics_check_cells_on_first_use(self, first):
        """Seeding fills the log alone; whichever cell query comes first
        builds the cell map from it, and later queries agree."""
        rng = np.random.default_rng(4)
        n, k, m = 12, 6, 3
        matrix = rng.integers(-1, m, size=(n, k))
        answer_set = AnswerSet(matrix, _labels(m))
        if first == "session":
            session = ValidationSession.from_answer_set(answer_set)
            stats = session.stats
        else:
            stats = em_kernel.AnswerStats(n, k, m)
            stats.seed(em_kernel.encode_answers(answer_set))
        obj, wrk = map(int, np.argwhere(matrix != MISSING)[0])
        label = int(matrix[obj, wrk])
        if first == "conflict":
            with pytest.raises(InvalidAnswerSetError):
                stats.add_answer(obj, wrk, (label + 1) % m)
            assert not stats.add_answer(obj, wrk, label)
        elif first == "duplicate":
            assert not stats.add_answer(obj, wrk, label)
            with pytest.raises(InvalidAnswerSetError):
                stats.add_answer(obj, wrk, (label + 1) % m)
        elif first == "label_of":
            assert stats.label_of(obj, wrk) == label
        else:
            with pytest.raises(InvalidAnswerSetError):
                session.add_answer(obj, wrk, (label + 1) % m)
            assert not session.add_answer(obj, wrk, label)
        assert stats.n_answers == int((matrix != MISSING).sum())
        assert all(stats.label_of(o, w) == matrix[o, w]
                   for o in range(n) for w in range(k))
        free_obj, free_wrk = map(int, np.argwhere(matrix == MISSING)[0])
        assert stats.add_answer(free_obj, free_wrk, 0)
        assert stats.label_of(free_obj, free_wrk) == 0

    def test_bulk_load_rejects_in_batch_duplicates_via_loop(self):
        stats = em_kernel.AnswerStats(2, 2, 2)
        # Duplicate cell in one batch: falls back to the per-answer path,
        # which tolerates the exact duplicate.
        added = stats.add_answers(np.array([0, 0]), np.array([1, 1]),
                                  np.array([1, 1]))
        assert added == 1
        with pytest.raises(InvalidAnswerSetError):
            stats.add_answers(np.array([0]), np.array([1]), np.array([0]))
        with pytest.raises(InvalidAnswerSetError):
            em_kernel.AnswerStats(2, 2, 2).add_answers(
                np.array([5]), np.array([0]), np.array([0]))

    def test_duplicate_answer_ignored_conflict_rejected(self):
        stats = em_kernel.AnswerStats(2, 2, 2)
        assert stats.add_answer(0, 0, 1)
        assert not stats.add_answer(0, 0, 1)  # exact duplicate
        assert stats.n_answers == 1
        with pytest.raises(InvalidAnswerSetError):
            stats.add_answer(0, 0, 0)  # conflicting re-answer

    def test_out_of_range_rejected(self):
        stats = em_kernel.AnswerStats(2, 2, 2)
        with pytest.raises(InvalidAnswerSetError):
            stats.add_answer(2, 0, 0)
        with pytest.raises(InvalidAnswerSetError):
            stats.add_answer(0, 2, 0)
        with pytest.raises(InvalidAnswerSetError):
            stats.add_answer(0, 0, 2)
        with pytest.raises(InvalidAnswerSetError):
            stats.set_masked_workers([5])

    def test_grow_rejects_shrinking(self):
        stats = em_kernel.AnswerStats(3, 3, 2)
        with pytest.raises(ValueError):
            stats.grow(n_objects=2)
        with pytest.raises(ValueError):
            stats.grow(n_workers=1)
        # A call that shrinks one axis applies neither.
        stats = em_kernel.AnswerStats(5, 5, 2)
        version = stats.version
        with pytest.raises(ValueError):
            stats.grow(n_objects=10, n_workers=1)
        assert (stats.n_objects, stats.n_workers) == (5, 5)
        assert stats.version == version

    def test_grow_preserves_log_and_extends_dims(self):
        stats = em_kernel.AnswerStats(1, 1, 2)
        for i in range(100):  # force several capacity doublings
            stats.grow(n_objects=i + 1, n_workers=i + 1)
            stats.add_answer(i, i, i % 2)
        assert stats.n_answers == 100
        encoded = stats.encoded()
        assert np.array_equal(encoded.object_index, np.arange(100))
        assert np.array_equal(encoded.label_index, np.arange(100) % 2)


@st.composite
def index_programs(draw):
    """Dimensions, a merge threshold, and a random program over the cell
    index: single answers (new cells, duplicates, conflicts) under both
    conflict policies, batches, an optional seed, grows on each axis,
    masks, lookups and encodings. Indices reach past the dimensions, so
    some answers are refused until a grow admits them."""
    n, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), 3
    index = st.tuples(st.integers(0, n + 1), st.integers(0, k + 1),
                      st.integers(0, m - 1))
    answer = st.tuples(st.just("answer"), index,
                       st.sampled_from(["error", "ignore"]))
    seed = draw(st.none() | st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, k - 1),
                  st.integers(0, m - 1)),
        unique_by=lambda triple: triple[:2], max_size=n * k))
    ops = draw(st.lists(st.one_of(
        answer, answer, answer,
        st.tuples(st.just("answers"), st.lists(index, max_size=6)),
        st.tuples(st.just("grow"), st.sampled_from(["n_objects",
                                                    "n_workers"]),
                  st.integers(0, 2)),
        st.tuples(st.just("mask"), st.lists(st.integers(0, k + 1),
                                             unique=True, max_size=3)),
        st.tuples(st.just("lookup"), index, st.booleans()),
        st.tuples(st.just("encode"))), max_size=60))
    merge_cells = draw(st.sampled_from([1, 3, em_kernel.MERGE_CELLS]))
    return n, k, m, seed, ops, merge_cells


class TestCellIndexEquivalence:
    """The sorted cell index against a lexsort of the log and a dict of
    ``(object, worker)`` tuples, merges at random points included."""

    @settings(max_examples=150, deadline=None)
    @given(index_programs())
    def test_index_matches_lexsort_and_tuple_dict(self, program):
        n, k, m, seed, ops, merge_cells = program
        oracle = reference.CellOracle(n, k, m)
        if seed is None:
            session = ValidationSession(n, k, m)
        else:
            matrix = np.full((n, k), MISSING, dtype=np.int64)
            for obj, worker, label in seed:
                matrix[obj, worker] = label
                oracle.add_answer(obj, worker, label)
            session = ValidationSession.from_answer_set(
                AnswerSet(matrix, _labels(m)))
        stats = session.stats
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(em_kernel, "MERGE_CELLS", merge_cells)
            for op in ops:
                self._apply(session, stats, oracle, op)
            self._apply(session, stats, oracle, ("lookup", (0, 0, 0), True))
            self._apply(session, stats, oracle, ("encode",))

    @staticmethod
    def _apply(session, stats, oracle, op):
        kind = op[0]
        if kind == "answer":
            (obj, worker, label), policy = op[1], op[2]
            if policy == "error":
                expected = oracle.add_answer(obj, worker, label)
            else:
                current = oracle.check_answer(obj, worker, label,
                                              conflicts=False)
                expected = current if current is None else (
                    current in (MISSING, label)
                    and oracle.add_answer(obj, worker, label))
            if expected is None:
                with pytest.raises(InvalidAnswerSetError):
                    session.add_answer(obj, worker, label,
                                       on_conflict=policy)
            else:
                assert session.add_answer(obj, worker, label,
                                          on_conflict=policy) == expected
        elif kind == "answers":
            arrays = [np.array(column, dtype=np.int64)
                      for column in zip(*op[1])] or \
                [np.empty(0, dtype=np.int64)] * 3
            added = 0
            for triple in op[1]:
                new = oracle.add_answer(*triple)
                if new is None:
                    with pytest.raises(InvalidAnswerSetError):
                        stats.add_answers(*arrays)
                    return
                added += new
            assert stats.add_answers(*arrays) == added
        elif kind == "grow":
            size = getattr(stats, op[1]) + op[2]
            session.grow(**{op[1]: size})
            oracle.grow(**{op[1]: size})
        elif kind == "mask":
            session.set_masked_workers(
                [worker for worker in op[1] if worker < stats.n_workers])
        elif kind == "lookup":
            (obj, worker, label), conflicts = op[1], op[2]
            assert all(stats.label_of(o, w) == oracle.label_of(o, w)
                       for o in range(oracle.n_objects + 2)
                       for w in range(oracle.n_workers + 2))
            expected = oracle.check_answer(obj, worker, label,
                                           conflicts=conflicts)
            if expected is None:
                with pytest.raises(InvalidAnswerSetError):
                    stats.check_answer(obj, worker, label,
                                       conflicts=conflicts)
            else:
                assert stats.check_answer(
                    obj, worker, label, conflicts=conflicts) == expected
        else:
            encoded, lexsorted = stats.encoded(), \
                reference.lexsort_encoding(stats)
            assert (encoded.n_objects, encoded.n_workers) == (
                oracle.n_objects, oracle.n_workers)
            for name in ("object_index", "worker_index", "label_index"):
                got, want = getattr(encoded, name), getattr(lexsorted, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert stats.n_answers == len(oracle.cells)

    def test_keys_stay_valid_past_the_int32_dimensions(self):
        """Growing past the int32 index bound widens the log; the keys,
        which never depended on the dimensions, still find every cell."""
        stats = em_kernel.AnswerStats(3, 3, 2)
        for cell in ((0, 2, 1), (2, 0, 0), (1, 1, 1)):
            stats.add_answer(*cell)
        stats.encoded()
        stats.grow(n_objects=1 << 31, n_workers=1 << 32)
        stats.add_answer((1 << 31) - 1, (1 << 32) - 1, 0)
        stats.add_answer(0, 1 << 31, 1)
        assert stats.label_of(0, 2) == 1
        assert stats.label_of((1 << 31) - 1, (1 << 32) - 1) == 0
        assert stats.label_of(1, 0) == MISSING
        encoded = stats.encoded()
        lexsorted = reference.lexsort_encoding(stats)
        assert encoded.object_index.dtype == np.int64
        for name in ("object_index", "worker_index", "label_index"):
            assert np.array_equal(getattr(encoded, name),
                                  getattr(lexsorted, name))
        with pytest.raises(ValueError, match="cell keys"):
            stats.grow(n_objects=(1 << 31) + 1)
        with pytest.raises(ValueError, match="cell keys"):
            em_kernel.AnswerStats(1, (1 << 32) + 1, 2)


class TestMaskingEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(answer_logs(), st.data())
    def test_masked_encoding_matches_masked_answer_set(self, log, data):
        n, k, m, triples = log
        stats = em_kernel.AnswerStats(n, k, m)
        _ingest(stats, triples)
        masked = data.draw(st.lists(st.integers(0, k - 1), unique=True,
                                    max_size=k))
        stats.set_masked_workers(masked)
        matrix = np.full((n, k), MISSING, dtype=np.int64)
        for obj, wrk, lab in triples:
            matrix[obj, wrk] = lab
        batch_set = AnswerSet(matrix, _labels(m)).mask_workers(masked)
        batch = em_kernel.encode_answers(batch_set)
        streamed = stats.encoded()
        assert np.array_equal(streamed.object_index, batch.object_index)
        assert np.array_equal(streamed.worker_index, batch.worker_index)
        assert np.array_equal(streamed.label_index, batch.label_index)
        # Toggling back restores the unmasked statistics exactly.
        stats.set_masked_workers([])
        full = em_kernel.encode_answers(AnswerSet(matrix, _labels(m)))
        assert np.array_equal(stats.encoded().object_index, full.object_index)
        assert np.array_equal(stats.to_matrix(include_masked=False), matrix)


class TestSessionStatisticsNeverDesync:
    """Interleaved add-answer / add-validation sequences (the satellite)."""

    def test_out_of_range_validation_raises_library_error(self):
        from repro.errors import InvalidValidationError
        session = ValidationSession(3, 2, 2)
        with pytest.raises(InvalidValidationError):
            session.add_validation(99, 0)
        with pytest.raises(InvalidValidationError):
            session.retract_validation(-7)

    def test_direct_view_writes_are_refused(self):
        """``session.validation`` is a live view that refuses writes; its
        copies stay writable."""
        session = ValidationSession(2, 2, 2)
        session.add_answers([(0, 0, 1), (0, 1, 0)])
        view = session.validation
        session.add_validation(0, 1)
        assert view.label_of(0) == 1  # live: no copy per access
        with pytest.raises(InvalidValidationError):
            view.assign(1, 0)
        with pytest.raises(InvalidValidationError):
            view.retract(0)
        assert session.validation.as_dict() == {0: 1}
        scratch = view.with_assignment(1, 0).without(0)
        assert scratch.as_dict() == {1: 0}

    @settings(max_examples=30, deadline=None)
    @given(interleavings())
    def test_direct_view_writes_are_healed(self, case):
        """A write straight through ``session.validation`` cannot desync
        the session: the view refuses it, so there is nothing to heal. A
        session that meets a refused view write before every validation
        stays equal to a twin that never saw one."""
        n, k, m, ops = case
        session = ValidationSession(n, k, m)
        twin = ValidationSession(n, k, m)
        for op in ops:
            for target in (session, twin):
                if op[0] == "answer":
                    target.add_answer(op[1], op[2], op[3])
                elif op[0] == "validate":
                    if target is session:
                        with pytest.raises(InvalidValidationError):
                            session.validation.assign(op[1], op[2],
                                                      overwrite=True)
                    target.add_validation(op[1], op[2], overwrite=True)
                else:
                    target.set_masked_workers(op[1])
            assert session.validation == twin.validation
        if session.n_answers:
            assert np.array_equal(session.conclude().assignment,
                                  twin.conclude().assignment)

    def test_grow_heals_pending_view_writes(self):
        """A validation survives growth, and no view write is pending
        across a grow: the view read before it and the one read after both
        refuse writes, so the grown session has nothing to heal."""
        session = ValidationSession(2, 2, 2)
        session.add_answers([(0, 0, 1), (0, 1, 0)])
        session.add_validation(0, 1)
        before = session.validation
        session.grow(n_objects=4, n_workers=3)
        grown = session.validation
        assert grown.n_objects == 4 and grown.as_dict() == {0: 1}
        for view in (before, grown):
            with pytest.raises(InvalidValidationError):
                view.assign(1, 0, overwrite=True)
            with pytest.raises(InvalidValidationError):
                view.retract(0)
        assert session.validation.as_dict() == {0: 1}
        # A later re-validation relabels, and the conclude clamps to it.
        session.add_validation(0, 0, overwrite=True)
        assert session.conclude().assignment[0].tolist() == [1.0, 0.0]

    def test_retraction_unclamps(self):
        """After a retraction the next conclude treats the object as never
        validated; re-validating with the other label clamps again."""
        session = ValidationSession(3, 2, 2)
        session.add_answers([(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 1, 1)])
        session.add_validation(0, 1)
        model = session.conclude()
        session.retract_validation(0)
        session.retract_validation(0)  # nothing left to retract
        reference = IncrementalEM().refine(session.stats.encoded(),
                                           ExpertValidation(3, 2), model)
        assert np.array_equal(session.conclude().assignment,
                              reference.assignment)
        session.add_validation(0, 0)
        assert session.conclude().assignment[0].tolist() == [1.0, 0.0]


class TestPosteriorsReadPath:
    @settings(max_examples=40, deadline=None)
    @given(interleavings())
    def test_posteriors_match_fresh_e_step(self, case):
        """``posteriors()`` is one E-step under the installed model over
        the current statistics, answers since the conclude included, bit
        for bit; before the first conclude it is the vote shares."""
        n, k, m, ops = case
        session = ValidationSession(n, k, m)
        concluded = False
        for index, op in enumerate(ops):
            if op[0] == "answer":
                session.add_answer(op[1], op[2], op[3])
            elif op[0] == "validate":
                session.add_validation(op[1], op[2], overwrite=True)
            else:
                session.set_masked_workers(op[1])
            if index == len(ops) // 2:
                session.conclude()
                concluded = True
        posteriors = session.posteriors()
        if concluded:
            encoded = session.stats.encoded()
            expected = em_kernel.e_step(encoded, session.model.confusions,
                                        session.model.priors)
        else:
            expected = em_kernel.initial_assignment_majority(
                session.stats.encoded())
        em_kernel.clamp_validated(
            expected, session.validation.validated_indices(),
            session.validation.validated_labels())
        assert np.array_equal(posteriors, expected)
        assert np.allclose(posteriors.sum(axis=1), 1.0)

    def test_read_between_refreshes_leaves_nothing_behind(self):
        """A read after a conclude, then 30 more answers: the next read is
        still one fresh E-step, bit for bit. Rows kept from the first read
        with the new answers added onto them round differently."""
        rng = np.random.default_rng(0)
        n, k, m = 40, 12, 3
        truth = rng.integers(0, m, size=n)
        cells = rng.permutation(n * k)[:230]
        answers = [(cell // k, cell % k,
                    truth[cell // k] if rng.random() < 0.7
                    else rng.integers(0, m)) for cell in cells]
        session = ValidationSession(n, k, m)
        session.add_answers(answers[:200])
        session.add_validation(0, truth[0])
        session.conclude()
        session.posteriors()
        session.add_answers(answers[200:])
        expected = em_kernel.e_step(session.stats.encoded(),
                                    session.model.confusions,
                                    session.model.priors)
        em_kernel.clamp_validated(expected, np.array([0]), truth[:1])
        assert np.array_equal(session.posteriors(), expected)
