"""Equivalence tests: the streaming engine agrees with the batch pipeline.

The headline property (satellite of the streaming tentpole): for random
answer streams, a :class:`~repro.streaming.ValidationSession`'s refinements
equal ``IncrementalEM.conclude`` on the equivalent batch ``AnswerSet``
(assignment and confusions within ``atol=1e-9`` — in fact bit-for-bit),
including warm starts, masking, and dimension growth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.em_kernel import encode_answers
from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.errors import StreamingError
from repro.parallel import Executor
from repro.simulation import CrowdConfig, simulate_crowd
from repro.simulation.stream import (
    AnswerEvent,
    ValidationEvent,
    answer_stream,
    merge_streams,
    replay,
    validation_stream,
)
from repro.state import MemorySessionStore
from repro.streaming import ShardedRefresher, ValidationSession


def _labels(m):
    return tuple(f"l{c + 1}" for c in range(m))


@st.composite
def streams(draw, max_n=6, max_k=5, max_m=3):
    """A random event stream with interleaved conclude points."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(2, max_m))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
        unique=True, min_size=1, max_size=n * k))
    events: list[tuple] = [
        ("answer", obj, wrk, draw(st.integers(0, m - 1)))
        for obj, wrk in cells]
    for _ in range(draw(st.integers(0, 6))):
        events.append(("validate", draw(st.integers(0, n - 1)),
                       draw(st.integers(0, m - 1))))
    for _ in range(draw(st.integers(0, 2))):
        events.append(("mask", tuple(draw(st.lists(
            st.integers(0, k - 1), unique=True, max_size=k)))))
    events = list(draw(st.permutations(events)))
    for _ in range(draw(st.integers(1, 3))):
        events.insert(draw(st.integers(0, len(events))), ("conclude",))
    events.append(("conclude",))
    return n, k, m, events


class BatchReplay:
    """Reference implementation: rebuild + batch conclude at every point."""

    def __init__(self, n, k, m):
        self.matrix = np.full((n, k), MISSING, dtype=np.int64)
        self.validation = ExpertValidation(n, m)
        self.masked: tuple[int, ...] = ()
        self.m = m
        self.iem = IncrementalEM()
        self.previous = None

    def conclude(self):
        answer_set = AnswerSet(self.matrix, _labels(self.m))
        if self.masked:
            answer_set = answer_set.mask_workers(self.masked)
        compatible = (self.previous is not None
                      and self.previous.answer_set.n_objects
                      == answer_set.n_objects
                      and self.previous.answer_set.n_workers
                      == answer_set.n_workers)
        self.previous = self.iem.conclude(
            answer_set, self.validation,
            previous=self.previous if compatible else None)
        return self.previous


class TestStreamingMatchesBatch:
    @settings(max_examples=40, deadline=None)
    @given(streams())
    def test_session_equals_batch_replay(self, case):
        n, k, m, events = case
        session = ValidationSession(n, k, m)
        batch = BatchReplay(n, k, m)
        final_pair = None
        for event in events:
            if event[0] == "answer":
                _, obj, wrk, lab = event
                session.add_answer(obj, wrk, lab)
                batch.matrix[obj, wrk] = lab
            elif event[0] == "validate":
                _, obj, lab = event
                session.add_validation(obj, lab, overwrite=True)
                batch.validation.assign(obj, lab, overwrite=True)
            elif event[0] == "mask":
                session.set_masked_workers(event[1])
                batch.masked = event[1]
            else:
                result = session.conclude()
                reference = batch.conclude()
                assert np.allclose(result.assignment, reference.assignment,
                                   atol=1e-9)
                assert np.allclose(result.confusions, reference.confusions,
                                   atol=1e-9)
                assert np.allclose(result.priors, reference.priors,
                                   atol=1e-9)
                assert result.n_iterations == reference.n_em_iterations
                final_pair = (result, reference)
        result, reference = final_pair
        # Final state: deterministic assignments agree exactly.
        assert np.array_equal(np.argmax(result.assignment, axis=1),
                              reference.map_labels())

    @settings(max_examples=15, deadline=None)
    @given(streams(max_n=4, max_k=3), st.data())
    def test_growth_equals_cold_batch_restart(self, case, data):
        n, k, m, events = case
        session = ValidationSession(n, k, m)
        batch = BatchReplay(n, k, m)
        for event in events:
            if event[0] == "answer":
                _, obj, wrk, lab = event
                session.add_answer(obj, wrk, lab)
                batch.matrix[obj, wrk] = lab
            elif event[0] == "validate":
                _, obj, lab = event
                session.add_validation(obj, lab, overwrite=True)
                batch.validation.assign(obj, lab, overwrite=True)
        session.conclude()
        batch.conclude()
        # Grow mid-stream: new objects and workers join the campaign.
        extra_n = data.draw(st.integers(1, 2))
        extra_k = data.draw(st.integers(1, 2))
        label = data.draw(st.integers(0, m - 1))
        session.add_answer(n + extra_n - 1, k + extra_k - 1, label,
                           grow=True)
        grown = BatchReplay(n + extra_n, k + extra_k, m)
        grown.matrix[:n, :k] = batch.matrix
        grown.matrix[n + extra_n - 1, k + extra_k - 1] = label
        for obj, lab in batch.validation.as_dict().items():
            grown.validation.assign(obj, lab)
        result = session.conclude()  # cold restart after growth
        reference = grown.conclude()
        assert np.allclose(result.assignment, reference.assignment,
                           atol=1e-9)
        assert np.allclose(result.confusions, reference.confusions,
                           atol=1e-9)

    def test_snapshot_is_batch_compatible(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        with pytest.raises(StreamingError):
            session.snapshot()
        prob_set = session.conclude_snapshot()
        reference = IncrementalEM().conclude(
            small_crowd.answer_set,
            ExpertValidation.empty_for(small_crowd.answer_set))
        assert np.array_equal(prob_set.assignment, reference.assignment)
        assert prob_set.answer_set is small_crowd.answer_set  # cached
        assert prob_set.n_em_iterations == reference.n_em_iterations

    def test_duplicate_answers_do_not_double_count(self):
        session = ValidationSession(2, 2, 2)
        assert session.add_answer(0, 0, 1)
        assert not session.add_answer(0, 0, 1)
        assert session.n_answers == 1


class TestSharedEncoding:
    """One encoding per statistics version, shared with the answer set."""

    def test_answer_set_carries_the_statistics_encoding(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        for toggle in (None, [0, 3], []):
            if toggle is not None:
                session.set_masked_workers(toggle)
            session.conclude()
            encoded = session.stats.encoded()
            assert encoded is encode_answers(session.answer_set)
            fresh = encode_answers(AnswerSet(
                session.stats.to_matrix(include_masked=False),
                small_crowd.answer_set.labels))
            for name in ("object_index", "worker_index", "label_index"):
                ours, theirs = getattr(encoded, name), getattr(fresh, name)
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()


class TestShardedRefresh:
    def test_single_block_equals_exact_conclude(self, small_crowd):
        exact = ValidationSession.from_answer_set(small_crowd.answer_set)
        sharded = ValidationSession.from_answer_set(small_crowd.answer_set)
        for obj in range(5):
            exact.add_validation(obj, int(small_crowd.gold[obj]))
            sharded.add_validation(obj, int(small_crowd.gold[obj]))
        result = exact.conclude()
        refresher = ShardedRefresher(max_objects_per_block=10_000)
        report = refresher.refresh(sharded)
        assert report.n_blocks == 1
        assert np.allclose(sharded.model.assignment, result.assignment,
                           atol=1e-12)
        assert np.allclose(sharded.model.confusions, result.confusions,
                           atol=1e-12)

    def test_only_dirty_blocks_refresh(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        refresher = ShardedRefresher(max_objects_per_block=8)
        first = refresher.refresh(session)
        assert first.n_refreshed == first.n_blocks  # cold: everything
        assert session.dirty_objects == frozenset()
        session.add_validation(0, int(small_crowd.gold[0]))
        second = refresher.refresh(session)
        assert second.n_refreshed >= 1
        if second.n_blocks > 1:
            assert second.n_refreshed < second.n_blocks
        clean = refresher.refresh(session)  # nothing changed
        assert clean.n_refreshed == 0

    def test_threaded_refresh_matches_serial(self, small_crowd):
        serial = ValidationSession.from_answer_set(small_crowd.answer_set)
        threaded = ValidationSession.from_answer_set(small_crowd.answer_set)
        ShardedRefresher(max_objects_per_block=8).refresh(serial)
        with Executor("threads", max_workers=2) as executor:
            ShardedRefresher(max_objects_per_block=8,
                             executor=executor).refresh(threaded)
        assert np.allclose(serial.model.assignment,
                           threaded.model.assignment, atol=1e-12)

    def test_refresh_survives_worker_growth(self, small_crowd):
        """A grown worker axis must not index stale confusions (regression)."""
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        refresher = ShardedRefresher(max_objects_per_block=8)
        refresher.refresh(session)
        new_worker = session.n_workers
        session.add_answer(0, new_worker, 0, grow=True)
        report = refresher.refresh(session)  # cold: dims changed
        assert report.n_refreshed == report.n_blocks
        assert session.model.confusions.shape[0] == new_worker + 1

    def test_refresh_recuts_partition_after_new_answers(self, small_crowd):
        """Answers from a worker outside a block's stale worker set must
        not be misattributed (regression: partition keyed on stats
        version)."""
        answers = small_crowd.answer_set
        # A worker who answered nothing yet: their first answer arrives
        # only after the partition has been cached.
        silent = np.full((answers.n_objects, 1), MISSING, dtype=np.int64)
        answers = AnswerSet(np.hstack([answers.matrix, silent]),
                            answers.labels, answers.objects,
                            answers.workers + ("late",))
        session = ValidationSession.from_answer_set(answers)
        exact = ValidationSession.from_answer_set(answers)
        refresher = ShardedRefresher(max_objects_per_block=10_000)
        refresher.refresh(session)
        exact.conclude()
        late = answers.n_workers - 1
        session.add_answer(0, late, 0)
        exact.add_answer(0, late, 0)
        refresher.refresh(session)
        reference = exact.conclude()
        assert np.allclose(session.model.assignment, reference.assignment,
                           atol=1e-12)
        assert np.allclose(session.model.confusions, reference.confusions,
                           atol=1e-12)

    def test_install_model_validates_shapes(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        with pytest.raises(StreamingError, match="shapes"):
            session.install_model(np.ones((2, 2)) / 2.0,
                                  np.ones((1, 2, 2)) / 2.0,
                                  np.ones(2) / 2.0)


class TestStreamReplay:
    def test_answer_stream_covers_all_answers_in_time_order(self, small_crowd):
        events = list(answer_stream(small_crowd, rate=10.0, rng=0))
        assert len(events) == small_crowd.answer_set.n_answers
        times = [event.time for event in events]
        assert times == sorted(times)
        matrix = small_crowd.answer_set.matrix
        for event in events:
            assert matrix[event.object_index, event.worker_index] \
                == event.label

    def test_orders(self, small_crowd):
        by_object = list(answer_stream(small_crowd, order="by_object", rng=0))
        objs = [event.object_index for event in by_object]
        assert objs == sorted(objs)
        by_worker = list(answer_stream(small_crowd, order="by_worker", rng=0))
        wrks = [event.worker_index for event in by_worker]
        assert wrks == sorted(wrks)
        with pytest.raises(ValueError):
            next(answer_stream(small_crowd, order="sideways"))
        with pytest.raises(ValueError):
            next(answer_stream(small_crowd, rate=0.0))

    def test_validation_stream_emits_gold(self, small_crowd):
        events = list(validation_stream(small_crowd, rate=1.0, limit=7,
                                        rng=1))
        assert len(events) == 7
        seen = set()
        for event in events:
            assert event.label == int(small_crowd.gold[event.object_index])
            seen.add(event.object_index)
        assert len(seen) == 7  # without replacement

    def test_replay_grows_session_and_matches_batch(self, small_crowd):
        session = ValidationSession(1, 1,
                                    small_crowd.answer_set.n_labels)
        events = merge_streams(
            answer_stream(small_crowd, rate=50.0, rng=2),
            validation_stream(small_crowd, rate=2.0, limit=8, rng=3))
        summary = replay(events, session, conclude_every=40)
        assert summary.n_answers == small_crowd.answer_set.n_answers
        assert summary.n_validations == 8
        assert summary.n_concludes >= 1
        assert session.n_objects == small_crowd.answer_set.n_objects
        assert session.n_workers == small_crowd.answer_set.n_workers
        # Final state equals a batch conclude over the full campaign,
        # warm-started from the same snapshot the session holds.
        previous = session.snapshot()
        final = session.conclude()
        reference = IncrementalEM().conclude(
            previous.answer_set, session.validation, previous=previous)
        assert np.allclose(final.assignment, reference.assignment,
                           atol=1e-9)

    def test_replay_through_sharded_refresher(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        refresher = ShardedRefresher(max_objects_per_block=8)
        events = list(validation_stream(small_crowd, rate=1.0, limit=5,
                                        rng=4))
        summary = replay(events, session, conclude_every=2,
                         refresher=refresher)
        assert summary.n_validations == 5
        assert session.has_model

    def test_validation_before_any_answer_grows_session(self):
        """A validation for an object nobody answered yet must not crash
        the replay (regression)."""
        session = ValidationSession(1, 1, 2)
        events = [ValidationEvent(0.1, 5, 1), AnswerEvent(0.2, 5, 0, 1)]
        summary = replay(events, session, conclude_every=1)
        assert summary.n_validations == 1
        assert session.n_objects == 6
        assert session.validation.label_of(5) == 1

    def test_replay_rejects_bad_events_and_intervals(self, small_crowd):
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        with pytest.raises(ValueError):
            replay([], session, conclude_every=0)
        with pytest.raises(TypeError):
            replay(["not-an-event"], session)
        # A store cannot restore the models sharded refreshes install.
        with pytest.raises(ValueError):
            replay([], session, refresher=ShardedRefresher(),
                   store=MemorySessionStore())

    def test_merge_streams_orders_by_time(self):
        a = [AnswerEvent(0.5, 0, 0, 0), AnswerEvent(2.0, 1, 0, 0)]
        b = [ValidationEvent(1.0, 0, 0)]
        merged = list(merge_streams(a, b))
        assert [event.time for event in merged] == [0.5, 1.0, 2.0]


class TestSessionAtScale:
    def test_streamed_crowd_matches_batch_at_moderate_scale(self):
        crowd = simulate_crowd(
            CrowdConfig(n_objects=120, n_workers=30, answers_per_object=8),
            rng=5)
        session = ValidationSession.from_answer_set(crowd.answer_set)
        iem = IncrementalEM()
        validation = ExpertValidation.empty_for(crowd.answer_set)
        previous = None
        for obj in range(0, 30, 3):
            session.add_validation(obj, int(crowd.gold[obj]))
            validation.assign(obj, int(crowd.gold[obj]))
            result = session.conclude()
            previous = iem.conclude(crowd.answer_set, validation,
                                    previous=previous)
            assert np.allclose(result.assignment, previous.assignment,
                               atol=1e-9)
        assert session.total_em_iterations > 0
        assert session.n_concludes == 10
