"""The scale-tier kernel contracts: width-adaptive index dtypes, the
shared CSR views, the sparse incidence operators and geometric log
growth.

These are the regression tripwires behind ``benchmarks/test_scale_tiers``:
the benchmarks assert throughput and memory, this file pins the
*semantics* that make the memory-lean encodings safe — narrow dtypes must
never overflow, narrowed checkpoints must round-trip, and the operator
path must be bit-for-bit the ``np.add.at`` reference.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.em_kernel import INT32_BOUND, AnswerStats, index_dtype
from repro.errors import InvalidAnswerSetError
from repro.state import FileSessionStore
from repro.streaming import ValidationSession

import reference

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, same shape, same bytes — no tolerance, not even ±0."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_incidence(encoded, plan) -> None:
    """The plan's operators are exactly the answer incidence, in order."""
    n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
    objects = encoded.object_index.astype(np.int64)
    cells = (encoded.worker_index.astype(np.int64) * m
             + encoded.label_index.astype(np.int64))
    by_object, by_cell = plan.object_incidence, plan.cell_incidence
    assert by_object.shape == (n, k * m)
    assert by_cell.shape == (k * m, n)
    # G: row o lists its answers' cells in ascending answer order.
    np.testing.assert_array_equal(by_object.indices, cells)
    np.testing.assert_array_equal(by_object.indptr,
                                  em_kernel.csr_view(encoded).object_starts)
    # S: row w·m + l lists the objects of that cell's answers, in
    # ascending answer order.
    order = np.argsort(cells, kind="stable")
    np.testing.assert_array_equal(by_cell.indices, objects[order])
    np.testing.assert_array_equal(
        by_cell.indptr,
        np.concatenate(([0], np.cumsum(np.bincount(cells,
                                                   minlength=k * m)))))
    # Unit weights, one ones array shared by both operators.
    assert by_cell.data is by_object.data
    np.testing.assert_array_equal(by_object.data, np.ones(encoded.n_answers))
    dense = np.zeros((n, k * m))
    np.add.at(dense, (objects, cells), 1.0)
    np.testing.assert_array_equal(by_object.toarray(), dense)
    np.testing.assert_array_equal(by_cell.toarray(), dense.T)


def random_encoding(seed: int, n: int = 30, k: int = 8, m: int = 3,
                    density: float = 0.5):
    """A random sparse encoding plus a random soft assignment."""
    rng = np.random.default_rng(seed)
    matrix = np.where(rng.random((n, k)) < density,
                      rng.integers(0, m, size=(n, k)),
                      MISSING)
    labels = tuple(f"l{i}" for i in range(m))
    encoded = em_kernel.encode_answers(AnswerSet(matrix, labels))
    assignment = rng.random((n, m))
    assignment /= assignment.sum(axis=1, keepdims=True)
    return encoded, assignment


# ----------------------------------------------------------------------
# index_dtype: the single point of truth for narrowing decisions
# ----------------------------------------------------------------------
class TestIndexDtype:
    def test_small_dimensions_narrow_to_int32(self):
        assert index_dtype(1000, 50, 4, 20_000) == np.int32

    def test_exact_boundary_still_fits(self):
        # n·m == 2³¹ − 1 exactly: the flat assignment index tops out at
        # n·m − 1, so the bound itself is representable.
        assert index_dtype(INT32_BOUND // 3, 1, 3) == np.int32

    @pytest.mark.parametrize("n,k,m,a", [
        (INT32_BOUND // 3 + 1, 1, 3, 0),   # n·m crosses the bound
        (1, INT32_BOUND // 9 + 1, 3, 0),   # k·m·m crosses the bound
        (1, 1, 2, INT32_BOUND + 1),        # answer log crosses the bound
        (INT32_BOUND + 1, 1, 1, 0),        # n alone crosses the bound
    ])
    def test_any_crossing_bound_widens(self, n, k, m, a):
        assert index_dtype(n, k, m, a) == np.int64

    def test_encode_answers_carries_narrow_dtype(self):
        encoded, _ = random_encoding(0)
        assert encoded.object_index.dtype == np.int32
        assert encoded.worker_index.dtype == np.int32
        assert encoded.label_index.dtype == np.int32

    def test_kernel_plan_narrow_and_correct(self):
        encoded, _ = random_encoding(1)
        plan = em_kernel.kernel_plan(encoded)
        for operator in (plan.object_incidence, plan.cell_incidence):
            assert operator.indices.dtype == np.int32
            assert operator.indptr.dtype == np.int32
        assert plan.n_answers == encoded.n_answers
        assert_incidence(encoded, plan)

    def test_kernel_plan_upcasts_at_the_int32_boundary(self, monkeypatch):
        """The operators take their width from index_dtype, not from
        scipy's own narrowing (which keeps int32 whenever the values
        fit): under a lowered bound, an int32 encoding gets int64
        operators — the same incidence, the same bit-exact products.
        A real 2³¹ boundary needs an O(n) row pointer of 2³¹ entries."""
        encoded, assignment = random_encoding(17)
        assert encoded.object_index.dtype == np.int32
        monkeypatch.setattr(em_kernel, "INT32_BOUND", 50)
        assert index_dtype(encoded.n_objects, encoded.n_workers,
                           encoded.n_labels) == np.int64
        plan = em_kernel.kernel_plan(encoded)
        for operator in (plan.object_incidence, plan.cell_incidence):
            assert operator.indices.dtype == np.int64
            assert operator.indptr.dtype == np.int64
        assert_incidence(encoded, plan)
        assert_bits_equal(
            em_kernel.m_step(encoded, assignment),
            reference.m_step(encoded, assignment))
        confusions = em_kernel.m_step(encoded, assignment)
        priors = em_kernel.estimate_priors(assignment)
        assert_bits_equal(
            em_kernel.e_step(encoded, confusions, priors),
            reference.e_step(encoded, confusions, priors))

    def test_kernel_plan_rejects_unsorted_encodings(self):
        encoded = em_kernel.EncodedAnswers(
            n_objects=3, n_workers=2, n_labels=2,
            object_index=np.array([2, 0], dtype=np.int32),
            worker_index=np.array([0, 1], dtype=np.int32),
            label_index=np.array([1, 0], dtype=np.int32))
        with pytest.raises(InvalidAnswerSetError, match="object-sorted"):
            em_kernel.kernel_plan(encoded)

    def test_block_subencoding_renarrows(self):
        """A small block cut out of a (hypothetically) huge encoding gets
        its own narrow dtype — sub-problems re-run the width decision."""
        encoded, _ = random_encoding(2)
        objects = np.arange(5)
        sub, used = em_kernel.block_subencoding(encoded, objects)
        assert sub.object_index.dtype == np.int32
        assert sub.worker_index.dtype == np.int32
        assert sub.n_objects == 5
        # The workers are derived from the block's own answers.
        in_block = encoded.object_index < 5
        np.testing.assert_array_equal(
            used, np.unique(encoded.worker_index[in_block]))
        assert sub.n_workers == used.size
        np.testing.assert_array_equal(used[sub.worker_index],
                                      encoded.worker_index[in_block])


# ----------------------------------------------------------------------
# EncodingCSR: one set of segment views per encoding epoch
# ----------------------------------------------------------------------
class TestEncodingCSR:
    def test_object_slices_partition_the_encoding(self):
        encoded, _ = random_encoding(3)
        csr = em_kernel.csr_view(encoded)
        covered = 0
        for obj in range(encoded.n_objects):
            sl = csr.object_slice(obj)
            assert (encoded.object_index[sl] == obj).all()
            covered += sl.stop - sl.start
        assert covered == encoded.n_answers

    def test_worker_positions_match_flatnonzero_ascending(self):
        encoded, _ = random_encoding(4)
        csr = em_kernel.csr_view(encoded)
        for worker in range(encoded.n_workers):
            positions = csr.worker_positions(worker)
            np.testing.assert_array_equal(
                positions,
                np.flatnonzero(encoded.worker_index == worker))
            assert (np.diff(positions) > 0).all() or positions.size <= 1

    def test_views_carry_the_index_dtype(self):
        encoded, _ = random_encoding(5)
        csr = em_kernel.csr_view(encoded)
        assert csr.object_starts.dtype == np.int32
        assert csr.worker_order.dtype == np.int32
        assert csr.worker_starts.dtype == np.int32

    def test_memoized_once_per_encoding(self):
        encoded, _ = random_encoding(6)
        assert em_kernel.csr_view(encoded) is em_kernel.csr_view(encoded)

    def test_pickling_drops_the_memoized_views(self):
        import pickle
        encoded, _ = random_encoding(7)
        em_kernel.kernel_plan(encoded)
        em_kernel.csr_view(encoded)
        clone = pickle.loads(pickle.dumps(encoded))
        assert "_csr_view" not in clone.__dict__
        assert "_kernel_plan" not in clone.__dict__
        np.testing.assert_array_equal(clone.object_index,
                                      encoded.object_index)


# ----------------------------------------------------------------------
# AnswerStats: geometric growth, narrow logs, mixed-dtype deltas
# ----------------------------------------------------------------------
class TestAnswerStatsGrowth:
    def test_log_starts_narrow(self):
        stats = AnswerStats(100, 10, 3)
        assert stats._obj.dtype == np.int32

    def test_reserve_growth_is_geometric(self):
        """The regression this PR's growth-policy audit exists to pin:
        every reallocation at least doubles capacity (>= the 1.5× floor a
        geometric policy needs), so A appends cost O(log A) reallocations
        — not the O(A²) copy cascade of a request-sized policy."""
        stats = AnswerStats(5000, 1, 2)
        capacities = [stats._obj.size]
        for i in range(5000):
            stats.add_answer(i, 0, 0)
            if stats._obj.size != capacities[-1]:
                capacities.append(stats._obj.size)
        assert len(capacities) <= int(np.log2(5000)) + 2
        for before, after in zip(capacities, capacities[1:]):
            assert after >= 1.5 * before
        assert all(after == 2 * before  # the exact policy, pinned
                   for before, after in zip(capacities, capacities[1:]))

    def test_bulk_load_reserves_once(self):
        stats = AnswerStats(4000, 2, 2)
        objects = np.arange(4000)
        stats.add_answers(objects, np.zeros(4000, dtype=np.int64),
                          np.zeros(4000, dtype=np.int64))
        assert stats.n_answers == 4000
        assert stats._obj.size >= 4000
        assert stats._obj.dtype == np.int32

    def test_mixed_dtype_deltas_land_in_the_narrow_log(self):
        """Deltas arrive as whatever width the producer used (python
        ints, mixed-width numpy scalars, int64 arrays); the maintained log
        stays narrow and the values stay exact."""
        stats = AnswerStats(50, 6, 2)
        stats.add_answer(0, 0, 1)
        stats.add_answer(1, 1, 0)
        for triple in zip(np.array([2, 3], dtype=np.int64),
                          np.array([2, 3], dtype=np.int16),
                          np.array([1, 1], dtype=np.uint8)):
            stats.add_answer(*triple)
        stats.add_answers(np.array([4, 5], dtype=np.int64),
                          np.array([4, 5], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64))
        assert stats.n_answers == 6
        assert stats._obj.dtype == np.int32
        encoded = stats.encoded()
        assert encoded.object_index.tolist() == [0, 1, 2, 3, 4, 5]
        assert encoded.label_index.tolist() == [1, 0, 1, 1, 0, 1]

    def test_grow_widens_when_dimensions_outgrow_int32(self, monkeypatch):
        """Streams may grow past the bound the construction-time dtype was
        validated against. Exercised against a lowered bound — the real
        2³¹ boundary needs multi-GB aggregate arrays."""
        monkeypatch.setattr(em_kernel, "INT32_BOUND", 1000)
        stats = AnswerStats(10, 4, 2)
        assert stats._obj.dtype == np.int32  # 10·2 = 20 <= 1000
        stats.add_answer(3, 1, 1)
        stats.grow(n_objects=600)  # 600·2 = 1200 > 1000: must widen
        assert stats._obj.dtype == np.int64
        stats.add_answer(599, 0, 0)
        encoded = stats.encoded()
        assert encoded.object_index.tolist() == [3, 599]
        assert encoded.label_index.tolist() == [1, 0]


# ----------------------------------------------------------------------
# Incidence operators: bit-for-bit the np.add.at reference
# ----------------------------------------------------------------------
@st.composite
def answer_instances(draw):
    """A sparse answer set with m ∈ {2, 3, 5, 8} — sometimes with an
    object or a worker that has no answers — plus a soft assignment."""
    m = draw(st.sampled_from([2, 3, 5, 8]))
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    matrix = np.where(rng.random((n, k)) < density,
                      rng.integers(0, m, size=(n, k)), MISSING)
    if draw(st.booleans()):
        matrix[rng.integers(n)] = MISSING
    if draw(st.booleans()):
        matrix[:, rng.integers(k)] = MISSING
    answer_set = AnswerSet(matrix, tuple(f"l{i}" for i in range(m)))
    return answer_set, rng.dirichlet(np.ones(m), size=n), rng


class TestOperatorPathBitEquality:
    @given(answer_instances())
    @settings(max_examples=60, deadline=None)
    def test_operators_equal_the_incidence(self, instance):
        answer_set, _, _ = instance
        encoded = em_kernel.encode_answers(answer_set)
        assert_incidence(encoded, em_kernel.kernel_plan(encoded))

    @given(answer_instances())
    @settings(max_examples=60, deadline=None)
    def test_e_and_m_steps_bit_equal_reference(self, instance):
        answer_set, assignment, _ = instance
        encoded = em_kernel.encode_answers(answer_set)
        confusions = reference.m_step(encoded, assignment)
        assert_bits_equal(em_kernel.m_step(encoded, assignment), confusions)
        priors = em_kernel.estimate_priors(assignment)
        assert_bits_equal(
            em_kernel.e_step(encoded, confusions, priors),
            reference.e_step(encoded, confusions, priors))

    @given(answer_instances())
    @settings(max_examples=40, deadline=None)
    def test_run_em_bit_equal_reference_masked_and_clamped(self, instance):
        answer_set, assignment, rng = instance
        stats = ValidationSession.from_answer_set(answer_set).stats
        stats.set_masked_workers(np.flatnonzero(
            rng.random(stats.n_workers) < 0.3))
        encoded = stats.encoded()
        validated = np.flatnonzero(rng.random(stats.n_objects) < 0.3)
        labels = rng.integers(0, stats.n_labels, size=validated.size)
        planned = em_kernel.run_em(encoded, assignment, validated, labels,
                                   max_iter=15)
        scattered = reference.run_em(encoded, assignment, validated, labels,
                                     max_iter=15)
        assert_bits_equal(planned.assignment, scattered.assignment)
        assert_bits_equal(planned.confusions, scattered.confusions)
        assert_bits_equal(planned.priors, scattered.priors)
        assert planned.n_iterations == scattered.n_iterations
        assert planned.converged == scattered.converged


# ----------------------------------------------------------------------
# Narrowed checkpoints: new int32 segments, old int64 goldens
# ----------------------------------------------------------------------
class TestNarrowedCheckpointRoundTrip:
    def _session(self, seed: int = 21) -> ValidationSession:
        rng = np.random.default_rng(seed)
        matrix = np.where(rng.random((12, 5)) < 0.7,
                          rng.integers(0, 2, size=(12, 5)), MISSING)
        session = ValidationSession.from_answer_set(
            AnswerSet(matrix, ("a", "b")))
        session.add_validation(0, 1)
        session.add_validation(3, 0)
        session.conclude()
        return session

    def test_checkpoint_writes_narrow_segments(self, tmp_path):
        session = self._session()
        assert session.stats._obj.dtype == np.int32
        store = FileSessionStore(tmp_path)
        store.checkpoint(session, meta={"step": 0})
        seg = next((tmp_path / "ckpt-000000").glob("segment-*.npz"))
        with np.load(seg) as arrays:
            assert arrays["objects"].dtype == np.int32
            assert arrays["workers"].dtype == np.int32
            assert arrays["labels"].dtype == np.int32

    def test_narrowed_round_trip_is_bit_exact(self, tmp_path):
        session = self._session()
        store = FileSessionStore(tmp_path)
        store.checkpoint(session, meta={"step": 0})
        restored = store.restore().session
        np.testing.assert_array_equal(restored.model.assignment,
                                      session.model.assignment)
        np.testing.assert_array_equal(restored.stats.to_matrix(),
                                      session.stats.to_matrix())
        assert restored.stats._obj.dtype == np.int32

    def test_old_int64_golden_restores_into_a_narrowed_session(self):
        """The committed pre-narrowing checkpoint stores int64 segments;
        restore must ingest them transparently — the maintained log comes
        back narrow, and the pinned posterior is reproduced bit-exactly."""
        import json
        root = FIXTURES / "golden_checkpoint"
        with np.load(root / "store" / "ckpt-000000"
                     / "segment-000.npz") as seg:
            assert seg["objects"].dtype == np.int64  # genuinely old bytes
        expected = json.loads((root / "expected.json").read_text())
        session = FileSessionStore(root / "store").restore().session
        assert session.stats._obj.dtype == np.int32  # re-narrowed on ingest
        assert session.stats.n_answers == expected["n_answers"]
        assert np.argmax(session.model.assignment, axis=1).tolist() \
            == expected["map_labels"]
        assert session.aggregator.rng.random() == pytest.approx(
            expected["next_uniform"], abs=0.0)
