"""Tests for the matrix partitioner and the parallel executor (§5.4)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.em_kernel import EncodedAnswers, encode_answers
from repro.errors import PartitioningError
from repro.parallel import Executor
from repro.partitioning import (
    MatrixPartitioner,
    answer_bipartite_adjacency,
    block_density,
    connected_components,
    spectral_bisect,
    workers_of_objects,
)
from repro.scenarios import compile_registered
from repro.simulation import CrowdConfig, simulate_crowd
from repro.streaming import ValidationSession


def two_communities() -> EncodedAnswers:
    """Two disjoint object/worker communities (a natural 2-block case)."""
    matrix = np.full((8, 6), MISSING, dtype=np.int64)
    matrix[:4, :3] = 0     # community 1: objects 0-3 x workers 0-2
    matrix[4:, 3:] = 1     # community 2: objects 4-7 x workers 3-5
    return encode_answers(AnswerSet(matrix, labels=("a", "b")))


class TestBipartite:
    def test_adjacency_shape_and_symmetry(self, table1_answer_set):
        adjacency = answer_bipartite_adjacency(
            encode_answers(table1_answer_set))
        assert adjacency.shape == (9, 9)
        assert (adjacency != adjacency.T).nnz == 0
        assert adjacency.sum() == 2 * table1_answer_set.n_answers

    def test_empty_answer_set_rejected(self):
        empty = AnswerSet(np.full((2, 2), MISSING), labels=("a",))
        with pytest.raises(PartitioningError):
            answer_bipartite_adjacency(encode_answers(empty))

    def test_workers_of_objects(self):
        answers = two_communities()
        workers = workers_of_objects(answers, np.array([0, 1]))
        assert workers.tolist() == [0, 1, 2]

    def test_block_density(self):
        answers = two_communities()
        assert block_density(answers, np.arange(4), np.arange(3)) == 1.0
        assert block_density(answers, np.arange(4), np.arange(6)) == 0.5
        assert block_density(answers, np.array([], dtype=int),
                             np.array([0])) == 0.0


class TestSpectral:
    def test_bisect_separates_communities(self):
        adjacency = answer_bipartite_adjacency(two_communities())
        components = connected_components(adjacency)
        assert len(components) == 2
        assert {frozenset(c.tolist()) for c in components} == {
            frozenset({0, 1, 2, 3, 8, 9, 10}),
            frozenset({4, 5, 6, 7, 11, 12, 13})}

    def test_bisect_balanced_halves(self, table1_answer_set):
        adjacency = answer_bipartite_adjacency(
            encode_answers(table1_answer_set))
        left, right = spectral_bisect(adjacency)
        assert abs(left.size - right.size) <= 1
        assert np.intersect1d(left, right).size == 0
        assert left.size + right.size == adjacency.shape[0]

    def test_bisect_rejects_tiny_graph(self):
        from scipy import sparse
        with pytest.raises(PartitioningError):
            spectral_bisect(sparse.eye(1).tocsr())


class TestPartitioner:
    def test_partition_covers_all_objects(self, table1_answer_set):
        partition = MatrixPartitioner(2).partition(
            encode_answers(table1_answer_set))
        covered = np.sort(np.concatenate(
            [b.object_indices for b in partition.blocks]))
        assert covered.tolist() == [0, 1, 2, 3]
        assert all(b.n_objects <= 2 for b in partition.blocks)

    def test_partition_respects_communities(self):
        partition = MatrixPartitioner(4).partition(two_communities())
        assert partition.n_blocks == 2
        groups = {frozenset(b.object_indices.tolist())
                  for b in partition.blocks}
        assert groups == {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}
        assert all(b.density == 1.0 for b in partition.blocks)

    def test_partition_raises_on_bad_block_size(self):
        with pytest.raises(ValueError):
            MatrixPartitioner(0)

    def test_partition_improves_density(self):
        crowd = simulate_crowd(
            CrowdConfig(200, 50, max_answers_per_worker=12), rng=2)
        partition = MatrixPartitioner(25).partition(
            encode_answers(crowd.answer_set))
        assert partition.mean_density() > crowd.answer_set.density
        assert all(b.n_objects <= 25 for b in partition.blocks)

    def test_block_of(self):
        partition = MatrixPartitioner(4).partition(two_communities())
        assert partition.block_of(0) != partition.block_of(5)
        with pytest.raises(PartitioningError):
            partition.block_of(99)

    def test_deterministic_for_seed(self, table1_answer_set):
        answers = encode_answers(table1_answer_set)
        a = MatrixPartitioner(2, seed=5).partition(answers)
        b = MatrixPartitioner(2, seed=5).partition(answers)
        assert [x.object_indices.tolist() for x in a.blocks] == \
            [x.object_indices.tolist() for x in b.blocks]


def _partition_digest(partition) -> tuple[str, int]:
    """sha256 over every block's object and worker indices (int64) and
    density (float64), in block order; plus the block count."""
    digest = hashlib.sha256()
    for block in partition.blocks:
        digest.update(np.asarray(block.object_indices, "<i8").tobytes())
        digest.update(np.asarray(block.worker_indices, "<i8").tobytes())
        digest.update(np.float64(block.density).tobytes())
    return digest.hexdigest(), partition.n_blocks


def _multiblock():
    answers = compile_registered("sharded-multiblock").answer_set
    return MatrixPartitioner(5, seed=3).partition(encode_answers(answers))


def _crowd():
    crowd = simulate_crowd(CrowdConfig(n_objects=150, n_workers=40,
                                       answers_per_object=3), rng=11)
    return MatrixPartitioner(12, seed=1).partition(
        encode_answers(crowd.answer_set))


def _masked_session():
    """A session's partition after a mask toggle: the partitioner reads
    the statistics' encoding, where the masked workers' answers are not
    edges."""
    crowd = simulate_crowd(CrowdConfig(n_objects=150, n_workers=40,
                                       answers_per_object=4), rng=12)
    session = ValidationSession.from_answer_set(crowd.answer_set)
    session.set_masked_workers(range(0, 40, 3))
    return MatrixPartitioner(12, seed=2).partition(session.stats.encoded())


#: name -> (function cutting the partition, sha256 of its blocks, block
#: count). Recorded from the dense-matrix partitioner; the encoding-based
#: one must cut the same blocks.
PARTITION_PINS = {
    "sharded-multiblock": (
        _multiblock,
        "2bdaa1cf36dd494baca70a3cc6b531ff9feda39ae941adafe09f98f8f60dc116",
        12),
    "crowd": (
        _crowd,
        "ebb98696389ef38da10a2fd3ef59d3a7b38b606ef10ae32e5f2e151a16f14a88",
        16),
    "crowd-masked-session": (
        _masked_session,
        "8553d7eca261bd0f80246d13055d2c00e7ca2adabf748cd732b257b970542248",
        18),
}


@pytest.mark.parametrize("name", sorted(PARTITION_PINS))
def test_partition_blocks_are_pinned(name):
    build, sha256, n_blocks = PARTITION_PINS[name]
    partition = build()
    for block in partition.blocks:
        assert block.object_indices.dtype == np.int64
        assert block.worker_indices.dtype == np.int64
    assert _partition_digest(partition) == (sha256, n_blocks)


class TestExecutor:
    def test_serial_map(self):
        with Executor("serial") as executor:
            assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_threads_map_preserves_order(self):
        with Executor("threads", max_workers=3) as executor:
            result = executor.map(lambda x: x * x, range(20))
        assert result == [x * x for x in range(20)]

    def test_processes_map(self):
        with Executor("processes", max_workers=2) as executor:
            result = executor.map(abs, [-1, -2, 3])
        assert result == [1, 2, 3]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Executor("bogus")

    def test_single_item_short_circuits(self):
        executor = Executor("processes")
        assert executor.map(abs, [-5]) == [5]  # no pool needed
        executor.close()


@given(
    n=st.integers(min_value=2, max_value=25),
    k=st.integers(min_value=2, max_value=10),
    block=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=15, deadline=None)
def test_property_partition_is_exact_cover(n, k, block, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(n, k))
    if np.all(matrix == MISSING):
        matrix[0, 0] = 0
    answers = encode_answers(AnswerSet(matrix, labels=("a", "b")))
    partition = MatrixPartitioner(block).partition(answers)
    covered = np.concatenate([b.object_indices for b in partition.blocks])
    assert np.array_equal(np.sort(covered), np.arange(n))
    assert all(b.n_objects <= block for b in partition.blocks)
