"""Recursive answer-matrix partitioning (paper §5.4, Table 5).

Large, sparse answer matrices are divided into smaller, denser blocks that
"fit for human interactions and can be handled more efficiently": each block
is a subset of objects together with the workers who answered them. The
partitioner recursively bisects the bipartite answer graph (spectral
bisection stands in for the paper's METIS) until every block holds at
most ``max_objects_per_block`` objects; disconnected components are packed
independently, as they share no workers anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.em_kernel import EncodedAnswers, block_subencoding
from repro.errors import PartitioningError
from repro.partitioning.bipartite import (
    answer_bipartite_adjacency,
    block_density,
    workers_of_objects,
)
from repro.partitioning.spectral import connected_components, spectral_bisect
from repro.utils.checks import check_positive_int


@dataclass(frozen=True)
class Block:
    """One partition block: objects and the workers who answered them."""

    object_indices: np.ndarray
    worker_indices: np.ndarray
    density: float

    @property
    def n_objects(self) -> int:
        return int(self.object_indices.size)

    @property
    def n_workers(self) -> int:
        return int(self.worker_indices.size)


@dataclass(frozen=True)
class Partition:
    """A complete partition of an answer set into blocks."""

    blocks: tuple[Block, ...]
    n_objects: int

    def __post_init__(self) -> None:
        covered = np.concatenate([b.object_indices for b in self.blocks]) \
            if self.blocks else np.empty(0, np.int64)
        if covered.size != self.n_objects or \
                np.unique(covered).size != self.n_objects:
            raise PartitioningError(
                "blocks must cover every object exactly once")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, obj: int) -> int:
        """Index of the block containing object ``obj``."""
        for index, block in enumerate(self.blocks):
            if obj in block.object_indices:
                return index
        raise PartitioningError(f"object {obj} is in no block")

    def mean_density(self) -> float:
        """Object-weighted mean block density."""
        if not self.blocks:
            return 0.0
        weights = np.array([b.n_objects for b in self.blocks], dtype=float)
        densities = np.array([b.density for b in self.blocks])
        return float(np.average(densities, weights=weights))


class MatrixPartitioner:
    """Partition an answer encoding into dense object blocks.

    Parameters
    ----------
    max_objects_per_block:
        Upper bound on objects per block — the paper sizes blocks to what a
        validating human can work through (tens of objects).
    seed:
        Seed for the spectral bisection start vectors (deterministic
        partitions for a fixed seed).

    The partitioner reads the kernel's flat encoding
    (:class:`~repro.core.em_kernel.EncodedAnswers`); encode a dense
    answer set with :func:`~repro.core.em_kernel.encode_answers`, or pass
    a session's ``stats.encoded()``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.answer_set import AnswerSet
    >>> from repro.core.em_kernel import encode_answers
    >>> matrix = np.where(np.eye(6, 4, dtype=bool), 0, -1)
    >>> answers = encode_answers(AnswerSet(matrix, ("a", "b")))
    >>> partition = MatrixPartitioner(3).partition(answers)
    >>> sum(block.n_objects for block in partition.blocks)
    6
    """

    def __init__(self, max_objects_per_block: int, seed: int = 0) -> None:
        check_positive_int(max_objects_per_block, "max_objects_per_block")
        self.max_objects_per_block = int(max_objects_per_block)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def partition(self, encoded: EncodedAnswers) -> Partition:
        """Partition all objects of ``encoded`` into blocks."""
        n = encoded.n_objects
        if n == 0:
            raise PartitioningError("cannot partition an empty answer set")
        adjacency = answer_bipartite_adjacency(encoded)
        object_groups: list[np.ndarray] = []
        # Component-wise: disconnected pieces share no workers, so they are
        # natural block boundaries (and the eigensolver needs connectivity).
        for component in connected_components(adjacency):
            objects = component[component < n]
            if objects.size == 0:
                continue  # isolated worker node (answered nothing)
            object_groups.extend(self._split(encoded, objects, depth=0))
        blocks = []
        for group in object_groups:
            objects = np.sort(group)
            workers = workers_of_objects(encoded, objects)
            blocks.append(Block(
                object_indices=objects, worker_indices=workers,
                density=block_density(encoded, objects, workers)))
        return Partition(blocks=tuple(blocks), n_objects=n)

    # ------------------------------------------------------------------
    def _split(self, encoded: EncodedAnswers, objects: np.ndarray,
               depth: int) -> list[np.ndarray]:
        """Recursively bisect a connected object group until small enough.

        ``objects`` is sorted (components and halves both are), which is
        what :func:`~repro.core.em_kernel.block_subencoding` needs.
        """
        if objects.size <= self.max_objects_per_block:
            return [objects]
        # Restrict to the workers active on these objects (the
        # sub-encoding's own): inactive worker columns would be isolated
        # nodes that disconnect the graph and derail the Fiedler cut.
        sub, _ = block_subencoding(encoded, objects)
        adjacency = answer_bipartite_adjacency(sub)
        left_nodes, right_nodes = spectral_bisect(
            adjacency, seed=self.seed + depth)
        n_sub = objects.size
        left = objects[left_nodes[left_nodes < n_sub]]
        right = objects[right_nodes[right_nodes < n_sub]]
        if left.size == 0 or right.size == 0:
            # Degenerate cut (all objects one side): fall back to halving.
            half = objects.size // 2
            left, right = objects[:half], objects[half:]
        return (self._split(encoded, left, depth + 1)
                + self._split(encoded, right, depth + 1))
