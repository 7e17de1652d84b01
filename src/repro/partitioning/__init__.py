"""Sparse answer-matrix partitioning (§5.4; spectral stand-in for METIS).

The partitioner and the bipartite-graph helpers read the kernel's flat
answer encoding (:class:`~repro.core.em_kernel.EncodedAnswers`), not a
dense matrix.
"""

from repro.partitioning.bipartite import (
    answer_bipartite_adjacency,
    block_density,
    workers_of_objects,
)
from repro.partitioning.partitioner import Block, MatrixPartitioner, Partition
from repro.partitioning.spectral import (
    connected_components,
    fiedler_vector,
    spectral_bisect,
)

__all__ = [
    "Block",
    "MatrixPartitioner",
    "Partition",
    "answer_bipartite_adjacency",
    "block_density",
    "connected_components",
    "fiedler_vector",
    "spectral_bisect",
    "workers_of_objects",
]
