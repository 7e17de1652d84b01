"""The bipartite answer graph (paper §5.4).

An answer set induces a bipartite graph: object nodes on one side,
worker nodes on the other, an edge per answer. Partitioning this graph into
balanced, well-connected pieces yields the dense sub-matrices the paper
extracts from a sparse answer matrix before running validation.

Every function here reads the kernel's flat encoding
(:class:`~repro.core.em_kernel.EncodedAnswers`), one edge per encoded
answer, so a session's statistics are partitioned without materializing
a matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.em_kernel import EncodedAnswers, object_positions
from repro.errors import PartitioningError


def answer_bipartite_adjacency(encoded: EncodedAnswers) -> sparse.csr_matrix:
    """Adjacency of the bipartite answer graph.

    Nodes ``0..n−1`` are objects, nodes ``n..n+k−1`` are workers; an edge
    connects object ``i`` and worker ``j`` iff ``M(i, j) ≠ ⊥``. Returned as
    a symmetric CSR matrix over ``n + k`` nodes.
    """
    n, k = encoded.n_objects, encoded.n_workers
    if encoded.n_answers == 0:
        raise PartitioningError("cannot build a graph from an empty answer set")
    data = np.ones(encoded.n_answers)
    rows = encoded.object_index.astype(np.int64)
    cols = encoded.worker_index.astype(np.int64) + n
    upper = sparse.coo_matrix((data, (rows, cols)), shape=(n + k, n + k))
    adjacency = (upper + upper.T).tocsr()
    return adjacency


def block_density(encoded: EncodedAnswers,
                  object_indices: np.ndarray,
                  worker_indices: np.ndarray) -> float:
    """Answer density of the sub-matrix induced by a block."""
    if object_indices.size == 0 or worker_indices.size == 0:
        return 0.0
    positions, _ = object_positions(encoded, object_indices)
    inside = np.isin(encoded.worker_index[positions], worker_indices)
    return float(np.count_nonzero(inside)
                 / (object_indices.size * worker_indices.size))


def workers_of_objects(encoded: EncodedAnswers,
                       object_indices: np.ndarray) -> np.ndarray:
    """Workers with at least one answer among the given objects."""
    positions, _ = object_positions(encoded, object_indices)
    return np.unique(encoded.worker_index[positions]).astype(np.int64)
