"""Joint-entropy subset selection — the Appendix E hardness study.

The restricted effort-minimization problem (Eq. 16) asks for a size-``k``
subset of objects maximizing their *joint* entropy, which is NP-hard when
objects are dependent [30]. Objects in an answer set are dependent through
the workers who co-answered them, so we follow the maximum-entropy-sampling
literature and study the problem on a Gaussian surrogate: the joint entropy
of a subset ``D`` is ``½ log det(2πe · Σ[D, D])`` for a covariance matrix
``Σ`` whose diagonal carries each object's marginal uncertainty and whose
off-diagonal couples objects by their co-answer overlap.

This module provides the exact (exponential) solver for tiny instances and
two interchangeable greedy solvers: the quadratic reference (a fresh
``slogdet`` per candidate per round) and the default CELF-style lazy-greedy
over an incrementally extended Cholesky factor, where each marginal gain is
an ``O(|D|²)`` triangular solve instead of an ``O(|D|³)`` determinant and
submodularity lets stale upper bounds skip most re-evaluations entirely.
Both pick identical subsets; the benches quantify the greedy approximation
quality empirically — the paper's justification for resorting to heuristics.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular

from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.uncertainty import object_entropies
from repro.telemetry import NULL_TELEMETRY
from repro.utils.checks import check_positive_int

#: Mixing coefficient for the co-answer coupling; < 1 keeps Σ positive
#: definite after degree normalization.
DEFAULT_COUPLING = 0.8

#: Variance floor so certain objects don't make Σ singular.
_VARIANCE_FLOOR = 1e-3

#: ``log(2πe)`` — the per-dimension constant of Gaussian entropy.
_LOG_2PI_E = math.log(2.0 * math.pi * math.e)


def object_covariance(prob_set: ProbabilisticAnswerSet,
                      coupling: float = DEFAULT_COUPLING) -> np.ndarray:
    """Gaussian-surrogate covariance over objects.

    ``Σ = D^{1/2} (I + coupling · S) D^{1/2}`` where ``D`` holds the
    per-object entropies (marginal uncertainty) and ``S`` is the co-answer
    similarity (shared-worker counts, normalized by its largest row sum so
    its spectral radius is ≤ 1, keeping Σ positive definite for
    ``coupling < 1``).

    The shared-worker counts are the product of the sparse ``n × k``
    object-worker incidence of ``prob_set.encoded`` with its transpose.
    They are small integers, exact in floating point, so ``Σ`` is the
    dense-matrix construction bit for bit.
    """
    if not 0.0 <= coupling < 1.0:
        raise ValueError(f"coupling must be in [0, 1), got {coupling}")
    encoded = prob_set.encoded
    answered = sparse.csr_array(
        (np.ones(encoded.n_answers),
         (encoded.object_index, encoded.worker_index)),
        shape=(encoded.n_objects, encoded.n_workers))
    shared = (answered @ answered.T).toarray()
    np.fill_diagonal(shared, 0.0)
    max_row = shared.sum(axis=1).max()
    similarity = shared / max_row if max_row > 0 else shared
    variances = np.maximum(object_entropies(prob_set.assignment),
                           _VARIANCE_FLOOR)
    scale = np.sqrt(variances)
    n = variances.size
    return scale[:, None] * (np.eye(n) + coupling * similarity) * scale[None, :]


def gaussian_joint_entropy(covariance: np.ndarray,
                           subset: np.ndarray | list[int]) -> float:
    """``H(D) = ½ log det(2πe Σ[D, D])`` for a Gaussian surrogate."""
    idx = np.asarray(subset, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    sub = covariance[np.ix_(idx, idx)]
    sign, logdet = np.linalg.slogdet(sub)
    if sign <= 0:
        return float("-inf")
    return 0.5 * (idx.size * math.log(2 * math.pi * math.e) + logdet)


def exact_max_entropy_subset(covariance: np.ndarray,
                             size: int) -> tuple[np.ndarray, float]:
    """Brute-force optimum of Eq. 16 — exponential, for tiny instances only.

    Returns ``(indices, joint entropy)`` over all ``n choose size`` subsets.
    """
    check_positive_int(size, "size")
    n = covariance.shape[0]
    if size > n:
        raise ValueError(f"subset size {size} exceeds {n} objects")
    best_subset: tuple[int, ...] = ()
    best_value = float("-inf")
    for subset in itertools.combinations(range(n), size):
        value = gaussian_joint_entropy(covariance, list(subset))
        if value > best_value:
            best_value = value
            best_subset = subset
    return np.array(best_subset, dtype=np.int64), best_value


def greedy_max_entropy_subset(covariance: np.ndarray,
                              size: int,
                              method: str = "lazy",
                              *,
                              telemetry=NULL_TELEMETRY,
                              ) -> tuple[np.ndarray, float]:
    """Greedy forward selection: add the object with the largest marginal
    joint-entropy gain until ``size`` objects are chosen.

    The classical polynomial-time heuristic for maximum entropy sampling;
    the Appendix E bench measures its gap to :func:`exact_max_entropy_subset`.

    Parameters
    ----------
    covariance:
        The Gaussian-surrogate covariance (:func:`object_covariance`).
    size:
        Number of objects to select.
    method:
        ``"lazy"`` (default) runs CELF lazy evaluation over an incremental
        Cholesky factor — each evaluated gain is an ``O(|D|²)`` triangular
        solve, and submodularity of ``log det`` lets stale gains serve as
        upper bounds so most candidates are never re-evaluated. The
        ``"quadratic"`` reference recomputes a fresh ``slogdet`` per
        candidate per round. Both resolve equal-gain ties toward the lowest
        object index and select identical subsets.
    telemetry:
        Instrumentation hub; the lazy path reports its CELF evaluation
        economy (heap pops vs. actual gain recomputations, i.e. the
        lazy-evaluation hit rate) on a ``guidance.max_entropy_subset``
        span and the ``celf.pops`` / ``celf.evals`` counters.

    Returns
    -------
    (indices, joint entropy)
        Selected objects in pick order and their joint entropy
        (``gaussian_joint_entropy`` of the final subset on both paths, so
        the two methods return identical floats).
    """
    check_positive_int(size, "size")
    n = covariance.shape[0]
    if size > n:
        raise ValueError(f"subset size {size} exceeds {n} objects")
    with telemetry.span("guidance.max_entropy_subset", n=n, size=size,
                        method=method) as span:
        if method == "lazy":
            chosen = _lazy_greedy_indices(covariance, size,
                                          telemetry=telemetry, span=span)
        elif method == "quadratic":
            chosen = _quadratic_greedy_indices(covariance, size)
        else:
            raise ValueError(
                f"method must be 'lazy' or 'quadratic', got {method!r}")
    return chosen, gaussian_joint_entropy(covariance, chosen)


def _quadratic_greedy_indices(covariance: np.ndarray,
                              size: int) -> np.ndarray:
    """Reference greedy: one fresh ``slogdet`` per candidate per round.

    Candidates are scanned in ascending index order, so equal-gain ties
    resolve to the lowest index reproducibly (a Python ``set`` here would
    make the pick hash-dependent).
    """
    n = covariance.shape[0]
    chosen: list[int] = []
    remaining = list(range(n))
    for _ in range(size):
        best_obj = -1
        best_value = float("-inf")
        for obj in remaining:
            value = gaussian_joint_entropy(covariance, chosen + [obj])
            if value > best_value:
                best_value = value
                best_obj = obj
        if best_obj < 0:  # every remaining subset singular: lowest index
            best_obj = remaining[0]
        chosen.append(best_obj)
        remaining.remove(best_obj)
    return np.array(chosen, dtype=np.int64)


def _lazy_greedy_indices(covariance: np.ndarray, size: int,
                         telemetry=NULL_TELEMETRY,
                         span=None) -> np.ndarray:
    """CELF lazy-greedy selection over an incremental Cholesky factor.

    Maintains the lower-triangular ``L`` with ``L Lᵀ = Σ[D, D]`` in pick
    order. The marginal gain of candidate ``j`` is
    ``½ log(2πe · s_j)`` for the Schur complement
    ``s_j = Σ_jj − c ᵀc, L c = Σ[D, j]`` — the conditional variance of
    ``j`` given ``D`` — matching ``H(D ∪ {j}) − H(D)`` exactly. Gains are
    monotonically non-increasing in ``D`` (submodularity of ``log det`` on
    PSD matrices), so a max-heap of stale gains is a valid upper-bound
    queue: a popped candidate whose gain was computed against the current
    ``D`` is the true argmax. Heap entries order ties by object index,
    mirroring the quadratic reference.

    The loop keeps plain-int tallies of heap pops vs. gain recomputations
    and reports them once at the end (``celf.pops`` / ``celf.evals``
    counters plus a ``hit_rate`` span attribute): a pop that needs no
    recomputation is a lazy-evaluation hit.
    """
    n = covariance.shape[0]
    pops = 0
    evals = 0

    def _finish(result: np.ndarray) -> np.ndarray:
        telemetry.counter("celf.pops").inc(pops)
        telemetry.counter("celf.evals").inc(evals)
        if span is not None:
            span.set("pops", pops)
            span.set("evals", evals)
            span.set("hit_rate", 1.0 - evals / pops if pops else 0.0)
        return result
    diagonal = np.diagonal(covariance)
    with np.errstate(divide="ignore", invalid="ignore"):
        first_gains = np.where(
            diagonal > 0.0,
            0.5 * (_LOG_2PI_E + np.log(np.maximum(diagonal, 1e-300))),
            float("-inf"))
    # (negated gain, object, round the gain was computed in).
    heap: list[tuple[float, int, int]] = [
        (-float(gain), obj, 0) for obj, gain in enumerate(first_gains)]
    heapq.heapify(heap)
    factor = np.zeros((size, size))
    chosen: list[int] = []
    chosen_arr = np.empty(size, dtype=np.int64)

    def conditional(obj: int) -> tuple[float, np.ndarray | None]:
        """Schur complement of ``obj`` given ``chosen`` and its solve."""
        depth = len(chosen)
        if depth == 0:
            return float(covariance[obj, obj]), None
        cross = solve_triangular(
            factor[:depth, :depth], covariance[chosen_arr[:depth], obj],
            lower=True, check_finite=False)
        return float(covariance[obj, obj] - cross @ cross), cross

    for round_number in range(1, size + 1):
        while True:
            negated, obj, stamp = heapq.heappop(heap)
            pops += 1
            if stamp == round_number - 1 or negated == float("inf"):
                break  # fresh gain (or -inf: nothing can beat staying -inf)
            variance, _ = conditional(obj)
            evals += 1
            gain = 0.5 * (_LOG_2PI_E + math.log(variance)) \
                if variance > 0.0 else float("-inf")
            heapq.heappush(heap, (-gain, obj, round_number - 1))
        depth = len(chosen)
        if negated == float("inf"):
            # Every remaining extension is singular (all gains -inf), and
            # supersets of a singular subset stay singular — mirror the
            # quadratic fallback: fill with the lowest remaining indices.
            remainder = sorted(entry[1] for entry in heap)
            chosen_arr[depth] = obj
            chosen_arr[depth + 1:] = remainder[:size - depth - 1]
            return _finish(chosen_arr)
        variance, cross = conditional(obj)
        if cross is not None:
            factor[depth, :depth] = cross
        factor[depth, depth] = math.sqrt(max(variance, 0.0))
        chosen_arr[depth] = obj
        chosen.append(obj)
    return _finish(chosen_arr)


def greedy_validation_order(prob_set: ProbabilisticAnswerSet,
                            budget: int,
                            coupling: float = DEFAULT_COUPLING,
                            method: str = "lazy",
                            *,
                            telemetry=NULL_TELEMETRY) -> np.ndarray:
    """A full greedy ordering of up to ``budget`` objects for validation.

    Convenience wrapper: builds the surrogate covariance once and returns
    the greedy subset in selection order — a static (non-adaptive) guidance
    plan usable when the expert wants the whole work list upfront. Runs the
    CELF lazy-greedy selector by default (see
    :func:`greedy_max_entropy_subset`).
    """
    covariance = object_covariance(prob_set, coupling)
    subset, _ = greedy_max_entropy_subset(
        covariance, min(budget, covariance.shape[0]), method=method,
        telemetry=telemetry)
    return subset
