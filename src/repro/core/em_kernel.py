"""Vectorized expectation-maximization kernel (paper §4.1, Eq. 1–5).

Both the traditional batch EM baseline (:mod:`repro.core.em`) and the
incremental i-EM (:mod:`repro.core.iem`) are thin policies over this kernel;
they differ only in how the first estimate is produced (random/majority
initialization vs. warm start from the previous probabilistic answer set)
and in whether expert validations are clamped as ground truth.

Implementation notes
--------------------
* Answers are flattened into three parallel index arrays (object, worker,
  label). Both EM scatters are sums over answers grouped by one end of
  the answer, so each is one sparse product with the answer incidence:
  the E-step adds ``log F_w(·, l)`` into object rows, and the M-step adds
  ``U(o, ·)`` into ``(worker, label)`` cells. Complexity per iteration is
  ``O(A·m)`` for ``A`` answers.
* Each scatter is one product with a CSR incidence operator of the
  encoding's memoized :class:`KernelPlan`. Every output cell starts at
  0.0 and adds its answers one at a time, with unit weight, in ascending
  answer order — exactly the accumulation of a plain ``np.add.at``
  scatter, so the products are **bit-for-bit** that reference. The
  reference itself lives in ``tests/reference.py``; the test suite pins
  the equality and the golden Dawid–Skene fixtures pin the numerics.
* All likelihood products run in log space with probability flooring, so
  degenerate confusion rows never produce NaNs.
* Objects with an expert validation are clamped to a one-hot row after
  every E-step (Eq. 4) and therefore act as ground truth in the following
  M-step — this is what makes expert input a "first-class citizen".
* :func:`run_em` iterates the E/M map with squared extrapolation
  (:func:`squarem`), which reaches the plain loop's fixed points in far
  fewer maps; ``tests/reference.py`` keeps the plain loop as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.confusion import PROB_FLOOR, normalize_rows
from repro.errors import InvalidAnswerSetError
from repro.telemetry import NULL_TELEMETRY

if TYPE_CHECKING:
    from repro.parallel.sharded_kernel import ShardedKernel

#: Default Laplace-style smoothing added to confusion counts in the M-step.
DEFAULT_SMOOTHING = 0.01

#: Default convergence tolerance on ``max |ΔU|`` across one E/M map.
DEFAULT_TOL = 1e-4

#: Default cap on E/M maps per EM run.
DEFAULT_MAX_ITER = 100

#: Largest value an ``int32`` index may take; the width-adaptive dtype
#: machinery narrows every index array whose *flat* bound stays under it.
INT32_BOUND = int(np.iinfo(np.int32).max)


def index_dtype(n_objects: int, n_workers: int, n_labels: int,
                n_answers: int = 0) -> np.dtype:
    """Narrowest safe index dtype for an encoding of these dimensions.

    The kernel's flat indices range over ``n·m`` (raveled assignment),
    ``k·m·m`` (raveled confusion stack), and ``A`` (answer positions), so
    ``int32`` is valid exactly when every one of those bounds fits —
    validated here, at build time, rather than trusted. Dimensions beyond
    the bound (or answer logs past 2³¹ entries) widen to ``int64``. The
    encodings, the :class:`EncodingCSR` views, and the :class:`KernelPlan`
    operators all take their width from this one decision, which keeps
    the 10⁵–10⁶-object tiers cache-resident (see
    ``benchmarks/test_scale_tiers.py``).
    """
    bound = max(int(n_objects) * int(n_labels),
                int(n_workers) * int(n_labels) * int(n_labels),
                int(n_objects), int(n_workers), int(n_answers))
    return np.dtype(np.int32 if bound <= INT32_BOUND else np.int64)


@dataclass(frozen=True)
class EncodedAnswers:
    """Flat (object, worker, label) encoding of an answer matrix."""

    n_objects: int
    n_workers: int
    n_labels: int
    object_index: np.ndarray
    worker_index: np.ndarray
    label_index: np.ndarray

    @property
    def n_answers(self) -> int:
        return int(self.object_index.size)

    def __getstate__(self) -> dict:
        # The memoized kernel plan and CSR view (see kernel_plan /
        # csr_view) double the pickled payload of every process-executor
        # task; workers re-derive them from the same memoization in one
        # pass, so never ship them.
        state = self.__dict__.copy()
        state.pop("_kernel_plan", None)
        state.pop("_csr_view", None)
        return state


def encode_answers(answer_set: AnswerSet) -> EncodedAnswers:
    """Flatten an :class:`~repro.core.answer_set.AnswerSet` for the kernel.

    Index arrays carry the narrowest safe dtype (:func:`index_dtype`):
    ``int32`` for every realistically sized campaign, ``int64`` beyond
    the 2³¹ flat-index bound.

    The encoding is memoized on the answer set, whose matrix is a
    read-only copy, so it never goes stale: repeated calls — one per
    look-ahead select on the same answer set — return the same
    encoding, and with it the same :func:`kernel_plan` and
    :func:`csr_view`. Pickling an answer set drops the memo.
    """
    encoded = answer_set._encoded
    if encoded is None:
        matrix = answer_set.matrix
        obj, wrk = np.nonzero(matrix != MISSING)
        dtype = index_dtype(answer_set.n_objects, answer_set.n_workers,
                            answer_set.n_labels, obj.size)
        encoded = EncodedAnswers(
            n_objects=answer_set.n_objects,
            n_workers=answer_set.n_workers,
            n_labels=answer_set.n_labels,
            object_index=np.ascontiguousarray(obj, dtype=dtype),
            worker_index=np.ascontiguousarray(wrk, dtype=dtype),
            label_index=np.ascontiguousarray(matrix[obj, wrk], dtype=dtype),
        )
        answer_set._encoded = encoded
    return encoded


# ----------------------------------------------------------------------
# Kernel plans: sparse answer-incidence operators per encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelPlan:
    """The answer incidence of one encoding as two CSR operators.

    Both EM scatters sum over answers ``(o, w, l)``: the E-step (Eq. 1)
    into object rows, the M-step (Eq. 5) into ``(worker, label)`` cells.
    A plan stores that incidence once per :class:`EncodedAnswers`:

    ``object_incidence`` (``G``, ``n × k·m``)
        Row ``o`` has one unit entry at column ``w·m + l`` for each
        answer ``(o, w, l)``, in ascending answer order. Its row pointer
        is the memoized :func:`csr_view` ``object_starts``. The E-step
        scatter is ``G @ logF``, where ``logF[w·m + l, r] = log F_w(r, l)``.
    ``cell_incidence`` (``S``, ``k·m × n``)
        The same incidence by ``(worker, label)`` cell, from a linear
        ``tocsc`` conversion that keeps each row in ascending answer
        order. The M-step counts are ``S @ U``: row ``w·m + l`` sums
        ``U(o, ·)`` over the answers of worker ``w`` with label ``l``.

    Both operators share one float64 ones array, and their indices carry
    the encoding's :func:`index_dtype`: at int32 that is about 16 bytes
    per answer (8 for the ones, 4 per operator's column indices, plus the
    row pointers).

    A CSR product starts every output cell at 0.0 and adds the row's
    entries one at a time in stored order; a unit weight leaves each
    operand exact. That is the ascending-answer-order accumulation of
    the ``np.add.at`` reference, so plan-driven results are bit-for-bit
    equal to it.

    Obtain plans through :func:`kernel_plan`, which memoizes the plan on
    the encoding object itself — and since :meth:`AnswerStats.encoded`
    caches its encoding per :attr:`AnswerStats.version`, streaming callers
    get one plan per statistics version for free.
    """

    n_objects: int
    n_workers: int
    n_labels: int
    object_incidence: sparse.csr_array
    cell_incidence: sparse.csr_array

    @property
    def n_answers(self) -> int:
        return int(self.object_incidence.nnz)


def kernel_plan(encoded: EncodedAnswers) -> KernelPlan:
    """The (memoized) :class:`KernelPlan` for an encoding.

    The plan is cached on the ``EncodedAnswers`` instance, so repeated
    ``run_em`` calls over the same encoding — warm-started look-aheads,
    streaming refinements, block solves — pay the operator construction
    once. The encoding must be object-sorted, as both construction paths
    emit it: the operators' answer order is the encoding's.
    """
    plan = encoded.__dict__.get("_kernel_plan")
    if plan is None:
        n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
        objects = encoded.object_index
        if objects.size and (objects[1:] < objects[:-1]).any():
            raise InvalidAnswerSetError(
                "kernel plans need an object-sorted encoding")
        # Cast before the arithmetic: cells range over k·m, and an int32
        # product past 2³¹ would overflow silently.
        dtype = index_dtype(n, k, m, encoded.n_answers)
        cells = (encoded.worker_index.astype(dtype, copy=False) * m
                 + encoded.label_index.astype(dtype, copy=False))
        by_object = _with_index_dtype(sparse.csr_array(
            (np.ones(encoded.n_answers), cells,
             csr_view(encoded).object_starts), shape=(n, k * m)), dtype)
        by_cell = _with_index_dtype(by_object.tocsc().T, dtype)
        by_cell.data = by_object.data
        plan = KernelPlan(n_objects=n, n_workers=k, n_labels=m,
                          object_incidence=by_object,
                          cell_incidence=by_cell)
        object.__setattr__(encoded, "_kernel_plan", plan)
    return plan


def _with_index_dtype(operator: sparse.csr_array,
                      dtype: np.dtype) -> sparse.csr_array:
    """Give ``operator`` the validated index width.

    scipy narrows any index array whose values fit ``int32``;
    :func:`index_dtype` is the one width decision, so restore it.
    """
    operator.indices = operator.indices.astype(dtype, copy=False)
    operator.indptr = operator.indptr.astype(dtype, copy=False)
    return operator


# ----------------------------------------------------------------------
# CSR segment views (per-object and per-worker answer neighborhoods)
# ----------------------------------------------------------------------
class EncodingCSR:
    """Lazy CSR segment views over one encoding epoch.

    The per-object and per-worker neighborhood structures shared by the
    guidance look-aheads, :func:`block_subencoding` (and through it the
    :class:`repro.streaming.ShardedRefresher` block payloads), the kernel
    plan, and the session read paths live here, built **once per encoding
    epoch** and memoized on the encoding itself via :func:`csr_view`:

    ``object_starts``
        Length ``n + 1`` segment boundaries; the answers of object ``o``
        occupy positions ``object_starts[o]:object_starts[o + 1]`` of the
        (object-sorted) encoding. This is the CSR ``indptr`` of the
        object → answer adjacency.
    ``worker_order`` / ``worker_starts``
        A stable argsort of ``worker_index`` plus its segment boundaries:
        ``worker_order[worker_starts[w]:worker_starts[w + 1]]`` are the
        answer positions of worker ``w``, in ascending answer order
        (stability guarantees it). Together they are the CSR transpose —
        the worker → answer adjacency — without materializing per-worker
        copies of the triple arrays.

    Every array carries the encoding's width-adaptive index dtype
    (:func:`index_dtype`), and each is built lazily on first touch so
    callers that only need one side of the adjacency never pay for the
    other.

    The view keeps the encoding's index arrays, not the encoding: it is
    memoized on the encoding, and a back-reference would make the pair a
    reference cycle that only the cyclic garbage collector frees — one
    per look-ahead select, each holding a whole encoding and its plan.
    """

    __slots__ = ("_object_index", "_worker_index", "_n_objects",
                 "_n_workers", "_dtype", "_object_starts",
                 "_worker_order", "_worker_starts")

    def __init__(self, encoded: EncodedAnswers) -> None:
        self._object_index = encoded.object_index
        self._worker_index = encoded.worker_index
        self._n_objects = encoded.n_objects
        self._n_workers = encoded.n_workers
        self._dtype = index_dtype(encoded.n_objects, encoded.n_workers,
                                  encoded.n_labels, encoded.n_answers)
        self._object_starts: np.ndarray | None = None
        self._worker_order: np.ndarray | None = None
        self._worker_starts: np.ndarray | None = None

    @property
    def object_starts(self) -> np.ndarray:
        """Per-object segment boundaries (CSR indptr), length ``n + 1``."""
        if self._object_starts is None:
            self._object_starts = np.searchsorted(
                self._object_index, np.arange(self._n_objects + 1),
            ).astype(self._dtype, copy=False)
        return self._object_starts

    @property
    def worker_order(self) -> np.ndarray:
        """Answer positions stably sorted by worker (CSR transpose data)."""
        if self._worker_order is None:
            self._worker_order = np.argsort(
                self._worker_index, kind="stable",
            ).astype(self._dtype, copy=False)
        return self._worker_order

    @property
    def worker_starts(self) -> np.ndarray:
        """Per-worker boundaries into ``worker_order``, length ``k + 1``."""
        if self._worker_starts is None:
            self._worker_starts = np.searchsorted(
                self._worker_index[self.worker_order],
                np.arange(self._n_workers + 1),
            ).astype(self._dtype, copy=False)
        return self._worker_starts

    def object_slice(self, obj: int) -> slice:
        """Contiguous position range of object ``obj``'s answers."""
        starts = self.object_starts
        return slice(int(starts[obj]), int(starts[obj + 1]))

    def worker_positions(self, worker: int) -> np.ndarray:
        """Answer positions of ``worker``, ascending (a view, not a copy)."""
        starts = self.worker_starts
        return self.worker_order[int(starts[worker]):int(starts[worker + 1])]


def csr_view(encoded: EncodedAnswers) -> EncodingCSR:
    """The (memoized) :class:`EncodingCSR` for an encoding.

    Like :func:`kernel_plan`, the view is cached on the ``EncodedAnswers``
    instance, so the guidance look-aheads, the sharded refresher, and the
    streaming session all share one set of segment arrays per encoding
    epoch instead of each rebuilding their own.
    """
    view = encoded.__dict__.get("_csr_view")
    if view is None:
        view = EncodingCSR(encoded)
        object.__setattr__(encoded, "_csr_view", view)
    return view


# ----------------------------------------------------------------------
# Block extraction (partition-scoped and neighborhood-scoped solves)
# ----------------------------------------------------------------------
def block_subencoding(encoded: EncodedAnswers,
                      objects: np.ndarray,
                      workers: np.ndarray | None = None,
                      *,
                      n_labels: int | None = None,
                      ) -> tuple[EncodedAnswers, np.ndarray]:
    """Restrict a flat encoding to an object block with local indices.

    The shared seam of every partition-scoped solve: the
    :class:`repro.streaming.ShardedRefresher` block refreshes and the
    localized look-ahead of
    :class:`repro.guidance.information_gain.InformationGainStrategy` both
    re-solve an object neighborhood as its own small EM instance.

    Parameters
    ----------
    encoded:
        The full flat encoding.
    objects:
        Sorted unique object indices of the block.
    workers:
        Sorted unique worker indices covering every answer of ``objects``;
        derived from the block's answers when omitted.
    n_labels:
        Label vocabulary of the sub-encoding (defaults to ``encoded``'s).

    The block's answer positions are gathered segment by segment from the
    memoized :func:`csr_view` ``object_starts`` — ``O(block answers)``,
    never an ``O(A)`` scan — so the sub-encoding is object-sorted like
    its parent.

    Returns
    -------
    (sub_encoding, workers)
        The block's encoding under local (positional) object/worker
        indices, and the worker index set actually used.
    """
    objects = np.asarray(objects, dtype=np.int64)
    object_starts = csr_view(encoded).object_starts
    counts = object_starts[objects + 1] - object_starts[objects]
    positions = np.repeat(object_starts[objects], counts) + _ranges(counts)
    local_obj = np.repeat(np.arange(objects.size, dtype=np.int64), counts)
    kept_workers = encoded.worker_index[positions]
    kept_labels = encoded.label_index[positions]
    if workers is None:
        workers = np.unique(kept_workers)
    else:
        workers = np.asarray(workers, dtype=np.int64)
    sub_labels = encoded.n_labels if n_labels is None else int(n_labels)
    sub_dtype = index_dtype(int(objects.size), int(workers.size),
                            sub_labels, int(local_obj.size))
    sub = EncodedAnswers(
        n_objects=objects.size,
        n_workers=workers.size,
        n_labels=sub_labels,
        object_index=np.ascontiguousarray(local_obj, dtype=sub_dtype),
        worker_index=np.ascontiguousarray(
            np.searchsorted(workers, kept_workers), dtype=sub_dtype),
        label_index=np.ascontiguousarray(kept_labels, dtype=sub_dtype))
    return sub, workers


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``concat(arange(c) for c in counts)`` without a Python loop."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets


# ----------------------------------------------------------------------
# Incremental sufficient statistics (streaming ingestion)
# ----------------------------------------------------------------------
class AnswerStats:
    """Mutable sufficient statistics over a *growing* answer stream.

    The batch entry point :func:`encode_answers` flattens a full ``n × k``
    matrix on every call — ``O(n·k)`` even when only one answer changed.
    ``AnswerStats`` maintains the same flat encoding as an append-only log
    plus delta-maintained aggregates, so streaming callers
    (:class:`repro.streaming.ValidationSession`) pay ``O(1)`` amortized per
    ingested answer:

    * the ``(object, worker, label)`` triple log (geometrically grown);
    * per-object label vote counts (majority initialization in ``O(n·m)``
      without touching the answer log);
    * per-worker answer counts;
    * per-object and per-worker position indexes into the log, so delta
      queries (:meth:`answers_of_object`, :meth:`objects_of_worker`) never
      scan the full answer stream;
    * a masked-worker set (the §5.3 faulty-worker exclusion) applied at
      encoding time instead of by copying matrix columns.

    :meth:`encoded` produces an :class:`EncodedAnswers` that is **bit-for-bit
    identical** to ``encode_answers(equivalent AnswerSet)``: answers are
    lexicographically sorted by ``(object, worker)``, which is exactly the
    row-major order ``np.nonzero`` yields, so every downstream kernel
    computation (scatter order included) matches the batch path exactly.

    Dimensions may grow (:meth:`grow`) as unseen objects/workers appear in
    the stream; label vocabulary size is fixed at construction.
    """

    __slots__ = ("_n_objects", "_n_workers", "_n_labels",
                 "_obj", "_wrk", "_lab", "_n_answers",
                 "_cells", "_by_object", "_by_worker", "_masked",
                 "_vote_counts", "_worker_answer_counts",
                 "_encoded_cache", "_version")

    def __init__(self, n_objects: int, n_workers: int, n_labels: int) -> None:
        if n_objects < 0 or n_workers < 0:
            raise ValueError("n_objects and n_workers must be >= 0, got "
                             f"{n_objects} and {n_workers}")
        if n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {n_labels}")
        self._n_objects = int(n_objects)
        self._n_workers = int(n_workers)
        self._n_labels = int(n_labels)
        capacity = 64
        dtype = index_dtype(self._n_objects, self._n_workers, self._n_labels)
        self._obj = np.empty(capacity, dtype=dtype)
        self._wrk = np.empty(capacity, dtype=dtype)
        self._lab = np.empty(capacity, dtype=dtype)
        self._n_answers = 0
        #: (object, worker) -> label, for duplicate/conflict detection.
        self._cells: dict[tuple[int, int], int] = {}
        #: object -> positions into the log, for per-object delta queries.
        self._by_object: dict[int, list[int]] = {}
        #: worker -> positions into the log, for per-worker delta queries.
        self._by_worker: dict[int, list[int]] = {}
        self._masked: frozenset[int] = frozenset()
        self._vote_counts = np.zeros((self._n_objects, self._n_labels))
        self._worker_answer_counts = np.zeros(self._n_workers, dtype=np.int64)
        self._encoded_cache: EncodedAnswers | None = None
        self._version = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_answer_set(cls, answer_set: AnswerSet) -> "AnswerStats":
        """Seed statistics from an existing batch answer set."""
        stats = cls(answer_set.n_objects, answer_set.n_workers,
                    answer_set.n_labels)
        matrix = answer_set.matrix
        obj, wrk = np.nonzero(matrix != MISSING)
        stats.add_answers(obj, wrk, matrix[obj, wrk])
        return stats

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return self._n_objects

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def n_labels(self) -> int:
        return self._n_labels

    @property
    def n_answers(self) -> int:
        """Total ingested answers (masked workers' answers included)."""
        return self._n_answers

    @property
    def masked_workers(self) -> frozenset[int]:
        """Workers whose answers are currently excluded from encoding."""
        return self._masked

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (cache keys)."""
        return self._version

    def label_of(self, obj: int, worker: int) -> int:
        """Ingested label for a cell (:data:`MISSING` when unanswered)."""
        return self._cells.get((int(obj), int(worker)), MISSING)

    def answers_of_object(self, obj: int) -> tuple[np.ndarray, np.ndarray]:
        """``(workers, labels)`` of every ingested answer for ``obj``."""
        positions = self._by_object.get(int(obj), [])
        idx = np.asarray(positions, dtype=np.int64)
        return self._wrk[idx], self._lab[idx]

    def objects_of_worker(self, worker: int) -> np.ndarray:
        """Unique objects the worker answered (ascending).

        Served from the per-worker position index — ``O(answers of the
        worker)``, not a scan of the full answer log.
        """
        positions = self._by_worker.get(int(worker), [])
        idx = np.asarray(positions, dtype=np.int64)
        return np.unique(self._obj[idx])

    def answer_log(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(objects, workers, labels)`` in exact insertion order (copies).

        The raw append-only triple log — masked workers' answers included —
        which is the complete mutable input of the statistics: replaying it
        through :meth:`add_answers` into a fresh instance of the same
        dimensions rebuilds every aggregate bit-for-bit. This is the
        serialization surface used by :mod:`repro.state`.
        """
        n = self._n_answers
        return (self._obj[:n].copy(), self._wrk[:n].copy(),
                self._lab[:n].copy())

    def vote_counts(self) -> np.ndarray:
        """Per-object label vote counts over *unmasked* answers (copy)."""
        return self._vote_counts.copy()

    def worker_answer_counts(self) -> np.ndarray:
        """Answers ingested per worker, masked or not (copy)."""
        return self._worker_answer_counts.copy()

    # ------------------------------------------------------------------
    def grow(self, n_objects: int | None = None,
             n_workers: int | None = None) -> None:
        """Extend the object/worker dimensions (streams may introduce both).

        Shrinking is rejected; aggregates are padded with zeros.
        """
        if n_objects is not None:
            n_objects = int(n_objects)
            if n_objects < self._n_objects:
                raise ValueError(
                    f"cannot shrink n_objects from {self._n_objects} "
                    f"to {n_objects}")
            if n_objects > self._n_objects:
                extra = np.zeros((n_objects - self._n_objects,
                                  self._n_labels))
                self._vote_counts = np.vstack([self._vote_counts, extra])
                self._n_objects = n_objects
                self._bump()
        if n_workers is not None:
            n_workers = int(n_workers)
            if n_workers < self._n_workers:
                raise ValueError(
                    f"cannot shrink n_workers from {self._n_workers} "
                    f"to {n_workers}")
            if n_workers > self._n_workers:
                self._worker_answer_counts = np.concatenate([
                    self._worker_answer_counts,
                    np.zeros(n_workers - self._n_workers, dtype=np.int64)])
                self._n_workers = n_workers
                self._bump()
        self._maybe_widen()

    def add_answer(self, obj: int, worker: int, label: int) -> bool:
        """Ingest one answer; returns ``False`` for an exact duplicate.

        A conflicting re-answer for an already-answered cell raises
        :class:`~repro.errors.InvalidAnswerSetError`, matching the batch
        :meth:`~repro.core.answer_set.AnswerSet.from_triples` contract.
        """
        obj, worker, label = int(obj), int(worker), int(label)
        if not 0 <= obj < self._n_objects:
            raise InvalidAnswerSetError(
                f"object index {obj} outside [0, {self._n_objects})")
        if not 0 <= worker < self._n_workers:
            raise InvalidAnswerSetError(
                f"worker index {worker} outside [0, {self._n_workers})")
        if not 0 <= label < self._n_labels:
            raise InvalidAnswerSetError(
                f"label code {label} outside [0, {self._n_labels})")
        current = self._cells.get((obj, worker), MISSING)
        if current != MISSING:
            if current == label:
                return False
            raise InvalidAnswerSetError(
                f"cell ({obj}, {worker}) already holds label {current}; "
                f"conflicting re-answer {label} rejected")
        position = self._n_answers
        if position == self._obj.size:
            self._reserve(position + 1)
        self._obj[position] = obj
        self._wrk[position] = worker
        self._lab[position] = label
        self._n_answers += 1
        self._cells[(obj, worker)] = label
        self._by_object.setdefault(obj, []).append(position)
        self._by_worker.setdefault(worker, []).append(position)
        self._worker_answer_counts[worker] += 1
        if worker not in self._masked:
            self._vote_counts[obj, label] += 1.0
        self._bump()
        return True

    def add_answers(self,
                    objects: np.ndarray,
                    workers: np.ndarray,
                    labels: np.ndarray) -> int:
        """Ingest a batch of answers; returns how many were new.

        When the log is empty and the batch holds no duplicate cells (the
        bulk-seeding case of :meth:`from_answer_set`), the aggregates are
        updated with vectorized scatters instead of per-answer calls.
        """
        objects = np.asarray(objects, dtype=np.int64).ravel()
        workers = np.asarray(workers, dtype=np.int64).ravel()
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if objects.size and not self._cells \
                and self._bulk_load(objects, workers, labels):
            return int(objects.size)
        added = 0
        for obj, wrk, lab in zip(objects, workers, labels):
            if self.add_answer(int(obj), int(wrk), int(lab)):
                added += 1
        return added

    def _bulk_load(self, objects: np.ndarray, workers: np.ndarray,
                   labels: np.ndarray) -> bool:
        """Vectorized first fill; returns False to fall back on the loop."""
        if objects.min() < 0 or objects.max() >= self._n_objects \
                or workers.min() < 0 or workers.max() >= self._n_workers \
                or labels.min() < 0 or labels.max() >= self._n_labels:
            return False  # let add_answer raise the precise error
        keys = objects * self._n_workers + workers
        if np.unique(keys).size != keys.size:
            return False  # in-batch duplicates need per-answer semantics
        count = int(objects.size)
        if count > self._obj.size:
            self._reserve(count)
        self._obj[:count] = objects
        self._wrk[:count] = workers
        self._lab[:count] = labels
        self._n_answers = count
        self._cells = dict(zip(zip(objects.tolist(), workers.tolist()),
                               labels.tolist()))
        by_object: dict[int, list[int]] = {}
        by_worker: dict[int, list[int]] = {}
        for position, (obj, wrk) in enumerate(zip(objects.tolist(),
                                                  workers.tolist())):
            by_object.setdefault(obj, []).append(position)
            by_worker.setdefault(wrk, []).append(position)
        self._by_object = by_object
        self._by_worker = by_worker
        np.add.at(self._worker_answer_counts, workers, 1)
        if self._masked:
            keep = ~np.isin(workers,
                            np.fromiter(self._masked, dtype=np.int64))
            np.add.at(self._vote_counts,
                      (objects[keep], labels[keep]), 1.0)
        else:
            np.add.at(self._vote_counts, (objects, labels), 1.0)
        self._bump()
        return True

    def set_masked_workers(self, workers) -> frozenset[int]:
        """Replace the masked-worker set; returns the workers that toggled.

        Vote counts are delta-adjusted with a single ``np.isin`` pass over
        the answer log (one vectorized scatter for all toggled workers at
        once, instead of one ``flatnonzero`` scan per worker).
        """
        new_masked = frozenset(int(w) for w in workers)
        for worker in new_masked:
            if not 0 <= worker < self._n_workers:
                raise InvalidAnswerSetError(
                    f"worker index {worker} outside [0, {self._n_workers})")
        toggled = new_masked ^ self._masked
        if not toggled:
            return frozenset()
        log_workers = self._wrk[:self._n_answers]
        toggled_arr = np.asarray(sorted(toggled), dtype=np.int64)
        positions = np.flatnonzero(np.isin(log_workers, toggled_arr))
        if positions.size:
            newly_masked = np.asarray(sorted(new_masked & toggled),
                                      dtype=np.int64)
            delta = np.where(
                np.isin(log_workers[positions], newly_masked), -1.0, 1.0)
            np.add.at(self._vote_counts,
                      (self._obj[positions], self._lab[positions]), delta)
        self._masked = new_masked
        self._bump()
        return toggled

    # ------------------------------------------------------------------
    def encoded(self) -> EncodedAnswers:
        """The current (masked-filtered) flat encoding, cached per version.

        Sorted by ``(object, worker)`` so it is bit-for-bit identical to
        :func:`encode_answers` on the equivalent answer matrix.
        """
        if self._encoded_cache is not None:
            return self._encoded_cache
        obj = self._obj[:self._n_answers]
        wrk = self._wrk[:self._n_answers]
        lab = self._lab[:self._n_answers]
        if self._masked:
            keep = ~np.isin(wrk, np.fromiter(self._masked, dtype=np.int64))
            obj, wrk, lab = obj[keep], wrk[keep], lab[keep]
        order = np.lexsort((wrk, obj))
        self._encoded_cache = EncodedAnswers(
            n_objects=self._n_objects,
            n_workers=self._n_workers,
            n_labels=self._n_labels,
            object_index=np.ascontiguousarray(obj[order]),
            worker_index=np.ascontiguousarray(wrk[order]),
            label_index=np.ascontiguousarray(lab[order]),
        )
        return self._encoded_cache

    def majority_assignment(self) -> np.ndarray:
        """Majority initialization from the maintained vote counts.

        Counts are whole numbers, so any ingestion order sums to the exact
        same floats as :func:`initial_assignment_majority` over
        :meth:`encoded` — the cold-start path stays bit-for-bit stable.
        """
        return normalize_rows(self._vote_counts.copy())

    def to_matrix(self, include_masked: bool = True) -> np.ndarray:
        """Materialize the ``n × k`` answer matrix (⊥ = :data:`MISSING`)."""
        matrix = np.full((self._n_objects, self._n_workers), MISSING,
                         dtype=np.int64)
        obj = self._obj[:self._n_answers]
        wrk = self._wrk[:self._n_answers]
        lab = self._lab[:self._n_answers]
        matrix[obj, wrk] = lab
        if not include_masked and self._masked:
            matrix[:, sorted(self._masked)] = MISSING
        return matrix

    # ------------------------------------------------------------------
    def _reserve(self, capacity: int) -> None:
        """Grow the triple log to hold at least ``capacity`` answers.

        Growth is geometric: whatever the requested size, the new capacity
        is at least **double** the current one, so a stream of ``A``
        appends performs ``O(log A)`` reallocations and ``O(A)`` total
        copied elements — never the ``O(A²)`` copy cascade a
        request-sized policy degrades to on million-answer bulk ingest.
        The policy lives here (not at the call sites) so every growth
        path inherits it; ``tests/test_scale_kernel.py`` pins it.
        """
        capacity = max(int(capacity), 2 * self._obj.size)
        for name in ("_obj", "_wrk", "_lab"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:self._n_answers] = old[:self._n_answers]
            setattr(self, name, grown)

    def _maybe_widen(self) -> None:
        """Widen the triple log when grown dimensions outgrow its dtype.

        Streams may :meth:`grow` past the bound the construction-time
        :func:`index_dtype` was validated against; indices already stored
        are unaffected (they were bounded by the *old* dimensions), but
        future appends need the wider type.
        """
        dtype = index_dtype(self._n_objects, self._n_workers,
                            self._n_labels, self._n_answers)
        if dtype.itemsize > self._obj.dtype.itemsize:
            for name in ("_obj", "_wrk", "_lab"):
                setattr(self, name, getattr(self, name).astype(dtype))

    def _bump(self) -> None:
        self._version += 1
        self._encoded_cache = None

    def __repr__(self) -> str:
        return (f"AnswerStats(n_objects={self._n_objects}, "
                f"n_workers={self._n_workers}, n_labels={self._n_labels}, "
                f"n_answers={self._n_answers}, "
                f"masked={sorted(self._masked)})")


def update_stats(stats: AnswerStats,
                 delta_answers) -> AnswerStats:
    """Apply a batch of new ``(object, worker, label)`` answers to ``stats``.

    The incremental sibling of :func:`encode_answers`: instead of
    re-flattening a full matrix, only the delta is ingested and the
    maintained sufficient statistics (triple log, vote counts, per-worker
    counts) are updated in place. ``delta_answers`` is any iterable of
    integer triples (an ``EncodedAnswers`` is accepted too). Returns
    ``stats`` for chaining.
    """
    if isinstance(delta_answers, EncodedAnswers):
        stats.add_answers(delta_answers.object_index,
                          delta_answers.worker_index,
                          delta_answers.label_index)
        return stats
    for obj, wrk, lab in delta_answers:
        stats.add_answer(int(obj), int(wrk), int(lab))
    return stats


@dataclass(frozen=True)
class EMResult:
    """Converged (or iteration-capped) EM state.

    Attributes
    ----------
    assignment:
        ``n × m`` matrix ``U``; each row is a distribution over labels.
    confusions:
        ``k × m × m`` stack of row-stochastic worker confusion matrices.
    priors:
        Length-``m`` label prior ``p(l)`` (Eq. 3).
    n_iterations:
        Number of E/M maps executed.
    converged:
        Whether the tolerance was reached before the cap on maps.
    """

    assignment: np.ndarray
    confusions: np.ndarray
    priors: np.ndarray
    n_iterations: int
    converged: bool


# ----------------------------------------------------------------------
# Initial estimates
# ----------------------------------------------------------------------
def initial_assignment_majority(encoded: EncodedAnswers) -> np.ndarray:
    """Soft majority-vote initialization: normalized per-object vote counts.

    Objects with no answers start uniform. This is the standard
    Dawid–Skene [9] initialization.
    """
    n, m = encoded.n_objects, encoded.n_labels
    counts = np.zeros((n, m), dtype=float)
    np.add.at(counts, (encoded.object_index, encoded.label_index), 1.0)
    return normalize_rows(counts)


def initial_assignment_uniform(encoded: EncodedAnswers) -> np.ndarray:
    """Uninformative uniform initialization."""
    n, m = encoded.n_objects, encoded.n_labels
    return np.full((n, m), 1.0 / m)


def initial_assignment_random(encoded: EncodedAnswers,
                              rng: np.random.Generator) -> np.ndarray:
    """Random-probability initialization — the paper's "traditional EM"
    restart policy (§6.4): each object row is an independent Dirichlet(1)
    draw."""
    n, m = encoded.n_objects, encoded.n_labels
    return rng.dirichlet(np.ones(m), size=n)


# ----------------------------------------------------------------------
# E/M steps
# ----------------------------------------------------------------------
def clamp_validated(assignment: np.ndarray,
                    validated_objects: np.ndarray,
                    validated_labels: np.ndarray) -> np.ndarray:
    """Overwrite validated rows with one-hot expert labels (Eq. 4).

    Returns ``assignment`` (mutated in place) for chaining.
    """
    if validated_objects.size:
        assignment[validated_objects, :] = 0.0
        assignment[validated_objects, validated_labels] = 1.0
    return assignment


def estimate_priors(assignment: np.ndarray) -> np.ndarray:
    """Label priors ``p(l) = Σ_o U(o, l) / |O|`` (Eq. 3).

    Each label column is summed on its own, by numpy's pairwise sum: with
    ``m ≪ n`` an axis-0 reduction runs one ``m``-long inner loop per
    object and costs several times more.
    """
    n, m = assignment.shape
    if n == 0:
        return np.full(m, 1.0 / m)
    priors = np.array([assignment[:, label].sum()
                       for label in range(m)]) / n
    # Guard against all-mass-on-one-label degeneracies feeding log(0).
    clipped = np.clip(priors, PROB_FLOOR, None)
    return clipped / clipped.sum()


def m_step(encoded: EncodedAnswers,
           assignment: np.ndarray,
           smoothing: float = DEFAULT_SMOOTHING) -> np.ndarray:
    """Estimate worker confusion matrices from the soft assignment (Eq. 5).

    ``F_w(l', l) ∝ Σ_o U(o, l') · d_w(o, l)``, row-normalized with
    ``smoothing`` pseudo-counts; rows with no evidence become uniform.
    The counts are one sparse product, ``cell_incidence @ U``, with the
    encoding's memoized :func:`kernel_plan`.
    """
    k, m = encoded.n_workers, encoded.n_labels
    if not encoded.n_answers:
        return normalize_rows(np.zeros((k, m, m)), smoothing=smoothing)
    cell_counts = kernel_plan(encoded).cell_incidence @ np.ascontiguousarray(
        assignment, dtype=np.float64)
    return confusions_from_cell_counts(cell_counts, smoothing)


def confusions_from_cell_counts(cell_counts: np.ndarray,
                                smoothing: float) -> np.ndarray:
    """Row-normalize ``cell_incidence @ U`` into confusion matrices (Eq. 5).

    The product is laid out ``[w·m + l, r]``; transposing it into a
    C-contiguous ``(k, m, m)`` stack ``counts[w, r, l]`` restores the
    memory layout an ``np.add.at`` scatter would normalize, so the row
    sums add in the same order.
    """
    m = cell_counts.shape[1]
    counts = np.ascontiguousarray(
        cell_counts.reshape(-1, m, m).transpose(0, 2, 1))
    if smoothing > 0:
        # Inline the normalize_rows smoothed branch: counts are sums of
        # non-negative probabilities and smoothing makes every row total
        # positive, so the validation scan and zero-row selects are dead
        # weight here. Same divisions, bit-for-bit identical result.
        smoothed = counts + smoothing
        return smoothed / smoothed.sum(axis=-1, keepdims=True)
    return normalize_rows(counts, smoothing=smoothing)


def scatter_log_likelihood(encoded: EncodedAnswers,
                           log_confusions: np.ndarray) -> np.ndarray:
    """Per-object log-likelihood rows ``Σ_answers log F_w(·, l)``.

    The E-step's scatter, factored out so delta-maintained read paths
    (:meth:`repro.streaming.ValidationSession.posteriors`) share it: one
    sparse product, ``object_incidence @ logF``, with the encoding's
    memoized :func:`kernel_plan`.
    """
    n, m = encoded.n_objects, encoded.n_labels
    if not encoded.n_answers:
        return np.zeros((n, m))
    # logF[w·m + l, r] = log F_w(r, l): one row per incidence column.
    cell_log_confusions = log_confusions.transpose(0, 2, 1).reshape(-1, m)
    return kernel_plan(encoded).object_incidence @ cell_log_confusions


def normalize_log_likelihood(log_like: np.ndarray,
                             log_priors: np.ndarray) -> np.ndarray:
    """Posterior rows from log-likelihood rows and log priors (Eq. 1).

    Adds the priors, shifts each row by its maximum, exponentiates and
    normalizes, in place: the returned posterior is ``log_like`` itself.
    Every per-object pass runs as ``m`` elementwise operations on the
    label columns, because with ``m ≪ n`` a label-axis reduction or
    broadcast costs one short inner loop per object. The row maximum is
    exact in any order. The row total adds the columns in ascending label
    order, which is exactly numpy's row sum for ``m ≤ 7``; past that
    numpy sums pairwise, so totals differ from ``sum(axis=1)`` by
    rounding.
    """
    _normalize_columns(log_like, log_priors)
    return log_like


def _normalize_columns(log_like: np.ndarray, log_priors: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize_log_likelihood`, also returning each row's peak
    and exponentiated total (``log`` of the row's normalizer is
    ``peak + log(total)``)."""
    columns = [log_like[:, label] for label in range(log_like.shape[1])]
    for column, log_prior in zip(columns, log_priors):
        column += log_prior
    peak = columns[0].copy()
    for column in columns[1:]:
        np.maximum(peak, column, out=peak)
    for column in columns:
        column -= peak
    np.exp(log_like, out=log_like)
    return peak, _divide_by_row_totals(columns)


def _divide_by_row_totals(columns: list[np.ndarray]) -> np.ndarray:
    """Divide the label ``columns`` of an array by its row totals, summed
    in ascending label order; return the totals."""
    total = columns[0].copy()
    for column in columns[1:]:
        total += column
    for column in columns:
        column /= total
    return total


def e_step(encoded: EncodedAnswers,
           confusions: np.ndarray,
           priors: np.ndarray,
           *,
           log_confusions: np.ndarray | None = None,
           log_priors: np.ndarray | None = None) -> np.ndarray:
    """Estimate assignment probabilities from confusion matrices (Eq. 1).

    ``U(o, l) ∝ p(l) · Π_w Π_{l'} F_w(l, l')^{d_w(o, l')}``, computed in log
    space: each answer ``(o, w, l')`` contributes the column
    ``log F_w(·, l')`` to row ``o`` of the log-likelihood accumulator.
    Objects without any answers fall back to the prior.

    ``log_confusions``/``log_priors`` accept the pre-clipped logs of
    ``confusions``/``priors`` so callers evaluating many E-steps against
    the *same* model (look-ahead fans, shared warm starts) hoist the
    ``log(clip(...))`` work out of the loop; when omitted they are
    computed here. The scatter is :func:`scatter_log_likelihood`.
    """
    if log_confusions is None:
        log_confusions = np.log(np.clip(confusions, PROB_FLOOR, None))
    if log_priors is None:
        log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
    return normalize_log_likelihood(
        scatter_log_likelihood(encoded, log_confusions), log_priors)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
#: Extrapolated entries below this are flushed to zero before their rows
#: are renormalized. That removes negative entries, and it keeps
#: denormals out of the next maps, which they slow several-fold.
FLUSH_BELOW = 1e-15

#: An extrapolation is rejected when it loses more than this many nats of
#: observed-data log-likelihood against its cycle's start (SQUAREM's
#: default ``objfn.inc``).
LIKELIHOOD_SLACK = 1.0

#: The extrapolation's step cap grows by this factor each time it binds
#: and shrinks by it after a rejection (SQUAREM's ``mstep``).
STEP_FACTOR = 4.0


class EMMap:
    """One E/M map ``U ↦ clamp(E(M(U)))`` over a pair of scatters.

    ``m_step(U)`` returns the confusion matrices of Eq. 5 and
    ``scatter(log F)`` the per-object log-likelihood rows of Eq. 1.
    Besides the next ``U``, a map returns the model ``M(U)`` it started
    from (confusions and priors) and what the likelihood guard needs:
    each row's peak and exponentiated total from the E-step
    normalization, and the log-likelihood of each validated row's
    clamped label.
    """

    def __init__(self, m_step, scatter, validated_objects: np.ndarray,
                 validated_labels: np.ndarray) -> None:
        self.m_step = m_step
        self.scatter = scatter
        self.validated_objects = validated_objects
        self.validated_labels = validated_labels

    def __call__(self, assignment: np.ndarray,
                 ) -> tuple[np.ndarray, tuple, tuple]:
        objects, labels = self.validated_objects, self.validated_labels
        confusions = self.m_step(assignment)
        priors = estimate_priors(assignment)
        log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
        log_like = self.scatter(np.log(np.clip(confusions, PROB_FLOOR,
                                               None)))
        clamped = log_like[objects, labels] + log_priors[labels]
        peak, total = _normalize_columns(log_like, log_priors)
        clamp_validated(log_like, objects, labels)
        return log_like, (confusions, priors), (peak, total, clamped)

    def log_likelihood(self, parts: tuple) -> float:
        """Observed-data log-likelihood of the model a map started from."""
        peak, total, clamped = parts
        rows = peak + np.log(total)
        rows[self.validated_objects] = clamped
        return float(rows.sum())


def squarem(em_map: EMMap, initial_assignment: np.ndarray, *,
            max_iter: int, tol: float) -> tuple[EMResult, dict]:
    """EM to tolerance by squared extrapolation (SQUAREM, SqS3).

    The method is Varadhan & Roland, "Simple and globally convergent
    methods for accelerating the convergence of any EM algorithm"
    (Scand. J. Stat., 2008). One cycle runs two maps ``U0 → U1 → U2``,
    takes ``r = U1 − U0`` and ``v = U2 − 2·U1 + U0``, and the step
    ``α = max(1, ‖r‖/‖v‖)`` capped at a step cap that starts at 1, grows
    ×4 whenever it binds and shrinks ×4 after a rejection. At ``α = 1``
    the extrapolated point is ``U2`` itself; otherwise it is
    ``U′ = U0 + 2α·r + α²·v``, with entries below :data:`FLUSH_BELOW`
    zeroed, rows renormalized and validated rows re-clamped. One
    stabilizing map runs from ``U′``. If the model at ``U′`` loses more
    than :data:`LIKELIHOOD_SLACK` nats of observed-data log-likelihood
    against the cycle's start, the cycle keeps ``U2`` instead.

    The stopping test is ``max |ΔU| < tol`` across one map, checked after
    every map that starts from a map's output — every map but the
    stabilizing map from an extrapolated ``U′``, whose small move need
    not carry over to the next map. A converged solve returns that last
    map's input, with the model ``M(U)`` the map computed, so one more
    map moves the returned ``U`` by less than ``tol``; a solve that
    converges on its first map returns that map's output instead. A
    solve that hits ``max_iter`` returns the newest map output. The
    returned ``U`` is thus always a map's output, never ``U′``, and its
    confusions and priors are ``M(U)``. ``n_iterations`` counts maps,
    the stabilizing and rejected ones included.

    Returns the result and the loop's tallies: how many extrapolations
    ran, how many of them the likelihood guard rejected, and the last
    tested ``max |ΔU|``.
    """
    assignment = np.array(initial_assignment, dtype=np.float64, copy=True)
    clamp_validated(assignment, em_map.validated_objects,
                    em_map.validated_labels)
    # Residual, curvature and extrapolation buffers, reused every cycle.
    first, second, scratch = (np.empty_like(assignment) for _ in range(3))
    step_max = 1.0
    iterations = extrapolations = rejections = 0
    model = None  # M(assignment), when the returned U is a map's input
    while True:
        start = assignment
        one, start_model, start_parts = em_map(start)
        iterations += 1
        delta = _max_abs(np.subtract(one, start, out=first))
        if delta < tol and iterations > 1:
            model = start_model
            break
        if delta < tol or iterations == max_iter:
            assignment = one
            break
        two, one_model, _ = em_map(one)
        iterations += 1
        delta = _max_abs(np.subtract(two, one, out=second))
        if delta < tol:
            assignment, model = one, one_model
            break
        if iterations == max_iter:
            assignment = two
            break
        curvature = np.subtract(second, first, out=second)
        alpha = _step_length(first, curvature, step_max, scratch)
        if alpha == 1.0:
            extrapolated = two
        else:
            extrapolated = _extrapolate(start, first, curvature, alpha,
                                        em_map, out=scratch)
            extrapolations += 1
        three, extrapolated_model, parts = em_map(extrapolated)
        iterations += 1
        if alpha > 1.0 and not (em_map.log_likelihood(parts)
                                >= em_map.log_likelihood(start_parts)
                                - LIKELIHOOD_SLACK):
            rejections += 1
            step_max = max(1.0, step_max / STEP_FACTOR)
            assignment = two
        else:
            if alpha == step_max:
                step_max *= STEP_FACTOR
            assignment = three
            if alpha == 1.0:
                delta = _max_abs(np.subtract(three, two, out=first))
                if delta < tol:
                    assignment, model = two, extrapolated_model
                    break
        if iterations == max_iter:
            break
    confusions, priors = model if model is not None else (
        em_map.m_step(assignment), estimate_priors(assignment))
    result = EMResult(assignment=assignment, confusions=confusions,
                      priors=priors, n_iterations=iterations,
                      converged=delta < tol)
    return result, {"extrapolations": extrapolations,
                    "rejections": rejections, "final_delta": delta}


def _max_abs(values: np.ndarray) -> float:
    """``max |values|`` without an ``abs`` temporary (0.0 when empty)."""
    if not values.size:
        return 0.0
    return float(max(values.max(), -values.min()))


def _step_length(residual: np.ndarray, curvature: np.ndarray,
                 step_max: float, scratch: np.ndarray) -> float:
    """SqS3 step ``max(1, ‖r‖/‖v‖)``, capped at ``step_max``."""
    residual_sq = float(np.multiply(residual, residual, out=scratch).sum())
    curvature_sq = float(np.multiply(curvature, curvature,
                                     out=scratch).sum())
    if residual_sq == 0.0:
        return 1.0
    if curvature_sq == 0.0:
        return step_max
    return min(step_max, max(1.0, float(np.sqrt(residual_sq
                                                 / curvature_sq))))


def _extrapolate(start: np.ndarray, residual: np.ndarray,
                 curvature: np.ndarray, alpha: float, em_map: EMMap,
                 out: np.ndarray) -> np.ndarray:
    """``U0 + 2α·r + α²·v`` projected back onto the row simplex.

    Consumes ``curvature`` (it is scaled in place).
    """
    np.multiply(residual, 2.0 * alpha, out=out)
    out += start
    out += np.multiply(curvature, alpha * alpha, out=curvature)
    out[out < FLUSH_BELOW] = 0.0
    _divide_by_row_totals([out[:, label] for label in range(out.shape[1])])
    return clamp_validated(out, em_map.validated_objects,
                           em_map.validated_labels)


def run_em(encoded: EncodedAnswers,
           initial_assignment: np.ndarray,
           validated_objects: np.ndarray | None = None,
           validated_labels: np.ndarray | None = None,
           *,
           max_iter: int = DEFAULT_MAX_ITER,
           tol: float = DEFAULT_TOL,
           smoothing: float = DEFAULT_SMOOTHING,
           kernel: ShardedKernel | None = None,
           telemetry=NULL_TELEMETRY) -> EMResult:
    """Run EM to convergence from an initial soft assignment.

    The loop is :func:`squarem`: squared extrapolation over ``U`` with a
    likelihood guard, which reaches the plain loop's fixed points in
    far fewer E/M maps. ``tests/reference.py`` drives the same loop over
    its ``np.add.at`` scatters, and keeps the plain loop as the
    fixed-point oracle.

    Parameters
    ----------
    encoded:
        Flattened answers (see :func:`encode_answers`); its memoized
        :func:`kernel_plan` drives both scatters.
    initial_assignment:
        ``n × m`` starting value of ``U``; not mutated.
    validated_objects, validated_labels:
        Parallel arrays of expert-validated object indices and their labels.
        Their rows are clamped to one-hot before every M-step, making the
        expert input ground truth for worker-reliability estimation.
    max_iter, tol, smoothing:
        Cap on E/M maps, convergence tolerance on ``max |ΔU|`` across one
        map, and M-step pseudo-count.
    kernel:
        Opt-in shard-parallel M-step: a
        :class:`repro.parallel.sharded_kernel.ShardedKernel` built over
        this same encoding. The caller builds and closes it. The shard
        reduction is deterministic and bit-for-bit equal to the serial
        path (``tests/test_scale_kernel.py`` pins it).
    telemetry:
        A :class:`repro.telemetry.Telemetry` hub (or spawn scope). One
        ``em.run`` span wraps the whole call — never the inner E/M
        loop — tagged with the parallelism, the map count, convergence,
        the final ``max |ΔU|``, and how many extrapolations ran and how
        many the guard rejected. Disabled (the default) this costs a
        handful of no-op calls.

    Returns
    -------
    EMResult
        Final assignment, confusion matrices, priors, and map count.
    """
    if validated_objects is None:
        validated_objects = np.empty(0, dtype=np.int64)
    if validated_labels is None:
        validated_labels = np.empty(0, dtype=np.int64)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if kernel is not None and kernel.encoded is not encoded:
        raise ValueError(
            "the ShardedKernel was built for a different encoding")

    def _m_step(current: np.ndarray) -> np.ndarray:
        if kernel is not None:
            return kernel.m_step(current, smoothing)
        return m_step(encoded, current, smoothing)

    em_map = EMMap(_m_step,
                   lambda log_confusions: scatter_log_likelihood(
                       encoded, log_confusions),
                   validated_objects, validated_labels)
    # One span per EM call; the E/M inner loop stays instrumentation-free.
    with telemetry.span(
            "em.run", parallel=kernel is not None,
            n_objects=encoded.n_objects, n_workers=encoded.n_workers,
            n_labels=encoded.n_labels, n_answers=encoded.n_answers,
            n_validated=int(validated_objects.size)) as span:
        result, tallies = squarem(em_map, initial_assignment,
                                  max_iter=max_iter, tol=tol)
        span.set("n_iterations", result.n_iterations)
        span.set("converged", result.converged)
        for name, value in tallies.items():
            span.set(name, value)
    telemetry.counter("em.calls").inc()
    telemetry.counter("em.iterations").inc(result.n_iterations)
    return result
