"""Vectorized expectation-maximization kernel (paper §4.1, Eq. 1–5).

Full answer-set solves reach this kernel through one method,
:meth:`repro.core.iem.IncrementalEM.refine`: batch EM, i-EM and the
streaming session differ only in where it starts (a random, majority or
uniform estimate, or a previous model). The exact look-ahead calls
:func:`run_em` directly on its hypothetical problems; the local
look-ahead runs :func:`squarem` over an :class:`EMMap` whose
model adds the evidence held fixed outside its block.

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

import numpy as np
from scipy import sparse

from repro.core.answer_set import MISSING, AnswerSet, code_dtype
from repro.core.confusion import PROB_FLOOR, normalize_rows
from repro.errors import InvalidAnswerSetError
from repro.telemetry import NULL_TELEMETRY

#: Default Laplace-style smoothing added to confusion counts in the M-step.
DEFAULT_SMOOTHING = 0.01

#: Default convergence tolerance on ``max |ΔU|`` across one E/M map.
DEFAULT_TOL = 1e-4

#: Default cap on E/M maps per EM run.
DEFAULT_MAX_ITER = 100

#: Largest value an ``int32`` index may take; the width-adaptive dtype
#: machinery narrows every index array whose *flat* bound stays under it.
INT32_BOUND = int(np.iinfo(np.int32).max)

#: Matrix cells :func:`encode_answers` masks at a time (one row block).
ENCODE_BLOCK_CELLS = 1 << 20


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

    The matrix is scanned in row blocks of about
    :data:`ENCODE_BLOCK_CELLS` cells, so the scan's temporaries are one
    block's mask and the block's answers. A whole-matrix ``!= MISSING``
    mask would be a second ``n·k``-byte array beside the int8 storage.
    """
    encoded = answer_set._encoded
    if encoded is None:
        matrix = answer_set.matrix
        n, k, m = answer_set.n_objects, answer_set.n_workers, \
            answer_set.n_labels
        dims = index_dtype(n, k, m)
        rows = max(1, ENCODE_BLOCK_CELLS // max(k, 1))
        parts: tuple[list, list, list] = ([], [], [])
        for start in range(0, max(n, 1), rows):
            block = matrix[start:start + rows].ravel()
            flat = np.flatnonzero(block != MISSING)
            obj, wrk = np.divmod(flat, k)
            for part, values in zip(parts, (obj + start, wrk, block[flat])):
                part.append(values.astype(dims))
        dtype = index_dtype(n, k, m, sum(map(len, parts[0])))
        object_index, worker_index, label_index = (
            np.concatenate(part, dtype=dtype) for part in parts)
        encoded = EncodedAnswers(
            n_objects=n, n_workers=k, n_labels=m,
            object_index=object_index, worker_index=worker_index,
            label_index=label_index)
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


def kernel_plan(encoded: EncodedAnswers,
                telemetry=NULL_TELEMETRY) -> KernelPlan:
    """The (memoized) :class:`KernelPlan` for an encoding.

    The plan is cached on the ``EncodedAnswers`` instance, so repeated
    ``run_em`` calls over the same encoding — warm-started look-aheads,
    streaming refinements, block solves — pay the operator construction
    once. The encoding must be object-sorted, as both construction paths
    emit it: the operators' answer order is the encoding's. A build runs
    in a ``plan.build`` span on ``telemetry``; a memo hit emits nothing.
    """
    plan = encoded.__dict__.get("_kernel_plan")
    if plan is not None:
        return plan
    with telemetry.span("plan.build", n_answers=encoded.n_answers):
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
    partitioner's block split), the kernel plan, and the session read
    paths live here, built **once per encoding epoch** and memoized on
    the encoding itself via :func:`csr_view`:

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
    instance, so the guidance look-aheads, the partitioner and the
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

    The shared seam of every block-scoped read: the localized look-ahead
    of :class:`repro.guidance.information_gain.InformationGainStrategy`
    re-solves an object neighborhood over its own answers, and
    :class:`repro.partitioning.MatrixPartitioner` splits a component's
    answers with it.

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

    The block's answer positions are gathered by :func:`object_positions`
    — ``O(block answers)``, never an ``O(A)`` scan — so the sub-encoding
    is object-sorted like its parent.

    Returns
    -------
    (sub_encoding, workers)
        The block's encoding under local (positional) object/worker
        indices, and the worker index set actually used.
    """
    objects = np.asarray(objects, dtype=np.int64)
    positions, counts = object_positions(encoded, objects)
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


def object_positions(encoded: EncodedAnswers,
                     objects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Answer positions of ``objects``, and how many each object has.

    The positions run object after object, in the order given, each
    object's answers in encoding order. They are gathered segment by
    segment from the memoized :func:`csr_view` ``object_starts``:
    ``O(len(objects) + their answers)``.
    """
    objects = np.asarray(objects, dtype=np.int64)
    object_starts = csr_view(encoded).object_starts
    counts = object_starts[objects + 1] - object_starts[objects]
    return np.repeat(object_starts[objects], counts) + _ranges(counts), counts


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
    ``AnswerStats`` maintains the same flat encoding as an append-only log,
    so streaming callers (:class:`repro.streaming.ValidationSession`) pay
    ``O(1)`` amortized per ingested answer:

    * the ``(object, worker, label)`` triple log (geometrically grown);
    * an ``(object, worker) → label`` cell map for duplicate and conflict
      checks (:meth:`label_of`), built from the log at the first lookup or
      single append: a session seeded in bulk and never asked about a
      cell (the guided path) holds the log alone;
    * a masked-worker set (the §5.3 faulty-worker exclusion) applied at
      encoding time instead of by copying matrix columns;
    * the cached encoding of the current version (:meth:`encoded`).

    There is no per-object or per-worker index: the one query that needs
    one, :meth:`objects_of_workers`, runs at a mask toggle, which already
    rebuilds the encoding, and scans the log once.

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
                 "_cells", "_masked",
                 "_encoded_cache", "_version", "telemetry")

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
        #: (object, worker) -> label, for duplicate/conflict detection;
        #: None until :meth:`_cell_map` builds it from the log.
        self._cells: dict[tuple[int, int], int] | None = None
        self._masked: frozenset[int] = frozenset()
        self._encoded_cache: EncodedAnswers | None = None
        self._version = 0
        #: Hub that receives an ``encode`` span per rebuild of
        #: :meth:`encoded`; the owning session attaches its own.
        self.telemetry = NULL_TELEMETRY

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
        return self._cell_map().get((int(obj), int(worker)), MISSING)

    def objects_of_workers(self, workers) -> np.ndarray:
        """Unique objects any of ``workers`` answered (ascending).

        Masked answers count. One ``np.isin`` pass over the log, however
        many workers are asked for.
        """
        n = self._n_answers
        hit = np.isin(self._wrk[:n], np.fromiter(workers, dtype=np.int64))
        return np.unique(self._obj[:n][hit])

    def answer_log(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(objects, workers, labels)`` in exact insertion order (copies).

        The raw append-only triple log — masked workers' answers included —
        which is the complete mutable input of the statistics: replaying it
        through :meth:`add_answers` into a fresh instance of the same
        dimensions rebuilds the statistics bit-for-bit. This is the
        serialization surface used by :mod:`repro.state`.
        """
        n = self._n_answers
        return (self._obj[:n].copy(), self._wrk[:n].copy(),
                self._lab[:n].copy())

    # ------------------------------------------------------------------
    def grow(self, n_objects: int | None = None,
             n_workers: int | None = None) -> None:
        """Extend the object/worker dimensions (streams may introduce both).

        Shrinking either axis raises ``ValueError`` (:meth:`check_grow`)
        and changes neither.
        """
        self.check_grow(n_objects, n_workers)
        grown = (self._n_objects if n_objects is None else int(n_objects),
                 self._n_workers if n_workers is None else int(n_workers))
        if grown != (self._n_objects, self._n_workers):
            self._n_objects, self._n_workers = grown
            self._bump()
        self._maybe_widen()

    def check_grow(self, n_objects: int | None = None,
                   n_workers: int | None = None) -> None:
        """Raise what :meth:`grow` would, without growing."""
        for name, size, current in (("n_objects", n_objects, self._n_objects),
                                    ("n_workers", n_workers, self._n_workers)):
            if size is not None and int(size) < current:
                raise ValueError(
                    f"cannot shrink {name} from {current} to {size}")

    def check_answer(self, obj: int, worker: int, label: int, *,
                     grow: bool = False, conflicts: bool = True) -> int:
        """Raise what :meth:`add_answer` would, without adding; return the
        cell's current label (:data:`MISSING` when unanswered).

        ``grow=True`` admits indices past the dimensions (the caller grows
        first); ``conflicts=False`` admits a label conflicting with the
        cell's.
        """
        if obj < 0 or (obj >= self._n_objects and not grow):
            raise InvalidAnswerSetError(
                f"object index {obj} outside [0, {self._n_objects})")
        if worker < 0 or (worker >= self._n_workers and not grow):
            raise InvalidAnswerSetError(
                f"worker index {worker} outside [0, {self._n_workers})")
        if not 0 <= label < self._n_labels:
            raise InvalidAnswerSetError(
                f"label code {label} outside [0, {self._n_labels})")
        current = self._cell_map().get((obj, worker), MISSING)
        if conflicts and current != MISSING and current != label:
            raise InvalidAnswerSetError(
                f"cell ({obj}, {worker}) already holds label {current}; "
                f"conflicting re-answer {label} rejected")
        return current

    def add_answer(self, obj: int, worker: int, label: int) -> bool:
        """Ingest one answer; returns ``False`` for an exact duplicate.

        A conflicting re-answer for an already-answered cell raises
        :class:`~repro.errors.InvalidAnswerSetError`, matching the batch
        :meth:`~repro.core.answer_set.AnswerSet.from_triples` contract.
        """
        obj, worker, label = int(obj), int(worker), int(label)
        if self.check_answer(obj, worker, label) == label:
            return False  # an exact duplicate
        position = self._n_answers
        if position == self._obj.size:
            self._reserve(position + 1)
        self._obj[position] = obj
        self._wrk[position] = worker
        self._lab[position] = label
        self._n_answers += 1
        self._cells[(obj, worker)] = label
        self._bump()
        return True

    def add_answers(self,
                    objects: np.ndarray,
                    workers: np.ndarray,
                    labels: np.ndarray) -> int:
        """Ingest a batch of answers; returns how many were new.

        When the log is empty and the batch holds no duplicate cells (the
        bulk-seeding case of a session built from an answer set), the log
        is filled in one pass instead of per-answer calls, and the cell map
        waits for its first use. Signed integer arrays are read in their
        own type (an int32 encoding is not widened); other input is cast
        to int64.
        """
        objects, workers, labels = (
            array if array.dtype.kind == "i" else array.astype(np.int64)
            for array in (np.asarray(objects).ravel(),
                          np.asarray(workers).ravel(),
                          np.asarray(labels).ravel()))
        if objects.size and not self._n_answers \
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
        keys = objects.astype(np.int64)  # wide enough for obj·k + worker
        keys *= self._n_workers
        keys += workers
        # Strictly increasing keys (an encoding's order) hold no duplicate;
        # only another order pays for the hash-based check.
        if not (keys[1:] > keys[:-1]).all() \
                and np.unique(keys).size != keys.size:
            return False  # in-batch duplicates need per-answer semantics
        count = int(objects.size)
        if count > self._obj.size:
            self._reserve(count)
        self._obj[:count] = objects
        self._wrk[:count] = workers
        self._lab[:count] = labels
        self._n_answers = count
        self._cells = None
        self._bump()
        return True

    def seed(self, encoded: EncodedAnswers) -> None:
        """Fill an empty log from ``encoded`` and adopt it as :meth:`encoded`.

        ``encoded`` must have these dimensions and the ``(object, worker)``
        order :func:`encode_answers` emits, which is the order
        :meth:`encoded` would sort a rebuild into. Adopting it instead of
        rebuilding lets this statistics version share the caller's
        encoding, and with it the memoized :func:`kernel_plan` and
        :func:`csr_view`.
        """
        if self._n_answers or self._masked or (
                encoded.n_objects, encoded.n_workers, encoded.n_labels) != (
                self._n_objects, self._n_workers, self._n_labels):
            raise ValueError(
                f"cannot seed {self!r} from an encoding of "
                f"{encoded.n_objects}×{encoded.n_workers} "
                f"({encoded.n_labels} labels)")
        self.add_answers(encoded.object_index, encoded.worker_index,
                         encoded.label_index)
        self._encoded_cache = encoded

    def _cell_map(self) -> dict[tuple[int, int], int]:
        """The ``(object, worker) → label`` map, built from the log on
        first use and kept current by :meth:`add_answer` after that."""
        if self._cells is None:
            n = self._n_answers
            self._cells = dict(zip(zip(self._obj[:n].tolist(),
                                       self._wrk[:n].tolist()),
                                   self._lab[:n].tolist()))
        return self._cells

    def set_masked_workers(self, workers) -> frozenset[int]:
        """Replace the masked-worker set; returns the workers that toggled."""
        new_masked = frozenset(int(w) for w in workers)
        for worker in new_masked:
            if not 0 <= worker < self._n_workers:
                raise InvalidAnswerSetError(
                    f"worker index {worker} outside [0, {self._n_workers})")
        toggled = new_masked ^ self._masked
        if not toggled:
            return frozenset()
        self._masked = new_masked
        self._bump()
        return toggled

    # ------------------------------------------------------------------
    def encoded(self) -> EncodedAnswers:
        """The current (masked-filtered) flat encoding, cached per version.

        Sorted by ``(object, worker)`` so it is bit-for-bit identical to
        :func:`encode_answers` on the equivalent answer matrix. A rebuild
        runs in an ``encode`` span on :attr:`telemetry`.
        """
        if self._encoded_cache is not None:
            return self._encoded_cache
        with self.telemetry.span("encode", n_answers=self._n_answers,
                                 n_masked=len(self._masked)):
            obj = self._obj[:self._n_answers]
            wrk = self._wrk[:self._n_answers]
            lab = self._lab[:self._n_answers]
            if self._masked:
                keep = ~np.isin(wrk, np.fromiter(self._masked,
                                                 dtype=np.int64))
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

    def to_matrix(self, include_masked: bool = True) -> np.ndarray:
        """Materialize the ``n × k`` answer matrix (⊥ = :data:`MISSING`).

        The export adapter: nothing in a session's loop reads a matrix.
        The matrix has the answer-set storage type,
        :func:`~repro.core.answer_set.code_dtype`; wrap it in an
        :class:`~repro.core.answer_set.AnswerSet` to hand it to the batch
        drivers.
        """
        matrix = np.full((self._n_objects, self._n_workers), MISSING,
                         dtype=code_dtype(self._n_labels))
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


def label_mass(assignment: np.ndarray) -> np.ndarray:
    """Per-label mass ``Σ_o U(o, l)``, the numerator of Eq. 3.

    Each label column is summed on its own, by numpy's pairwise sum: with
    ``m ≪ n`` an axis-0 reduction runs one ``m``-long inner loop per
    object and costs several times more.
    """
    return np.array([assignment[:, label].sum()
                     for label in range(assignment.shape[1])])


def priors_from_mass(mass: np.ndarray, n_objects: int) -> np.ndarray:
    """Label priors ``p(l) = mass(l) / |O|`` (Eq. 3), floored and
    renormalized."""
    # Guard against all-mass-on-one-label degeneracies feeding log(0).
    clipped = np.clip(mass / n_objects, PROB_FLOOR, None)
    return clipped / clipped.sum()


def estimate_priors(assignment: np.ndarray) -> np.ndarray:
    """Label priors ``p(l) = Σ_o U(o, l) / |O|`` (Eq. 3)."""
    n, m = assignment.shape
    if n == 0:
        return np.full(m, 1.0 / m)
    return priors_from_mass(label_mass(assignment), n)


def cell_counts(encoded: EncodedAnswers,
                assignment: np.ndarray) -> np.ndarray:
    """The M-step counts of Eq. 5, ``cell_incidence @ U``.

    One sparse product with the encoding's memoized :func:`kernel_plan`,
    laid out ``[w·m + l, r]``: row ``w·m + l`` sums ``U(o, ·)`` over the
    answers of worker ``w`` with label ``l``.
    """
    k, m = encoded.n_workers, encoded.n_labels
    if not encoded.n_answers:
        return np.zeros((k * m, m))
    return kernel_plan(encoded).cell_incidence @ np.ascontiguousarray(
        assignment, dtype=np.float64)


def confusions_from_counts(counts: np.ndarray,
                           smoothing: float = DEFAULT_SMOOTHING,
                           ) -> np.ndarray:
    """Row-normalize :func:`cell_counts` into confusion matrices (Eq. 5).

    ``smoothing`` pseudo-counts are added to every cell; rows with no
    evidence become uniform. Transposing the ``[w·m + l, r]`` counts into
    a C-contiguous ``(k, m, m)`` stack ``counts[w, r, l]`` restores the
    memory layout an ``np.add.at`` scatter would normalize, so the row
    sums add in the same order.
    """
    m = counts.shape[1]
    stack = np.ascontiguousarray(counts.reshape(-1, m, m).transpose(0, 2, 1))
    if smoothing > 0:
        # Inline the normalize_rows smoothed branch: counts are sums of
        # non-negative probabilities and smoothing makes every row total
        # positive, so the validation scan and zero-row selects are dead
        # weight here. Same divisions, bit-for-bit identical result.
        smoothed = stack + smoothing
        return smoothed / smoothed.sum(axis=-1, keepdims=True)
    return normalize_rows(stack, smoothing=smoothing)


def m_step(encoded: EncodedAnswers,
           assignment: np.ndarray,
           smoothing: float = DEFAULT_SMOOTHING) -> np.ndarray:
    """Estimate worker confusion matrices from the soft assignment (Eq. 5).

    ``F_w(l', l) ∝ Σ_o U(o, l') · d_w(o, l)``: :func:`cell_counts`,
    normalized by :func:`confusions_from_counts`.
    """
    k, m = encoded.n_workers, encoded.n_labels
    if not encoded.n_answers:
        return normalize_rows(np.zeros((k, m, m)), smoothing=smoothing)
    return confusions_from_counts(cell_counts(encoded, assignment), smoothing)


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
    """One E/M map ``U ↦ clamp(E(M(U)))`` over a model and a scatter.

    ``model(U)`` returns ``M(U)``: the confusion matrices of Eq. 5 and
    the label priors of Eq. 3. ``scatter(log F)`` returns the per-object
    log-likelihood rows of Eq. 1. Besides the next ``U``, a map returns
    the model ``M(U)`` it started from and what the likelihood guard
    needs: each row's peak and exponentiated total from the E-step
    normalization, and the log-likelihood of each validated row's
    clamped label.
    """

    def __init__(self, model, scatter, validated_objects: np.ndarray,
                 validated_labels: np.ndarray) -> None:
        self.model = model
        self.scatter = scatter
        self.validated_objects = validated_objects
        self.validated_labels = validated_labels

    def __call__(self, assignment: np.ndarray,
                 ) -> tuple[np.ndarray, tuple, tuple]:
        objects, labels = self.validated_objects, self.validated_labels
        confusions, priors = self.model(assignment)
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
    confusions, priors = model if model is not None \
        else em_map.model(assignment)
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
    telemetry:
        A :class:`repro.telemetry.Telemetry` hub (or spawn scope). One
        ``em.run`` span wraps the whole call — never the inner E/M
        loop — tagged with the problem size, the map count, convergence,
        the final ``max |ΔU|``, and how many extrapolations ran and how
        many the guard rejected. A ``plan.build`` span precedes it when
        the encoding has no :func:`kernel_plan` yet. Disabled (the
        default) this costs a handful of no-op calls.

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

    kernel_plan(encoded, telemetry)
    em_map = EMMap(lambda assignment: (m_step(encoded, assignment, smoothing),
                                       estimate_priors(assignment)),
                   lambda log_confusions: scatter_log_likelihood(
                       encoded, log_confusions),
                   validated_objects, validated_labels)
    # One span per EM call; the E/M inner loop stays instrumentation-free.
    with telemetry.span(
            "em.run", n_objects=encoded.n_objects, n_workers=encoded.n_workers,
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
