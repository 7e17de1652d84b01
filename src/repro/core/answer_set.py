"""The answer-set data model (paper §3.1).

An answer set is the quadruple ``N = <O, W, L, M>``: objects, workers,
labels, and an ``n × k`` answer matrix whose cells hold the label a worker
assigned to an object, or the special label ⊥ when the worker did not answer.
Internally labels are integer-coded and ⊥ is :data:`MISSING` (``-1``); the
public vocabularies (object, worker, and label names) are kept on the answer
set so callers never need to deal with codes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import InvalidAnswerSetError
from repro.utils.checks import check_unique

#: Integer code of the special ⊥ label ("worker did not answer").
MISSING: int = -1


def _names(prefix: str, count: int) -> tuple[str, ...]:
    """Generate default names like ``o1 .. o<count>``."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


class AnswerSet:
    """Immutable collection of crowd answers.

    Parameters
    ----------
    matrix:
        ``n × k`` integer array. Entry ``(i, j)`` is the label code worker
        ``j`` assigned to object ``i``; :data:`MISSING` when unanswered.
    labels:
        Label vocabulary. Codes in ``matrix`` index into this tuple.
    objects, workers:
        Optional object/worker names; defaults are ``o1..on`` / ``w1..wk``.

    Notes
    -----
    Instances are treated as immutable: the matrix is copied on construction
    and marked read-only. Transformations (:meth:`mask_workers`,
    :meth:`subset_objects`, :meth:`with_answers`) return new instances.
    That is what lets :func:`repro.core.em_kernel.encode_answers` memoize
    its flat encoding on the instance.
    """

    __slots__ = ("_matrix", "_labels", "_objects", "_workers", "_encoded")

    def __init__(self,
                 matrix: np.ndarray | Sequence[Sequence[int]],
                 labels: Sequence[str],
                 objects: Sequence[str] | None = None,
                 workers: Sequence[str] | None = None) -> None:
        arr = np.array(matrix, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise InvalidAnswerSetError(
                f"answer matrix must be 2-D, got shape {arr.shape}")
        n, k = arr.shape
        label_tuple = tuple(str(lab) for lab in labels)
        if len(label_tuple) < 1:
            raise InvalidAnswerSetError("an answer set needs at least one label")
        check_unique(label_tuple, "labels")
        if arr.size and (arr.min() < MISSING or arr.max() >= len(label_tuple)):
            raise InvalidAnswerSetError(
                "answer matrix contains codes outside "
                f"[-1, {len(label_tuple)}): min={arr.min()}, max={arr.max()}")

        object_tuple = (_names("o", n) if objects is None
                        else tuple(str(o) for o in objects))
        worker_tuple = (_names("w", k) if workers is None
                        else tuple(str(w) for w in workers))
        if len(object_tuple) != n:
            raise InvalidAnswerSetError(
                f"{len(object_tuple)} object names for {n} matrix rows")
        if len(worker_tuple) != k:
            raise InvalidAnswerSetError(
                f"{len(worker_tuple)} worker names for {k} matrix columns")
        check_unique(object_tuple, "objects")
        check_unique(worker_tuple, "workers")

        arr.setflags(write=False)
        self._matrix = arr
        self._labels = label_tuple
        self._objects = object_tuple
        self._workers = worker_tuple
        self._encoded = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(cls,
                     triples: Iterable[tuple[str, str, str]],
                     labels: Sequence[str] | None = None,
                     objects: Sequence[str] | None = None,
                     workers: Sequence[str] | None = None) -> "AnswerSet":
        """Build an answer set from ``(object, worker, label)`` triples.

        Vocabularies default to first-appearance order over the triples; pass
        explicit ``labels``/``objects``/``workers`` to fix an order (useful
        when a gold standard uses labels nobody voted for). A duplicate
        (object, worker) pair with a conflicting label is an error; an exact
        duplicate triple is tolerated.
        """
        triple_list = [(str(o), str(w), str(lab)) for o, w, lab in triples]

        def vocab(given: Sequence[str] | None, position: int) -> list[str]:
            if given is not None:
                return [str(x) for x in given]
            seen: list[str] = []
            index: set[str] = set()
            for triple in triple_list:
                value = triple[position]
                if value not in index:
                    index.add(value)
                    seen.append(value)
            return seen

        object_list = vocab(objects, 0)
        worker_list = vocab(workers, 1)
        label_list = vocab(labels, 2)
        if not label_list:
            raise InvalidAnswerSetError("no labels given and no triples to infer them from")
        obj_code = {name: i for i, name in enumerate(object_list)}
        wrk_code = {name: i for i, name in enumerate(worker_list)}
        lab_code = {name: i for i, name in enumerate(label_list)}

        matrix = np.full((len(object_list), len(worker_list)), MISSING, dtype=np.int64)
        for obj, wrk, lab in triple_list:
            try:
                i, j, code = obj_code[obj], wrk_code[wrk], lab_code[lab]
            except KeyError as exc:
                raise InvalidAnswerSetError(
                    f"triple ({obj!r}, {wrk!r}, {lab!r}) uses a name outside "
                    "the provided vocabulary") from exc
            if matrix[i, j] != MISSING and matrix[i, j] != code:
                raise InvalidAnswerSetError(
                    f"conflicting answers from worker {wrk!r} for object {obj!r}: "
                    f"{label_list[matrix[i, j]]!r} vs {lab!r}")
            matrix[i, j] = code
        return cls(matrix, label_list, object_list, worker_list)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``n × k`` integer answer matrix."""
        return self._matrix

    @property
    def labels(self) -> tuple[str, ...]:
        """Label vocabulary ``L``."""
        return self._labels

    @property
    def objects(self) -> tuple[str, ...]:
        """Object names ``O``."""
        return self._objects

    @property
    def workers(self) -> tuple[str, ...]:
        """Worker names ``W``."""
        return self._workers

    @property
    def n_objects(self) -> int:
        return len(self._objects)

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def n_labels(self) -> int:
        return len(self._labels)

    @property
    def n_answers(self) -> int:
        """Number of non-missing cells in the matrix."""
        return int(np.count_nonzero(self._matrix != MISSING))

    @property
    def density(self) -> float:
        """Fraction of (object, worker) cells that hold an answer."""
        if self._matrix.size == 0:
            return 0.0
        return self.n_answers / self._matrix.size

    def answer(self, obj: int | str, worker: int | str) -> int:
        """Return the label code for ``M(o, w)`` (:data:`MISSING` if absent)."""
        return int(self._matrix[self.object_index(obj), self.worker_index(worker)])

    def object_index(self, obj: int | str) -> int:
        """Resolve an object name or index to an index."""
        if isinstance(obj, str):
            try:
                return self._objects.index(obj)
            except ValueError as exc:
                raise KeyError(f"unknown object {obj!r}") from exc
        return int(obj)

    def worker_index(self, worker: int | str) -> int:
        """Resolve a worker name or index to an index."""
        if isinstance(worker, str):
            try:
                return self._workers.index(worker)
            except ValueError as exc:
                raise KeyError(f"unknown worker {worker!r}") from exc
        return int(worker)

    def label_index(self, label: int | str) -> int:
        """Resolve a label name or code to a code."""
        if isinstance(label, str):
            try:
                return self._labels.index(label)
            except ValueError as exc:
                raise KeyError(f"unknown label {label!r}") from exc
        return int(label)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def answers_per_object(self) -> np.ndarray:
        """Number of answers received by each object (length ``n``)."""
        return np.count_nonzero(self._matrix != MISSING, axis=1)

    def answers_per_worker(self) -> np.ndarray:
        """Number of answers given by each worker (length ``k``)."""
        return np.count_nonzero(self._matrix != MISSING, axis=0)

    def label_histogram(self) -> np.ndarray:
        """Global count of each label over all answers (length ``m``)."""
        answered = self._matrix[self._matrix != MISSING]
        return np.bincount(answered, minlength=self.n_labels)

    def vote_counts(self) -> np.ndarray:
        """Per-object label vote counts as an ``n × m`` array."""
        counts = np.zeros((self.n_objects, self.n_labels), dtype=np.int64)
        rows, cols = np.nonzero(self._matrix != MISSING)
        np.add.at(counts, (rows, self._matrix[rows, cols]), 1)
        return counts

    # ------------------------------------------------------------------
    # Transformations (all return new instances)
    # ------------------------------------------------------------------
    def mask_workers(self, excluded: Iterable[int | str]) -> "AnswerSet":
        """Return a copy with the answers of ``excluded`` workers blanked.

        The workers stay in the vocabulary (their columns become all-⊥) so
        indices remain aligned — this is exactly the paper's handling of
        suspected faulty workers (§5.3): answers are excluded from
        aggregation but kept for later re-inclusion.
        """
        indices = sorted({self.worker_index(w) for w in excluded})
        if not indices:
            return self
        matrix = np.array(self._matrix, copy=True)
        matrix[:, indices] = MISSING
        return AnswerSet(matrix, self._labels, self._objects, self._workers)

    def subset_objects(self, indices: Sequence[int]) -> "AnswerSet":
        """Return an answer set restricted to the given object rows."""
        idx = [self.object_index(i) for i in indices]
        matrix = self._matrix[idx, :]
        objects = tuple(self._objects[i] for i in idx)
        return AnswerSet(matrix, self._labels, objects, self._workers)

    def with_answers(self,
                     triples: Iterable[tuple[int | str, int | str, int | str]],
                     ) -> "AnswerSet":
        """Return a copy with extra ``(object, worker, label)`` answers added.

        Overwrites are rejected: a new answer for an already-answered cell
        raises :class:`~repro.errors.InvalidAnswerSetError`. Used by the cost
        model's WO strategy when buying additional crowd answers.
        """
        matrix = np.array(self._matrix, copy=True)
        for obj, wrk, lab in triples:
            i = self.object_index(obj)
            j = self.worker_index(wrk)
            code = self.label_index(lab)
            if matrix[i, j] != MISSING:
                raise InvalidAnswerSetError(
                    f"cell ({self._objects[i]!r}, {self._workers[j]!r}) "
                    "already holds an answer")
            matrix[i, j] = code
        return AnswerSet(matrix, self._labels, self._objects, self._workers)

    def with_worker(self, name: str,
                    answers: dict[int | str, int | str]) -> "AnswerSet":
        """Return a copy with one additional worker column.

        Used by the *Combined* strategy of §6.3 where expert input is modeled
        as just another crowd worker.
        """
        if name in self._workers:
            raise InvalidAnswerSetError(f"worker {name!r} already exists")
        column = np.full((self.n_objects, 1), MISSING, dtype=np.int64)
        for obj, lab in answers.items():
            column[self.object_index(obj), 0] = self.label_index(lab)
        matrix = np.hstack([self._matrix, column])
        return AnswerSet(matrix, self._labels, self._objects,
                         self._workers + (name,))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnswerSet):
            return NotImplemented
        return (self._labels == other._labels
                and self._objects == other._objects
                and self._workers == other._workers
                and bool(np.array_equal(self._matrix, other._matrix)))

    def __hash__(self) -> int:
        return hash((self._labels, self._objects, self._workers,
                     self._matrix.tobytes()))

    def __getstate__(self) -> tuple[None, dict]:
        # The memoized encoding (see encode_answers) is derived data, as
        # large as the answers themselves; never ship it.
        return None, {"_matrix": self._matrix, "_labels": self._labels,
                      "_objects": self._objects, "_workers": self._workers,
                      "_encoded": None}

    def __repr__(self) -> str:
        return (f"AnswerSet(n_objects={self.n_objects}, "
                f"n_workers={self.n_workers}, n_labels={self.n_labels}, "
                f"n_answers={self.n_answers})")
