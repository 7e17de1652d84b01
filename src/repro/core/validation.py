"""The expert answer-validation function ``e : O -> L ∪ {⊥}`` (paper §3.1).

An :class:`ExpertValidation` records, per object, the label asserted by the
validating expert — or ⊥ (:data:`~repro.core.answer_set.MISSING`) while the
object is still unvalidated. It is the growing ground truth that drives both
the i-EM clamping (Eq. 4) and the validated-only confusion matrices used for
spammer detection (§5.3).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.answer_set import MISSING, AnswerSet
from repro.errors import InvalidValidationError


class ExpertValidation:
    """Mutable mapping from object indices to expert-asserted label codes.

    Parameters
    ----------
    n_objects:
        Number of objects in the underlying answer set.
    n_labels:
        Size of the label vocabulary (used to range-check assertions).
    """

    __slots__ = ("_assigned", "_n_labels")

    def __init__(self, n_objects: int, n_labels: int) -> None:
        if n_objects < 0:
            raise InvalidValidationError(f"n_objects must be >= 0, got {n_objects}")
        if n_labels < 1:
            raise InvalidValidationError(f"n_labels must be >= 1, got {n_labels}")
        self._assigned = np.full(n_objects, MISSING, dtype=np.int64)
        self._n_labels = int(n_labels)

    @classmethod
    def empty_for(cls, answer_set: AnswerSet) -> "ExpertValidation":
        """The all-⊥ validation ``e0`` for an answer set (Algorithm 1, line 1)."""
        return cls(answer_set.n_objects, answer_set.n_labels)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int],
                     n_objects: int, n_labels: int) -> "ExpertValidation":
        """Build a validation from an ``{object index: label code}`` mapping."""
        validation = cls(n_objects, n_labels)
        for obj, label in mapping.items():
            validation.assign(obj, label)
        return validation

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return int(self._assigned.size)

    @property
    def n_labels(self) -> int:
        return self._n_labels

    @property
    def count(self) -> int:
        """Number of validated objects (expert inputs received so far)."""
        return int(np.count_nonzero(self._assigned != MISSING))

    def ratio(self) -> float:
        """Fraction of objects validated — the ``f_i`` of Eq. 15."""
        if self._assigned.size == 0:
            return 0.0
        return self.count / self._assigned.size

    def label_of(self, obj: int) -> int:
        """The expert's label code for ``obj``, or ⊥ (:data:`MISSING`)."""
        return int(self._assigned[obj])

    def is_validated(self, obj: int) -> bool:
        return self._assigned[obj] != MISSING

    def validated_indices(self) -> np.ndarray:
        """Indices of objects the expert has validated, ascending."""
        return np.flatnonzero(self._assigned != MISSING)

    def unvalidated_indices(self) -> np.ndarray:
        """Indices of objects still awaiting expert input, ascending."""
        return np.flatnonzero(self._assigned == MISSING)

    def validated_labels(self) -> np.ndarray:
        """Expert label codes aligned with :meth:`validated_indices`."""
        return self._assigned[self._assigned != MISSING]

    def as_array(self) -> np.ndarray:
        """Copy of the full length-``n`` vector (⊥ encoded as ``-1``)."""
        return np.array(self._assigned, copy=True)

    def as_dict(self) -> dict[int, int]:
        """Validated entries as an ``{object index: label code}`` dict."""
        idx = self.validated_indices()
        return {int(i): int(self._assigned[i]) for i in idx}

    # ------------------------------------------------------------------
    def assign(self, obj: int, label: int, *, overwrite: bool = False) -> None:
        """Record expert input: object ``obj`` has correct label ``label``.

        Re-validating an object with a different label is rejected unless
        ``overwrite=True`` (used when an expert reconsiders input flagged by
        the confirmation check of §5.5).
        """
        obj = int(obj)
        label = int(label)
        self.check(obj, label, overwrite=overwrite)
        self._assigned[obj] = label

    def check(self, obj: int, label: int, *, overwrite: bool = False,
              grow: bool = False) -> None:
        """Raise what :meth:`assign` would, without assigning. ``grow=True``
        admits an object past the end (the caller grows first)."""
        size = self._assigned.size
        if obj < 0 or (obj >= size and not grow):
            raise InvalidValidationError(
                f"object index {obj} outside [0, {size})")
        if not 0 <= label < self._n_labels:
            raise InvalidValidationError(
                f"label code {label} outside [0, {self._n_labels})")
        current = self._assigned[obj] if obj < size else MISSING
        if current != MISSING and current != label and not overwrite:
            raise InvalidValidationError(
                f"object {obj} already validated with label {int(current)}; "
                "pass overwrite=True to change it")

    def retract(self, obj: int) -> None:
        """Remove the expert input for ``obj`` (used by the leave-one-out
        confirmation check, §5.5)."""
        self._assigned[int(obj)] = MISSING

    def copy(self) -> "ExpertValidation":
        clone = ExpertValidation(self.n_objects, self._n_labels)
        clone._assigned = np.array(self._assigned, copy=True)
        return clone

    def read_only(self) -> "ExpertValidation":
        """A live view that refuses writes.

        The view shares this validation's array, so it sees every later
        :meth:`assign` and :meth:`retract` made here; its own ``assign``
        and ``retract`` raise :class:`~repro.errors.InvalidValidationError`.
        Its copies (:meth:`copy`, :meth:`without`, :meth:`with_assignment`)
        are ordinary, writable validations.
        """
        view = object.__new__(_ReadOnlyValidation)
        view._assigned = self._assigned
        view._n_labels = self._n_labels
        return view

    def without(self, objs: int | Iterable[int]) -> "ExpertValidation":
        """Copy of this validation with input for ``objs`` removed."""
        clone = self.copy()
        if isinstance(objs, (int, np.integer)):
            objs = [int(objs)]
        for obj in objs:
            clone.retract(obj)
        return clone

    def with_assignment(self, obj: int, label: int) -> "ExpertValidation":
        """Copy with one additional (hypothetical) validation.

        This is the ``e'`` of Eq. 8: the look-ahead used by information-gain
        guidance to evaluate "what if the expert said label ``l`` for ``o``".
        """
        clone = self.copy()
        clone.assign(obj, label, overwrite=True)
        return clone

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpertValidation):
            return NotImplemented
        return (self._n_labels == other._n_labels
                and bool(np.array_equal(self._assigned, other._assigned)))

    def __repr__(self) -> str:
        return (f"ExpertValidation(validated={self.count}/"
                f"{self.n_objects})")


class _ReadOnlyValidation(ExpertValidation):
    """The view :meth:`ExpertValidation.read_only` returns."""

    __slots__ = ()

    def assign(self, obj: int, label: int, *, overwrite: bool = False) -> None:
        self._refuse()

    def retract(self, obj: int) -> None:
        self._refuse()

    @staticmethod
    def _refuse() -> None:
        raise InvalidValidationError(
            "this validation is a read-only view; change it through its "
            "owner (ValidationSession.add_validation / retract_validation)")
