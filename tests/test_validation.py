"""Unit tests for the expert-validation function."""

from __future__ import annotations

import pytest

from repro.core.answer_set import MISSING
from repro.core.validation import ExpertValidation
from repro.errors import InvalidValidationError


class TestConstruction:
    def test_empty_for_answer_set(self, table1_answer_set):
        validation = ExpertValidation.empty_for(table1_answer_set)
        assert validation.n_objects == 4
        assert validation.count == 0
        assert validation.ratio() == 0.0

    def test_from_mapping(self):
        validation = ExpertValidation.from_mapping({0: 1, 2: 0}, 4, 2)
        assert validation.count == 2
        assert validation.label_of(0) == 1
        assert validation.label_of(1) == MISSING

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(InvalidValidationError):
            ExpertValidation(-1, 2)
        with pytest.raises(InvalidValidationError):
            ExpertValidation(3, 0)

    def test_zero_objects_allowed(self):
        validation = ExpertValidation(0, 2)
        assert validation.ratio() == 0.0
        assert validation.validated_indices().size == 0


class TestAssign:
    def test_assign_and_query(self):
        validation = ExpertValidation(5, 3)
        validation.assign(2, 1)
        assert validation.is_validated(2)
        assert not validation.is_validated(0)
        assert validation.label_of(2) == 1
        assert validation.validated_indices().tolist() == [2]
        assert validation.unvalidated_indices().tolist() == [0, 1, 3, 4]
        assert validation.validated_labels().tolist() == [1]

    def test_out_of_range_rejected(self):
        validation = ExpertValidation(3, 2)
        with pytest.raises(InvalidValidationError, match="object index"):
            validation.assign(3, 0)
        with pytest.raises(InvalidValidationError, match="label code"):
            validation.assign(0, 2)
        with pytest.raises(InvalidValidationError, match="label code"):
            validation.assign(0, -1)

    def test_conflicting_reassign_needs_overwrite(self):
        validation = ExpertValidation(3, 2)
        validation.assign(0, 1)
        with pytest.raises(InvalidValidationError, match="already validated"):
            validation.assign(0, 0)
        validation.assign(0, 1)  # same label is fine
        validation.assign(0, 0, overwrite=True)
        assert validation.label_of(0) == 0

    def test_retract(self):
        validation = ExpertValidation(3, 2)
        validation.assign(1, 0)
        validation.retract(1)
        assert not validation.is_validated(1)
        assert validation.count == 0


class TestCopies:
    def test_copy_is_independent(self):
        validation = ExpertValidation(3, 2)
        validation.assign(0, 1)
        clone = validation.copy()
        clone.assign(1, 0)
        assert validation.count == 1
        assert clone.count == 2
        assert clone == ExpertValidation.from_mapping({0: 1, 1: 0}, 3, 2)

    def test_without_removes_entries(self):
        validation = ExpertValidation.from_mapping({0: 1, 1: 0, 2: 1}, 3, 2)
        reduced = validation.without([0, 2])
        assert reduced.count == 1
        assert validation.count == 3
        single = validation.without(1)
        assert single.count == 2

    def test_with_assignment_hypothetical(self):
        validation = ExpertValidation(3, 2)
        hypo = validation.with_assignment(1, 1)
        assert hypo.label_of(1) == 1
        assert validation.count == 0

    def test_as_dict_and_array(self):
        validation = ExpertValidation.from_mapping({2: 0}, 3, 2)
        assert validation.as_dict() == {2: 0}
        array = validation.as_array()
        assert array.tolist() == [MISSING, MISSING, 0]
        array[0] = 1  # copies are safe to mutate
        assert not validation.is_validated(0)

    def test_ratio(self):
        validation = ExpertValidation(4, 2)
        validation.assign(0, 0)
        validation.assign(1, 1)
        assert validation.ratio() == pytest.approx(0.5)

    def test_equality(self):
        a = ExpertValidation.from_mapping({0: 1}, 3, 2)
        b = ExpertValidation.from_mapping({0: 1}, 3, 2)
        c = ExpertValidation.from_mapping({0: 0}, 3, 2)
        assert a == b
        assert a != c

    def test_repr(self):
        validation = ExpertValidation.from_mapping({0: 1}, 3, 2)
        assert "1/3" in repr(validation)
