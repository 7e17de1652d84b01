"""Unit tests for the answer-set data model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answer_set import MISSING, AnswerSet
from repro.errors import InvalidAnswerSetError


class TestConstruction:
    def test_basic_shape(self, table1_answer_set):
        assert table1_answer_set.n_objects == 4
        assert table1_answer_set.n_workers == 5
        assert table1_answer_set.n_labels == 4
        assert table1_answer_set.n_answers == 20

    def test_default_names(self, table1_answer_set):
        assert table1_answer_set.objects == ("o1", "o2", "o3", "o4")
        assert table1_answer_set.workers == ("w1", "w2", "w3", "w4", "w5")

    def test_matrix_is_read_only(self, table1_answer_set):
        with pytest.raises(ValueError):
            table1_answer_set.matrix[0, 0] = 3

    def test_matrix_is_copied(self):
        source = np.array([[0, 1], [1, 0]])
        answers = AnswerSet(source, labels=("a", "b"))
        source[0, 0] = 1
        assert answers.answer(0, 0) == 0

    def test_rejects_non_2d_matrix(self):
        with pytest.raises(InvalidAnswerSetError, match="2-D"):
            AnswerSet(np.zeros(3, dtype=int), labels=("a",))

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(InvalidAnswerSetError, match="codes outside"):
            AnswerSet(np.array([[5]]), labels=("a", "b"))
        with pytest.raises(InvalidAnswerSetError, match="codes outside"):
            AnswerSet(np.array([[-2]]), labels=("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnswerSet(np.array([[0]]), labels=("a", "a"))

    def test_rejects_duplicate_objects(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnswerSet(np.array([[0], [0]]), labels=("a",),
                      objects=("x", "x"))

    def test_rejects_wrong_name_counts(self):
        with pytest.raises(InvalidAnswerSetError, match="object names"):
            AnswerSet(np.array([[0]]), labels=("a",), objects=("x", "y"))
        with pytest.raises(InvalidAnswerSetError, match="worker names"):
            AnswerSet(np.array([[0]]), labels=("a",), workers=())

    def test_rejects_empty_labels(self):
        with pytest.raises(InvalidAnswerSetError, match="at least one label"):
            AnswerSet(np.empty((0, 0), dtype=int), labels=())

    def test_missing_cells_allowed(self):
        answers = AnswerSet(np.array([[MISSING, 0], [1, MISSING]]),
                            labels=("a", "b"))
        assert answers.n_answers == 2
        assert answers.density == 0.5


class TestFromTriples:
    def test_round_trip(self):
        triples = [("x", "alice", "cat"), ("x", "bob", "dog"),
                   ("y", "alice", "dog")]
        answers = AnswerSet.from_triples(triples)
        assert answers.objects == ("x", "y")
        assert answers.workers == ("alice", "bob")
        assert answers.labels == ("cat", "dog")
        assert answers.answer("x", "bob") == answers.label_index("dog")
        assert answers.answer("y", "bob") == MISSING

    def test_explicit_vocabularies_fix_order(self):
        triples = [("x", "w", "b")]
        answers = AnswerSet.from_triples(triples, labels=("a", "b", "c"))
        assert answers.labels == ("a", "b", "c")
        assert answers.answer("x", "w") == 1

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(InvalidAnswerSetError, match="conflicting"):
            AnswerSet.from_triples([("x", "w", "a"), ("x", "w", "b")])

    def test_exact_duplicate_tolerated(self):
        answers = AnswerSet.from_triples([("x", "w", "a"), ("x", "w", "a")])
        assert answers.n_answers == 1

    def test_unknown_name_with_explicit_vocab(self):
        with pytest.raises(InvalidAnswerSetError, match="outside"):
            AnswerSet.from_triples([("x", "w", "zzz")], labels=("a",))

    def test_empty_triples_rejected(self):
        with pytest.raises(InvalidAnswerSetError):
            AnswerSet.from_triples([])


class TestAccessors:
    def test_name_and_index_resolution(self, table1_answer_set):
        assert table1_answer_set.object_index("o3") == 2
        assert table1_answer_set.worker_index("w5") == 4
        assert table1_answer_set.label_index("4") == 3
        assert table1_answer_set.object_index(1) == 1

    def test_unknown_names_raise_keyerror(self, table1_answer_set):
        with pytest.raises(KeyError):
            table1_answer_set.object_index("nope")
        with pytest.raises(KeyError):
            table1_answer_set.worker_index("nope")
        with pytest.raises(KeyError):
            table1_answer_set.label_index("nope")

    def test_vote_counts_match_table1(self, table1_answer_set):
        counts = table1_answer_set.vote_counts()
        # o1: labels 2,3,2,2,3 -> codes 1×3, 2×2
        assert counts[0].tolist() == [0, 3, 2, 0]
        # o4: labels 4,1,2,1,3 -> one of each except two 1s
        assert counts[3].tolist() == [2, 1, 1, 1]

    def test_answers_per_object_and_worker(self):
        answers = AnswerSet(np.array([[0, MISSING], [0, 1]]), labels=("a", "b"))
        assert answers.answers_per_object().tolist() == [1, 2]
        assert answers.answers_per_worker().tolist() == [2, 1]

    def test_label_histogram(self, table1_answer_set):
        hist = table1_answer_set.label_histogram()
        assert hist.sum() == 20
        assert hist.tolist() == [4, 6, 7, 3]


class TestTransformations:
    def test_mask_workers_blanks_columns(self, table1_answer_set):
        masked = table1_answer_set.mask_workers(["w5", 0])
        assert masked.n_answers == 12
        assert masked.answer(0, "w5") == MISSING
        assert masked.workers == table1_answer_set.workers  # kept in vocab

    def test_mask_workers_empty_is_identity(self, table1_answer_set):
        assert table1_answer_set.mask_workers([]) is table1_answer_set

    def test_subset_objects(self, table1_answer_set):
        subset = table1_answer_set.subset_objects([2, 0])
        assert subset.objects == ("o3", "o1")
        assert subset.answer(0, 0) == table1_answer_set.answer(2, 0)

    def test_with_answers_adds_cells(self):
        answers = AnswerSet(np.array([[MISSING, 0]]), labels=("a", "b"))
        extended = answers.with_answers([(0, 0, "b")])
        assert extended.answer(0, 0) == 1
        assert answers.answer(0, 0) == MISSING  # original untouched

    def test_with_answers_rejects_overwrite(self, table1_answer_set):
        with pytest.raises(InvalidAnswerSetError, match="already holds"):
            table1_answer_set.with_answers([(0, 0, "1")])

    def test_with_worker_appends_column(self, table1_answer_set):
        extended = table1_answer_set.with_worker("expert", {0: "2", 3: "2"})
        assert extended.n_workers == 6
        assert extended.answer(0, "expert") == 1
        assert extended.answer(1, "expert") == MISSING

    def test_with_worker_rejects_duplicate_name(self, table1_answer_set):
        with pytest.raises(InvalidAnswerSetError, match="already exists"):
            table1_answer_set.with_worker("w1", {})


class TestNarrowStorage:
    """The matrix copy is stored in the narrowest type holding [-1, m)."""

    @pytest.mark.parametrize("m, dtype", [(2, np.int8), (128, np.int8),
                                          (129, np.int16)])
    def test_dtype_follows_label_count(self, m, dtype):
        rng = np.random.default_rng(m)
        source = rng.integers(-1, m, size=(6, 5))
        source[0, 0], source[0, 1] = MISSING, m - 1
        answers = AnswerSet(source, labels=[f"l{c}" for c in range(m)])
        assert answers.matrix.dtype == dtype
        assert np.array_equal(answers.matrix, source)
        assert not answers.matrix.flags.writeable
        assert not np.shares_memory(answers.matrix, source)
        with pytest.raises(InvalidAnswerSetError, match="codes outside"):
            AnswerSet(np.full((1, 1), m), labels=[f"l{c}" for c in range(m)])

    def test_narrow_input_is_still_copied(self):
        source = np.array([[0, 1], [1, MISSING]], dtype=np.int8)
        answers = AnswerSet(source, labels=("a", "b"))
        assert not np.shares_memory(answers.matrix, source)
        source[0, 0] = 1
        assert answers.answer(0, 0) == 0

    def test_clone_from_int64_is_equal(self, table1_answer_set):
        clone = AnswerSet(table1_answer_set.matrix.astype(np.int64),
                          table1_answer_set.labels)
        assert clone.matrix.dtype == table1_answer_set.matrix.dtype
        assert clone == table1_answer_set
        assert hash(clone) == hash(table1_answer_set)


class TestDunders:
    def test_equality(self, table1_answer_set):
        clone = AnswerSet(table1_answer_set.matrix,
                          table1_answer_set.labels,
                          table1_answer_set.objects,
                          table1_answer_set.workers)
        assert clone == table1_answer_set
        assert hash(clone) == hash(table1_answer_set)
        assert table1_answer_set != table1_answer_set.mask_workers([0])

    def test_repr(self, table1_answer_set):
        text = repr(table1_answer_set)
        assert "n_objects=4" in text and "n_workers=5" in text


@given(
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_property_counts_consistent(n, k, m, seed):
    """Vote counts, per-object and per-worker counts all agree in total."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, m, size=(n, k))
    answers = AnswerSet(matrix, labels=[f"l{i}" for i in range(m)])
    total = answers.n_answers
    assert answers.answers_per_object().sum() == total
    assert answers.answers_per_worker().sum() == total
    assert answers.vote_counts().sum() == total
    assert answers.label_histogram().sum() == total
    assert 0.0 <= answers.density <= 1.0


@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_property_masking_reduces_answers(n, k, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(n, k))
    answers = AnswerSet(matrix, labels=("a", "b"))
    masked = answers.mask_workers([0])
    assert masked.n_answers <= answers.n_answers
    assert masked.answers_per_worker()[0] == 0
