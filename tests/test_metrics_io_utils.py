"""Tests for metrics, file I/O, utility helpers, and joint entropy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import DatasetError, InvalidProbabilityError
from repro.io import (
    load_answer_files,
    read_gold_file,
    read_response_file,
    write_gold_file,
    write_response_file,
)
from repro.metrics import (
    area_under_curve,
    average_curves,
    interpolate_curve,
    precision,
    precision_improvement,
    relative_effort,
    uncertainty_precision_correlation,
)
from repro.utils import (
    check_distribution,
    check_fraction,
    check_positive,
    check_positive_int,
    check_row_stochastic,
    ensure_rng,
    split_rng,
)


class TestMetrics:
    def test_precision(self):
        assert precision(np.array([0, 1, 1]), np.array([0, 1, 0])) == \
            pytest.approx(2 / 3)
        assert precision(np.array([]), np.array([])) == 1.0
        with pytest.raises(ValueError):
            precision(np.array([0]), np.array([0, 1]))

    def test_precision_improvement(self):
        assert precision_improvement(0.9, 0.8) == pytest.approx(0.5)
        assert precision_improvement(0.8, 0.8) == 0.0
        assert precision_improvement(1.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            precision_improvement(1.2, 0.5)

    def test_relative_effort(self):
        assert relative_effort(20, 100) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            relative_effort(1, 0)

    def test_correlation_strongly_negative(self):
        uncertainty = np.linspace(1.0, 0.0, 20)
        prec = np.linspace(0.5, 1.0, 20)
        corr = uncertainty_precision_correlation(uncertainty, prec)
        assert corr == pytest.approx(-1.0)

    def test_correlation_is_scipy_pearson_r(self):
        rng = np.random.default_rng(5)
        uncertainty = rng.random(40)
        prec = 1.0 - 0.5 * uncertainty + 0.2 * rng.random(40)
        expected = stats.pearsonr(uncertainty, prec).statistic
        assert -1.0 < expected < -0.5
        assert uncertainty_precision_correlation(uncertainty, prec) == \
            expected

    def test_correlation_degenerate_inputs(self):
        assert np.isnan(uncertainty_precision_correlation(
            np.array([1.0]), np.array([1.0])))
        assert np.isnan(uncertainty_precision_correlation(
            np.ones(5), np.linspace(0, 1, 5)))

    def test_interpolate_step_curve(self):
        efforts = np.array([0.0, 0.5, 1.0])
        values = np.array([0.2, 0.6, 0.9])
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        out = interpolate_curve(efforts, values, grid)
        assert out.tolist() == [0.2, 0.2, 0.6, 0.6, 0.9]

    def test_average_curves(self):
        grid = np.array([0.0, 1.0])
        curves = [(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                  (np.array([0.0, 1.0]), np.array([1.0, 0.0]))]
        assert average_curves(curves, grid).tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            average_curves([], grid)

    def test_area_under_curve(self):
        assert area_under_curve(np.array([0.0, 1.0]),
                                np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert np.isnan(area_under_curve(np.array([0.0]), np.array([1.0])))


class TestTripleIO:
    def test_round_trip(self, tmp_path, small_crowd):
        response = tmp_path / "answers.tsv"
        gold_file = tmp_path / "gold.tsv"
        write_response_file(response, small_crowd.answer_set)
        write_gold_file(gold_file, small_crowd.answer_set, small_crowd.gold)
        answers, gold = load_answer_files(response, gold_file)
        assert answers.n_answers == small_crowd.answer_set.n_answers
        assert gold is not None
        # same labelling up to vocabulary order
        for i, obj in enumerate(answers.objects):
            original = small_crowd.answer_set.object_index(obj)
            assert answers.labels[gold[i]] == \
                small_crowd.answer_set.labels[small_crowd.gold[original]]

    def test_response_only(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("o1\tw1\tyes\no2\tw1\tno\n")
        answers, gold = load_answer_files(path)
        assert gold is None
        assert answers.n_objects == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# header\n\no1\tw1\tyes\n")
        assert read_response_file(path) == [("o1", "w1", "yes")]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("o1\tw1\n")
        with pytest.raises(DatasetError, match="expected 3 fields"):
            read_response_file(path)

    def test_conflicting_gold_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("o1\tyes\no1\tno\n")
        with pytest.raises(DatasetError, match="conflicting"):
            read_gold_file(path)

    def test_gold_for_unknown_object_rejected(self, tmp_path):
        response = tmp_path / "r.tsv"
        gold_file = tmp_path / "g.tsv"
        response.write_text("o1\tw1\tyes\n")
        gold_file.write_text("o1\tyes\nmystery\tno\n")
        with pytest.raises(DatasetError, match="absent"):
            load_answer_files(response, gold_file)

    def test_gold_missing_object_rejected(self, tmp_path):
        response = tmp_path / "r.tsv"
        gold_file = tmp_path / "g.tsv"
        response.write_text("o1\tw1\tyes\no2\tw1\tno\n")
        gold_file.write_text("o1\tyes\n")
        with pytest.raises(DatasetError, match="misses"):
            load_answer_files(response, gold_file)

    def test_empty_response_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(DatasetError, match="no answer triples"):
            load_answer_files(path)

    def test_gold_label_unseen_in_responses(self, tmp_path):
        response = tmp_path / "r.tsv"
        gold_file = tmp_path / "g.tsv"
        response.write_text("o1\tw1\tyes\n")
        gold_file.write_text("o1\tmaybe\n")
        answers, gold = load_answer_files(response, gold_file)
        assert "maybe" in answers.labels
        assert answers.labels[gold[0]] == "maybe"


class TestChecks:
    def test_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")
        with pytest.raises(ValueError):
            check_fraction(1.1, "x")

    def test_positive(self):
        assert check_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(ValueError):
            check_positive_int(2.5, "x")

    def test_distribution(self):
        check_distribution(np.array([0.5, 0.5]), "p")
        with pytest.raises(InvalidProbabilityError):
            check_distribution(np.array([0.5, 0.6]), "p")
        with pytest.raises(InvalidProbabilityError):
            check_distribution(np.array([[0.5, 0.5]]), "p")

    def test_row_stochastic(self):
        check_row_stochastic(np.array([[0.5, 0.5]]), "m")
        with pytest.raises(InvalidProbabilityError):
            check_row_stochastic(np.array([[0.5, 0.4]]), "m")
        with pytest.raises(InvalidProbabilityError):
            check_row_stochastic(np.array([0.5, 0.5]), "m")


class TestRng:
    def test_ensure_rng_passthrough_and_seed(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng
        a, b = ensure_rng(42), ensure_rng(42)
        assert a.random() == b.random()

    def test_split_rng_independent_and_deterministic(self):
        parent_a = ensure_rng(9)
        parent_b = ensure_rng(9)
        children_a = split_rng(parent_a, 3)
        children_b = split_rng(parent_b, 3)
        for x, y in zip(children_a, children_b):
            assert x.random() == y.random()
        with pytest.raises(ValueError):
            split_rng(parent_a, -1)


class TestJointEntropy:
    def test_greedy_matches_exact_on_tiny_instances(self, small_crowd):
        from repro.core.em import DawidSkeneEM
        from repro.guidance import (
            exact_max_entropy_subset,
            greedy_max_entropy_subset,
            object_covariance,
        )
        prob_set = DawidSkeneEM().fit(
            small_crowd.answer_set.subset_objects(range(8)))
        cov = object_covariance(prob_set)
        exact_set, exact_val = exact_max_entropy_subset(cov, 3)
        greedy_set, greedy_val = greedy_max_entropy_subset(cov, 3)
        assert greedy_val <= exact_val + 1e-9
        assert greedy_val >= exact_val - 1.0  # near-optimal on tiny cases
        assert exact_set.size == greedy_set.size == 3

    def test_joint_entropy_subadditive(self, small_crowd):
        """Gaussian joint entropy is subadditive: H(X,Y) ≤ H(X) + H(Y),
        with equality only for independent (uncorrelated) objects."""
        from repro.core.em import DawidSkeneEM
        from repro.guidance import gaussian_joint_entropy, object_covariance
        prob_set = DawidSkeneEM().fit(small_crowd.answer_set)
        cov = object_covariance(prob_set)
        h0 = gaussian_joint_entropy(cov, [0])
        h1 = gaussian_joint_entropy(cov, [1])
        h01 = gaussian_joint_entropy(cov, [0, 1])
        assert h01 <= h0 + h1 + 1e-9
        assert np.isfinite(h01)
        assert gaussian_joint_entropy(cov, []) == 0.0

    def test_subset_size_validation(self, small_crowd):
        from repro.core.em import DawidSkeneEM
        from repro.guidance import (
            exact_max_entropy_subset,
            greedy_max_entropy_subset,
            object_covariance,
        )
        prob_set = DawidSkeneEM().fit(
            small_crowd.answer_set.subset_objects(range(4)))
        cov = object_covariance(prob_set)
        with pytest.raises(ValueError):
            exact_max_entropy_subset(cov, 5)
        with pytest.raises(ValueError):
            greedy_max_entropy_subset(cov, 0)

    def test_greedy_validation_order(self, small_crowd):
        from repro.core.em import DawidSkeneEM
        from repro.guidance import greedy_validation_order
        prob_set = DawidSkeneEM().fit(small_crowd.answer_set)
        order = greedy_validation_order(prob_set, budget=5)
        assert order.size == 5
        assert np.unique(order).size == 5

    def test_covariance_positive_definite(self, small_crowd):
        from repro.core.em import DawidSkeneEM
        from repro.guidance import object_covariance
        prob_set = DawidSkeneEM().fit(small_crowd.answer_set)
        cov = object_covariance(prob_set)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.all(eigenvalues > 0)

    @pytest.mark.parametrize("coupling", [0.0, 0.5, 0.8])
    def test_covariance_equals_dense_construction(self, small_crowd,
                                                  coupling):
        """Co-answer counts from the encoding's sparse incidence are the
        dense ``answered @ answered.T`` counts, so Σ is bit-identical;
        masked workers share no objects."""
        from repro.guidance import object_covariance
        from repro.streaming import ValidationSession

        import reference
        session = ValidationSession.from_answer_set(small_crowd.answer_set)
        session.set_masked_workers([1, 4])
        prob_set = session.conclude_snapshot()
        dense = session.stats.to_matrix(include_masked=False)
        want = reference.object_covariance(prob_set, dense, coupling)
        got = object_covariance(prob_set, coupling)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@given(values=st.lists(st.integers(min_value=0, max_value=3),
                       min_size=1, max_size=30),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_property_precision_bounds(values, seed):
    rng = np.random.default_rng(seed)
    assignment = np.array(values)
    gold = rng.integers(0, 4, size=assignment.size)
    value = precision(assignment, gold)
    assert 0.0 <= value <= 1.0
    assert precision(gold, gold) == 1.0
