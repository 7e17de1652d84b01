"""Unit and property tests for the EM kernel (Eq. 1–5)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.confusion import PROB_FLOOR
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.telemetry import Telemetry

import reference


def encode(matrix, n_labels=2):
    labels = tuple(f"l{i}" for i in range(n_labels))
    return em_kernel.encode_answers(AnswerSet(matrix, labels))


class TestEncoding:
    def test_flattening(self):
        encoded = encode(np.array([[0, MISSING], [1, 1]]))
        assert encoded.n_answers == 3
        assert encoded.object_index.tolist() == [0, 1, 1]
        assert encoded.worker_index.tolist() == [0, 0, 1]
        assert encoded.label_index.tolist() == [0, 1, 1]

    def test_encoding_is_memoized_on_the_answer_set(self):
        answers = AnswerSet(np.array([[0, 1, MISSING], [1, MISSING, 0]]),
                            ("a", "b"))
        pickled = pickle.dumps(answers)
        first = em_kernel.encode_answers(answers)
        assert em_kernel.encode_answers(answers) is first
        fresh = em_kernel.encode_answers(AnswerSet(answers.matrix, ("a", "b")))
        assert fresh is not first
        for name in ("object_index", "worker_index", "label_index"):
            ours, theirs = getattr(first, name), getattr(fresh, name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()
        # The memo (and the plan cached on it) is never pickled.
        em_kernel.kernel_plan(first)
        assert pickle.dumps(answers) == pickled
        assert pickle.loads(pickled) == answers

    def test_empty_matrix(self):
        encoded = encode(np.full((2, 2), MISSING))
        assert encoded.n_answers == 0


class TestInitialEstimates:
    def test_majority_init_normalizes_votes(self):
        encoded = encode(np.array([[0, 0, 1], [MISSING, MISSING, MISSING]]))
        initial = em_kernel.initial_assignment_majority(encoded)
        assert np.allclose(initial[0], [2 / 3, 1 / 3])
        assert np.allclose(initial[1], [0.5, 0.5])  # no votes -> uniform

    def test_uniform_init(self):
        encoded = encode(np.array([[0, 1]]))
        assert np.allclose(em_kernel.initial_assignment_uniform(encoded), 0.5)

    def test_random_init_is_distribution_and_seeded(self):
        encoded = encode(np.array([[0, 1], [1, 0]]))
        a = em_kernel.initial_assignment_random(encoded,
                                                np.random.default_rng(3))
        b = em_kernel.initial_assignment_random(encoded,
                                                np.random.default_rng(3))
        assert np.allclose(a, b)
        assert np.allclose(a.sum(axis=1), 1.0)


class TestSteps:
    def test_clamp_overwrites_rows(self):
        assignment = np.full((3, 2), 0.5)
        em_kernel.clamp_validated(assignment, np.array([1]), np.array([0]))
        assert assignment[1].tolist() == [1.0, 0.0]
        assert assignment[0].tolist() == [0.5, 0.5]

    def test_priors_eq3(self):
        assignment = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        priors = em_kernel.estimate_priors(assignment)
        assert np.allclose(priors, [0.5, 0.5])

    def test_priors_empty_assignment(self):
        priors = em_kernel.estimate_priors(np.empty((0, 3)))
        assert np.allclose(priors, 1 / 3)

    def test_m_step_counts_eq5(self):
        # One worker answered object0=label0, object1=label1; U is one-hot
        # with truths (0, 0): F(0,0) counts 1, F(0,1) counts 1.
        encoded = encode(np.array([[0], [1]]))
        assignment = np.array([[1.0, 0.0], [1.0, 0.0]])
        confusions = em_kernel.m_step(encoded, assignment, smoothing=0.0)
        assert np.allclose(confusions[0, 0], [0.5, 0.5])
        assert np.allclose(confusions[0, 1], [0.5, 0.5])  # no evidence row

    def test_e_step_prefers_consistent_label(self):
        # Two perfectly accurate workers agree on label 0.
        encoded = encode(np.array([[0, 0]]))
        confusions = np.stack([np.eye(2) * 0.98 + 0.01,
                               np.eye(2) * 0.98 + 0.01])
        assignment = em_kernel.e_step(encoded, confusions,
                                      np.array([0.5, 0.5]))
        assert assignment[0, 0] > 0.99

    def test_e_step_object_without_answers_gets_priors(self):
        encoded = encode(np.array([[0], [MISSING]]))
        confusions = np.stack([np.eye(2) * 0.9 + 0.05])
        priors = np.array([0.3, 0.7])
        assignment = em_kernel.e_step(encoded, confusions, priors)
        assert np.allclose(assignment[1], priors / priors.sum())


class TestRunEM:
    def test_converges_on_clean_data(self):
        rng = np.random.default_rng(0)
        gold = rng.integers(0, 2, 40)
        matrix = np.tile(gold[:, None], (1, 5))
        # inject a few mistakes for worker 4
        matrix[::7, 4] = 1 - matrix[::7, 4]
        encoded = encode(matrix)
        result = em_kernel.run_em(
            encoded, em_kernel.initial_assignment_majority(encoded))
        assert result.converged
        assert np.array_equal(np.argmax(result.assignment, axis=1), gold)

    def test_validated_objects_stay_clamped(self):
        matrix = np.array([[0, 0, 0], [1, 1, 1]])
        encoded = encode(matrix)
        result = em_kernel.run_em(
            encoded, em_kernel.initial_assignment_majority(encoded),
            validated_objects=np.array([0]), validated_labels=np.array([1]))
        assert result.assignment[0].tolist() == [0.0, 1.0]

    def test_max_iter_respected(self):
        matrix = np.array([[0, 1], [1, 0]])
        encoded = encode(matrix)
        result = em_kernel.run_em(
            encoded, em_kernel.initial_assignment_uniform(encoded),
            max_iter=1)
        assert result.n_iterations == 1

    def test_invalid_max_iter(self):
        encoded = encode(np.array([[0]]))
        with pytest.raises(ValueError):
            em_kernel.run_em(encoded,
                             em_kernel.initial_assignment_uniform(encoded),
                             max_iter=0)

    def test_initial_assignment_not_mutated(self):
        encoded = encode(np.array([[0, 0], [1, 1]]))
        initial = em_kernel.initial_assignment_majority(encoded)
        before = initial.copy()
        em_kernel.run_em(encoded, initial,
                         validated_objects=np.array([0]),
                         validated_labels=np.array([1]))
        assert np.array_equal(initial, before)

    def test_empty_answer_set(self):
        encoded = encode(np.full((3, 2), MISSING))
        result = em_kernel.run_em(
            encoded, em_kernel.initial_assignment_uniform(encoded))
        assert np.allclose(result.assignment, 0.5)


@given(
    n=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_property_em_outputs_are_distributions(n, k, m, seed):
    """After any EM run: U rows sum to 1, confusions are row-stochastic,
    priors are a distribution."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, m, size=(n, k))
    labels = tuple(f"l{i}" for i in range(m))
    encoded = em_kernel.encode_answers(AnswerSet(matrix, labels))
    result = em_kernel.run_em(
        encoded, em_kernel.initial_assignment_majority(encoded), max_iter=20)
    assert np.allclose(result.assignment.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(result.assignment >= -1e-12)
    assert np.allclose(result.confusions.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(result.priors.sum(), 1.0, atol=1e-9)


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_property_clamped_objects_survive_any_run(n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n, 3))
    encoded = em_kernel.encode_answers(AnswerSet(matrix, ("a", "b")))
    obj = int(rng.integers(n))
    label = int(rng.integers(2))
    result = em_kernel.run_em(
        encoded, em_kernel.initial_assignment_majority(encoded),
        validated_objects=np.array([obj]), validated_labels=np.array([label]))
    assert result.assignment[obj, label] == 1.0


# ----------------------------------------------------------------------
# The accelerated loop against the plain fixed-point oracle
# ----------------------------------------------------------------------
def simulated_encoding(seed, n=200, k=15, m=3, reliability=0.7,
                       answers_per_object=4):
    crowd = simulate_crowd(CrowdConfig(
        n_objects=n, n_workers=k, n_labels=m, reliability=reliability,
        answers_per_object=answers_per_object), rng=seed)
    return em_kernel.encode_answers(crowd.answer_set)


class TestAcceleratedLoop:
    #: Stated bound on the L∞ distance between the accelerated and the
    #: plain loop's fixed points, both solved to tol 1e-10 (observed
    #: ≤ 2.4e-8 on simulated crowds from the majority start).
    FIXED_POINT_BOUND = 1e-6

    @given(
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_converged_result_is_a_fixed_point(self, n, k, m, seed):
        """One more plain map moves a converged U by less than tol."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-1, m, size=(n, k))
        encoded = em_kernel.encode_answers(
            AnswerSet(matrix, tuple(f"l{i}" for i in range(m))))
        validated = np.flatnonzero(rng.random(n) < 0.3)
        labels = rng.integers(0, m, size=validated.size)
        result = em_kernel.run_em(
            encoded, rng.dirichlet(np.ones(m), size=n), validated, labels)
        if not result.converged:
            return
        step = em_kernel.clamp_validated(
            em_kernel.e_step(encoded, result.confusions, result.priors),
            validated, labels)
        assert np.abs(step - result.assignment).max() < em_kernel.DEFAULT_TOL

    @pytest.mark.parametrize("seed,m,reliability", [
        (1, 2, 0.6), (2, 3, 0.7), (3, 4, 0.55), (4, 3, 0.8), (5, 4, 0.65)])
    def test_reaches_the_plain_fixed_point(self, seed, m, reliability):
        encoded = simulated_encoding(seed, m=m, reliability=reliability)
        initial = em_kernel.initial_assignment_majority(encoded)
        validated = np.array([0, 7, 19])
        labels = np.array([1, 0, m - 1])
        options = dict(tol=1e-10, max_iter=20_000)
        accelerated = em_kernel.run_em(encoded, initial, validated, labels,
                                       **options)
        plain = reference.run_plain_em(encoded, initial, validated, labels,
                                       **options)
        assert accelerated.converged and plain.converged
        assert accelerated.n_iterations < plain.n_iterations
        np.testing.assert_array_equal(accelerated.assignment.argmax(axis=1),
                                      plain.assignment.argmax(axis=1))
        assert np.abs(accelerated.assignment
                      - plain.assignment).max() <= self.FIXED_POINT_BOUND

    def test_pinned_boundary_instance(self):
        """One worker answers (1, 0) and object 0 is validated as 1: the
        fixed point puts label 0's prior at the floor. The accelerated
        loop gets there in 13 maps; the plain loop needs 174."""
        encoded = encode(np.array([[1], [0]]))
        initial = em_kernel.initial_assignment_majority(encoded)
        validated, labels = np.array([0]), np.array([1])
        accelerated = em_kernel.run_em(encoded, initial, validated, labels)
        plain = reference.run_plain_em(encoded, initial, validated, labels,
                                       tol=1e-12, max_iter=1000)
        assert (accelerated.n_iterations, plain.n_iterations) == (13, 174)
        assert accelerated.converged and plain.converged
        for result in (accelerated, plain):
            assert result.priors[0] == pytest.approx(PROB_FLOOR, rel=1e-3)
            assert result.assignment[1, 0] == pytest.approx(PROB_FLOOR,
                                                            rel=1e-3)
        assert np.abs(accelerated.assignment
                      - plain.assignment).max() <= 1e-15

    def test_likelihood_guard_rejects_an_overshoot(self):
        """From a peaked random start on this crowd, one extrapolation
        loses more than a nat and is rejected; the solve still reaches
        the plain loop's fixed point."""
        encoded = simulated_encoding(4, n=300, k=10, m=2, reliability=0.5)
        initial = np.random.default_rng(4).dirichlet(np.full(2, 0.3),
                                                     size=300)
        hub = Telemetry()
        result = em_kernel.run_em(encoded, initial, telemetry=hub)
        (span,) = [r for r in hub.tracer.records if r.name == "em.run"]
        assert span.attrs["rejections"] >= 1
        assert span.attrs["extrapolations"] > span.attrs["rejections"]
        assert span.attrs["n_iterations"] == result.n_iterations
        assert result.converged
        scattered = reference.run_em(encoded, initial)
        assert np.array_equal(result.assignment, scattered.assignment)
        plain = reference.run_plain_em(encoded, initial, tol=1e-10,
                                       max_iter=20_000)
        np.testing.assert_array_equal(result.assignment.argmax(axis=1),
                                      plain.assignment.argmax(axis=1))
