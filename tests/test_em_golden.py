"""Golden-fixture regression: majority-initialized Dawid–Skene numerics.

The streaming engine's bit-for-bit guarantee makes the kernel a contract:
any refactor that silently changes its floating-point behaviour would break
streaming/batch agreement without failing a behavioural test. These fixtures
pin the exact outputs of ``DawidSkeneEM(init="majority")`` on two small
matrices (Table 1 of the paper and a sparse binary set), so numeric drift
fails loudly with a diff instead of surfacing as downstream flakiness.

If a change to the kernel is *intentional* (e.g. a new smoothing default),
regenerate the constants below with the snippet in each test's docstring
and call the change out in the commit message. The ``np.add.at``
reference of ``tests/reference.py`` must land on the very same floats, so
the pinned constants hold for it too.
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.em import DawidSkeneEM

import reference

ATOL = 1e-9

TABLE1_ASSIGNMENT = np.array([
    [9.708779098775e-07, 9.999980486307e-01, 9.708815068843e-07,
     9.609897812329e-09],
    [9.610794248965e-09, 9.709030195454e-07, 9.999990098763e-01,
     9.609869892660e-09],
    [9.609841175899e-09, 9.609838836849e-09, 9.609843611583e-09,
     9.999999711705e-01],
    [9.999990099060e-01, 9.708733607868e-07, 9.610806836958e-09,
     9.609868558767e-09],
])

TABLE1_PRIORS = np.array([0.25, 0.25, 0.25, 0.25])

TABLE1_CONFUSION_W0 = np.array([
    [0.009615393855575, 0.009616318151795, 0.009615393856491,
     0.971152894136139],
    [0.009615393855458, 0.971151969821412, 0.009616318175824,
     0.009616318147306],
    [0.009615393855818, 0.009616318155494, 0.971152894131944,
     0.009615393856744],
    [0.971153818433045, 0.009615393855670, 0.009615393855643,
     0.009615393855642],
])

SPARSE_BINARY_ASSIGNMENT = np.array([
    [9.799053840406987e-01, 2.009461595930127e-02],
    [5.009694520831870e-03, 9.949903054791681e-01],
    [9.899989239602157e-01, 1.000107603978426e-02],
    [9.920082417849470e-05, 9.999007991758215e-01],
    [9.998992377852772e-01, 1.007622147228228e-04],
])

SPARSE_BINARY_PRIORS = np.array([0.59498248822624, 0.40501751177376])

SPARSE_BINARY_CONFUSIONS = np.array([
    [[0.994955146221469, 0.005044853778531],
     [0.019655126275396, 0.980344873724604]],
    [[0.664428046483573, 0.335571953516427],
     [0.503692945997688, 0.496307054002312]],
    [[0.503712119817660, 0.496287880182340],
     [0.004963308586612, 0.995036691413388]],
    [[0.990051105279545, 0.009948894720455],
     [0.501257000839764, 0.498742999160236]],
])


def test_table1_majority_init_is_pinned(table1_answer_set):
    """Regenerate with: DawidSkeneEM(init="majority").fit(table1_answer_set)."""
    result = DawidSkeneEM(init="majority").fit(table1_answer_set)
    assert result.n_em_iterations == 5
    assert np.allclose(result.assignment, TABLE1_ASSIGNMENT, atol=ATOL)
    assert np.allclose(result.priors, TABLE1_PRIORS, atol=ATOL)
    assert np.allclose(result.confusions[0], TABLE1_CONFUSION_W0, atol=ATOL)
    # Checksums over the full confusion stack catch drift in any worker.
    assert result.confusions.sum() == np.float64(20.0)
    weights = np.arange(result.confusions.size).reshape(
        result.confusions.shape)
    assert np.isclose((result.confusions * weights).sum(),
                      789.0384615384855, atol=1e-7)
    assert result.map_labels().tolist() == [1, 2, 3, 0]


def test_sparse_binary_majority_init_is_pinned():
    """Regenerate with: DawidSkeneEM(init="majority").fit(answers) below."""
    matrix = np.array([
        [0, 0, 1, MISSING],
        [1, 1, 1, 0],
        [0, 1, MISSING, 0],
        [1, 0, 1, 1],
        [0, 0, 0, MISSING],
    ])
    answers = AnswerSet(matrix, labels=("T", "F"))
    result = DawidSkeneEM(init="majority").fit(answers)
    assert result.n_em_iterations == 28
    assert np.allclose(result.assignment, SPARSE_BINARY_ASSIGNMENT, atol=ATOL)
    assert np.allclose(result.priors, SPARSE_BINARY_PRIORS, atol=ATOL)
    assert np.allclose(result.confusions, SPARSE_BINARY_CONFUSIONS, atol=ATOL)


def test_golden_outputs_are_reproducible_across_runs(table1_answer_set):
    """Two fresh fits are bit-for-bit identical (no hidden global state)."""
    first = DawidSkeneEM(init="majority").fit(table1_answer_set)
    second = DawidSkeneEM(init="majority").fit(table1_answer_set)
    assert np.array_equal(first.assignment, second.assignment)
    assert np.array_equal(first.confusions, second.confusions)


def test_reference_scatter_reproduces_the_pinned_fit(table1_answer_set):
    """The np.add.at reference EM is bit-for-bit the operator kernel
    behind DawidSkeneEM, so the golden constants pin both."""
    encoded = em_kernel.encode_answers(table1_answer_set)
    scattered = reference.run_em(
        encoded, em_kernel.initial_assignment_majority(encoded))
    fitted = DawidSkeneEM(init="majority").fit(table1_answer_set)
    assert scattered.n_iterations == fitted.n_em_iterations == 5
    assert np.array_equal(scattered.assignment, fitted.assignment)
    assert np.array_equal(scattered.confusions, fitted.confusions)
    assert np.array_equal(scattered.priors, fitted.priors)
