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
    [9.715361685281e-07, 9.999980355173e-01,
     9.833303353722e-07, 9.616221266478e-09],
    [9.615204461496e-09, 1.071125557217e-06,
     9.999989096450e-01, 9.614235479101e-09],
    [9.612305201938e-09, 9.601867931862e-09,
     9.617838243890e-09, 9.999999711680e-01],
    [9.999990106552e-01, 9.700788053438e-07,
     9.656008255627e-09, 9.609948679880e-09],
])

TABLE1_PRIORS = np.array([0.250000000354729, 0.250000021580876,
                          0.249999978062296, 0.250000000002099])

TABLE1_CONFUSION_W0 = np.array([
    [0.009615393844867, 0.009616318771657, 0.009615393847655,
     0.971152893535821],
    [0.009615393049840, 0.971151876619270, 0.009616413745610,
     0.009616316585280],
    [0.009615394674612, 0.009616330936708, 0.971152879677365,
     0.009615394711314],
    [0.971153818422920, 0.009615393861674, 0.009615393859764,
     0.009615393855642],
])

SPARSE_BINARY_ASSIGNMENT = np.array([
    [9.800752129396407e-01, 1.992478706035932e-02],
    [5.114816567152488e-03, 9.948851834328476e-01],
    [9.900879375410101e-01, 9.912062458989800e-03],
    [1.012305625008490e-04, 9.998987694374991e-01],
    [9.999000355255346e-01, 9.996447446532777e-05],
])

SPARSE_BINARY_PRIORS = np.array([0.59505584662717, 0.40494415337283])

SPARSE_BINARY_CONFUSIONS = np.array([
    [[0.994919990443187, 0.005080009556813],
     [0.019531671336748, 0.980468328663252]],
    [[0.664404325650871, 0.335595674349129],
     [0.503698860823839, 0.496301139176161]],
    [[0.503642738597643, 0.496357261402357],
     [0.004963594097371, 0.995036405902629]],
    [[0.990051028347163, 0.009948971652837],
     [0.501209681951575, 0.498790318048425]],
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
                      789.0384616208962, atol=1e-7)
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
    assert result.n_em_iterations == 14
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
