"""Reference implementations the production code is compared against.

Each function here is the plain, obviously-correct form of a production
routine that is now only ever run through a faster path:

* ``m_step``, ``scatter_log_likelihood``, ``e_step`` and ``run_em`` — the
  ``np.add.at`` EM scatters (paper Eq. 1 and Eq. 5). The kernel's sparse
  incidence-operator products must equal them bit for bit. ``run_em``
  drives the kernel's accelerated loop over these scatters.
* ``run_plain_em`` — EM without extrapolation, one map per iteration: the
  fixed-point oracle the accelerated loop is checked against.
* ``block_subencoding`` — the ``O(A)`` ``np.isin`` scan that locates a
  block's answers; the kernel gathers them from CSR segments instead.
* ``expected_posterior_entropy`` — Eq. 8 by one whole warm-started
  i-EM refinement per hypothetical label, initial E-step included; the
  shared-encoding look-ahead of ``InformationGainStrategy``, which takes
  that E-step once per select, must reproduce its scores exactly.
* ``outside_block_evidence`` — the M-step counts and label mass a block
  solve of the local look-ahead holds fixed, summed directly over the
  answers and rows outside the block; the scorer takes them as the whole
  answer set's minus the block's own.
* ``validated_confusion_counts`` and ``validated_answer_counts`` — the
  §5.3 validated counts read from the rows of a dense answer matrix; the
  production counts gather the validated objects' answers from an
  encoding.
* ``object_covariance`` — the joint-entropy surrogate with its co-answer
  counts from a dense ``n × k`` product; production multiplies the
  encoding's sparse incidence.

Test modules import this file as ``reference`` (``tests/`` is on
``sys.path`` under pytest; ``benchmarks/conftest.py`` adds it for the
benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_set import MISSING
from repro.core.confusion import PROB_FLOOR, normalize_rows
from repro.core.em_kernel import (DEFAULT_MAX_ITER, DEFAULT_SMOOTHING,
                                  DEFAULT_TOL, EMResult, EncodedAnswers,
                                  EMMap, clamp_validated, estimate_priors,
                                  index_dtype, normalize_log_likelihood,
                                  squarem)
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.guidance.information_gain import DEFAULT_LABEL_FLOOR


def m_step(encoded, assignment, smoothing=DEFAULT_SMOOTHING):
    """Eq. 5 counts ``counts[w, :, l] += U[o, :]`` by ``np.add.at``."""
    k, m = encoded.n_workers, encoded.n_labels
    counts = np.zeros((k, m, m))
    if not encoded.n_answers:
        return normalize_rows(counts, smoothing=smoothing)
    rows = np.arange(m)
    flat_index = ((encoded.worker_index.astype(np.int64)[:, None] * m
                   + rows[None, :]) * m + encoded.label_index[:, None])
    np.add.at(counts.reshape(-1), flat_index.reshape(-1),
              np.ascontiguousarray(assignment[encoded.object_index, :],
                                   dtype=np.float64).reshape(-1))
    return normalize_rows(counts, smoothing=smoothing)


def scatter_log_likelihood(encoded, log_confusions):
    """Rows ``Σ_answers log F_w(·, l)`` by ``np.add.at``."""
    log_like = np.zeros((encoded.n_objects, encoded.n_labels))
    np.add.at(log_like, encoded.object_index,
              log_confusions[encoded.worker_index, :, encoded.label_index])
    return log_like


def e_step(encoded, confusions, priors):
    """Eq. 1 over the ``np.add.at`` scatter."""
    log_confusions = np.log(np.clip(confusions, PROB_FLOOR, None))
    log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
    return normalize_log_likelihood(
        scatter_log_likelihood(encoded, log_confusions), log_priors)


def _validated(validated_objects, validated_labels):
    if validated_objects is None:
        validated_objects = np.empty(0, dtype=np.int64)
    if validated_labels is None:
        validated_labels = np.empty(0, dtype=np.int64)
    return validated_objects, validated_labels


def run_em(encoded, initial_assignment, validated_objects=None,
           validated_labels=None, *, max_iter=DEFAULT_MAX_ITER,
           tol=DEFAULT_TOL, smoothing=DEFAULT_SMOOTHING):
    """The kernel's accelerated loop (``em_kernel.squarem``) over the
    ``np.add.at`` maps."""
    em_map = EMMap(lambda assignment: (m_step(encoded, assignment, smoothing),
                                       estimate_priors(assignment)),
                   lambda log_confusions: scatter_log_likelihood(
                       encoded, log_confusions),
                   *_validated(validated_objects, validated_labels))
    return squarem(em_map, initial_assignment, max_iter=max_iter, tol=tol)[0]


def run_plain_em(encoded, initial_assignment, validated_objects=None,
                 validated_labels=None, *, max_iter=DEFAULT_MAX_ITER,
                 tol=DEFAULT_TOL, smoothing=DEFAULT_SMOOTHING):
    """Plain EM (clamp, M, then E/clamp/M to tolerance): the fixed-point
    oracle for the accelerated loop."""
    validated_objects, validated_labels = _validated(validated_objects,
                                                     validated_labels)
    assignment = np.array(initial_assignment, dtype=np.float64, copy=True)
    clamp_validated(assignment, validated_objects, validated_labels)
    confusions = m_step(encoded, assignment, smoothing)
    priors = estimate_priors(assignment)
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        updated = e_step(encoded, confusions, priors)
        clamp_validated(updated, validated_objects, validated_labels)
        delta = float(np.max(np.abs(updated - assignment))) \
            if assignment.size else 0.0
        assignment = updated
        confusions = m_step(encoded, assignment, smoothing)
        priors = estimate_priors(assignment)
        if delta < tol:
            converged = True
            break
    return EMResult(assignment=assignment, confusions=confusions,
                    priors=priors, n_iterations=iterations,
                    converged=converged)


def block_subencoding(encoded, objects, workers=None, *, n_labels=None):
    """A block's sub-encoding, its answers found by an ``np.isin`` scan."""
    objects = np.asarray(objects, dtype=np.int64)
    keep = np.isin(encoded.object_index, objects)
    local_obj = np.searchsorted(objects, encoded.object_index[keep])
    kept_workers = encoded.worker_index[keep]
    if workers is None:
        workers = np.unique(kept_workers)
    else:
        workers = np.asarray(workers, dtype=np.int64)
    sub_labels = encoded.n_labels if n_labels is None else int(n_labels)
    sub_dtype = index_dtype(objects.size, workers.size, sub_labels,
                            local_obj.size)
    return EncodedAnswers(
        n_objects=objects.size, n_workers=workers.size, n_labels=sub_labels,
        object_index=local_obj.astype(sub_dtype),
        worker_index=np.searchsorted(workers, kept_workers).astype(sub_dtype),
        label_index=encoded.label_index[keep].astype(sub_dtype)), workers


def outside_block_evidence(encoded, assignment, objects, workers):
    """Cell counts of ``workers`` (rows ``[local w·m + l]``, as
    ``em_kernel.cell_counts`` lays them out) over the answers of objects
    outside the sorted block ``objects``, and the label mass of the rows
    outside it, by ``np.add.at``."""
    m = encoded.n_labels
    keep = (~np.isin(encoded.object_index, objects)
            & np.isin(encoded.worker_index, workers))
    rows = (np.searchsorted(workers, encoded.worker_index[keep]) * m
            + encoded.label_index[keep])
    counts = np.zeros((len(workers) * m, m))
    np.add.at(counts, rows, assignment[encoded.object_index[keep]])
    outside = np.setdiff1d(np.arange(encoded.n_objects), objects)
    mass = np.zeros(m)
    np.add.at(mass, np.repeat(np.arange(m)[None, :], outside.size, axis=0),
              assignment[outside])
    return counts, mass


def expected_posterior_entropy(prob_set, aggregator, obj,
                               label_floor=DEFAULT_LABEL_FLOOR):
    """``H(P | o)`` of Eq. 8, one fresh warm-started conclude per label.

    Labels with belief under ``label_floor`` are not simulated; their
    mass keeps the current ``H(P)``.
    """
    current_entropy = answer_set_uncertainty(prob_set)
    expected = 0.0
    for label, weight in enumerate(prob_set.assignment[obj]):
        if weight < label_floor:
            expected += weight * current_entropy
            continue
        hypothetical = prob_set.validation.with_assignment(obj, label)
        posterior = aggregator.refine(prob_set.encoded, hypothetical,
                                      prob_set)
        expected += weight * float(object_entropies(
            posterior.assignment).sum())
    return expected


def validated_confusion_counts(answer_set, validation):
    """``k × m × m`` counts of worker answers on validated objects, read
    from the validated rows of the dense matrix."""
    k = answer_set.n_workers
    m = answer_set.n_labels
    counts = np.zeros((k, m, m), dtype=np.int64)
    validated = validation.validated_indices()
    if validated.size == 0:
        return counts
    true_labels = validation.validated_labels()
    sub = answer_set.matrix[validated, :]  # (v, k)
    obj_pos, workers = np.nonzero(sub != MISSING)
    answered = sub[obj_pos, workers]
    np.add.at(counts, (workers, true_labels[obj_pos], answered), 1)
    return counts


def validated_answer_counts(answer_set, validation):
    """Answers per worker on validated objects, from the dense matrix."""
    validated = validation.validated_indices()
    if validated.size == 0:
        return np.zeros(answer_set.n_workers, dtype=np.int64)
    sub = answer_set.matrix[validated, :]
    return np.count_nonzero(sub != MISSING, axis=0)


def object_covariance(prob_set, matrix, coupling):
    """The Gaussian-surrogate covariance with dense co-answer counts."""
    answered = (matrix != MISSING).astype(float)
    shared = answered @ answered.T
    np.fill_diagonal(shared, 0.0)
    max_row = shared.sum(axis=1).max()
    similarity = shared / max_row if max_row > 0 else shared
    variances = np.maximum(object_entropies(prob_set.assignment), 1e-3)
    scale = np.sqrt(variances)
    n = variances.size
    return scale[:, None] * (np.eye(n) + coupling * similarity) * scale[None, :]
