"""Reference implementations the production code is compared against.

Each function here is the plain, obviously-correct form of a production
routine that is now only ever run through a faster path:

* ``m_step``, ``scatter_log_likelihood``, ``e_step`` and ``run_em`` — the
  ``np.add.at`` EM scatters (paper Eq. 1 and Eq. 5). The kernel's sparse
  incidence-operator products must equal them bit for bit.
* ``block_subencoding`` — the ``O(A)`` ``np.isin`` scan that locates a
  block's answers; the kernel gathers them from CSR segments instead.
* ``expected_posterior_entropy`` — Eq. 8 by one fresh, rebuild-everything
  ``conclude`` per hypothetical label; the shared-encoding look-ahead of
  ``InformationGainStrategy`` must reproduce its scores exactly.

Test modules import this file as ``reference`` (``tests/`` is on
``sys.path`` under pytest; ``benchmarks/conftest.py`` adds it for the
benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.core.confusion import PROB_FLOOR, normalize_rows
from repro.core.em_kernel import (DEFAULT_MAX_ITER, DEFAULT_SMOOTHING,
                                  DEFAULT_TOL, EMResult, EncodedAnswers,
                                  clamp_validated, estimate_priors,
                                  index_dtype, normalize_log_likelihood)
from repro.core.uncertainty import answer_set_uncertainty
from repro.guidance.information_gain import DEFAULT_LABEL_FLOOR


def m_step(encoded, assignment, smoothing=DEFAULT_SMOOTHING, *,
           dtype=np.float64):
    """Eq. 5 counts ``counts[w, :, l] += U[o, :]`` by ``np.add.at``."""
    k, m = encoded.n_workers, encoded.n_labels
    out_dtype = np.dtype(dtype)
    if not encoded.n_answers:
        return normalize_rows(np.zeros((k, m, m)),
                              smoothing=smoothing).astype(out_dtype)
    counts = np.zeros((k, m, m), dtype=out_dtype)
    rows = np.arange(m)
    flat_index = ((encoded.worker_index.astype(np.int64)[:, None] * m
                   + rows[None, :]) * m + encoded.label_index[:, None])
    np.add.at(counts.reshape(-1), flat_index.reshape(-1),
              np.ascontiguousarray(assignment[encoded.object_index, :],
                                   dtype=out_dtype).reshape(-1))
    return normalize_rows(counts, smoothing=smoothing)


def scatter_log_likelihood(encoded, log_confusions, *, dtype=np.float64):
    """Rows ``Σ_answers log F_w(·, l)`` by ``np.add.at``."""
    out_dtype = np.dtype(dtype)
    log_like = np.zeros((encoded.n_objects, encoded.n_labels),
                        dtype=out_dtype)
    contributions = log_confusions[encoded.worker_index, :,
                                   encoded.label_index]
    np.add.at(log_like, encoded.object_index,
              contributions.astype(out_dtype, copy=False))
    return log_like


def e_step(encoded, confusions, priors, *, dtype=np.float64):
    """Eq. 1 over the ``np.add.at`` scatter."""
    log_confusions = np.log(np.clip(confusions, PROB_FLOOR, None)).astype(
        dtype, copy=False)
    log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
    return normalize_log_likelihood(
        scatter_log_likelihood(encoded, log_confusions, dtype=dtype),
        log_priors)


def run_em(encoded, initial_assignment, validated_objects=None,
           validated_labels=None, *, max_iter=DEFAULT_MAX_ITER,
           tol=DEFAULT_TOL, smoothing=DEFAULT_SMOOTHING, dtype=np.float64):
    """The kernel's EM loop (clamp, M, then E/clamp/M to tolerance)."""
    if validated_objects is None:
        validated_objects = np.empty(0, dtype=np.int64)
    if validated_labels is None:
        validated_labels = np.empty(0, dtype=np.int64)
    assignment = np.array(initial_assignment, dtype=dtype, copy=True)
    clamp_validated(assignment, validated_objects, validated_labels)
    confusions = m_step(encoded, assignment, smoothing, dtype=dtype)
    priors = estimate_priors(assignment)
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        updated = e_step(encoded, confusions, priors, dtype=dtype)
        clamp_validated(updated, validated_objects, validated_labels)
        delta = float(np.max(np.abs(updated - assignment))) \
            if assignment.size else 0.0
        assignment = updated
        confusions = m_step(encoded, assignment, smoothing, dtype=dtype)
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
        posterior = aggregator.conclude(prob_set.answer_set, hypothetical,
                                        previous=prob_set)
        expected += weight * answer_set_uncertainty(posterior)
    return expected
