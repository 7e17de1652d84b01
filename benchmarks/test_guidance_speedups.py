"""Acceptance benchmarks for the sublinear guidance engine (ISSUE 2).

Three floor-asserted speedups, each measured against a faithful replica of
the pre-overhaul ("PR-1") code path:

* one EM iteration, the sparse-operator kernel
  (:class:`~repro.core.em_kernel.KernelPlan`) vs the ``np.add.at``
  reference of ``tests/reference.py`` — floor **2x** at ``n=2000, k=200``;
* ``InformationGainStrategy.select`` vs the rebuild-per-conclude PR-1
  scorer at ``n=1000, candidate_limit=50`` — floor **5x** for the
  localized look-ahead mode (the exact shared-encoding mode is recorded,
  and must stay bitwise-equal to PR-1 while beating it);
* ``greedy_max_entropy_subset`` CELF lazy-greedy vs the quadratic
  slogdet-per-candidate greedy of ``tests/reference.py`` — floor **10x**
  at ``n=256, size=32``.

With ``REPRO_BENCH_RECORD=1`` every run appends an ops/sec + speedup
entry to ``BENCH_guidance.json`` at the repository root, building a
per-PR performance trajectory (the CI benchmark job sets it and uploads
the file as an artifact).
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.em import DawidSkeneEM
from repro.core.iem import IncrementalEM
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.core.validation import ExpertValidation
from repro.guidance import InformationGainStrategy, greedy_max_entropy_subset
from repro.guidance.base import GuidanceContext
from repro.guidance.joint_entropy import (gaussian_joint_entropy,
                                          object_covariance)
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.workers.spammer_detection import SpammerDetector

import reference
from _bench import interleaved_median_seconds, median_seconds, record


#: Conservative acceptance floors (the measured ratios run well above).
EM_ITERATION_FLOOR = 2.0
SELECT_FLOOR = 5.0
GREEDY_FLOOR = 10.0


# ----------------------------------------------------------------------
# 1. EM iteration: segment-reduce kernel plan vs np.add.at reference
# ----------------------------------------------------------------------
def test_em_iteration_segment_reduce_speedup():
    crowd = simulate_crowd(
        CrowdConfig(n_objects=2000, n_workers=200, n_labels=4,
                    answers_per_object=15, reliability=0.8), rng=0)
    encoded = em_kernel.encode_answers(crowd.answer_set)
    assignment = em_kernel.initial_assignment_majority(encoded)
    confusions = em_kernel.m_step(encoded, assignment)  # builds the plan
    priors = em_kernel.estimate_priors(assignment)

    def iteration(impl):
        updated = impl.e_step(encoded, confusions, priors)
        return impl.m_step(encoded, updated)

    fast_conf = iteration(em_kernel)
    ref_conf = iteration(reference)
    assert np.array_equal(fast_conf, ref_conf), \
        "segment-reduce iteration is not bit-for-bit with np.add.at"

    fast = median_seconds(lambda: iteration(em_kernel), rounds=11)
    ref = median_seconds(lambda: iteration(reference), rounds=11)
    speedup = ref / fast
    print(f"\nEM iteration at n=2000/k=200/m=4: plan {fast * 1e3:.2f} ms "
          f"vs add.at {ref * 1e3:.2f} ms -> {speedup:.1f}x")
    record("em_iteration", {
        "n_objects": 2000, "n_workers": 200, "n_labels": 4,
        "n_answers": encoded.n_answers,
        "ref_ops_per_sec": 1.0 / ref, "fast_ops_per_sec": 1.0 / fast,
        "speedup": speedup, "floor": EM_ITERATION_FLOOR,
    })
    assert speedup >= EM_ITERATION_FLOOR, (
        f"segment-reduce EM iteration only {speedup:.1f}x faster than the "
        f"np.add.at reference (floor {EM_ITERATION_FLOOR}x)")


# ----------------------------------------------------------------------
# 2. InformationGainStrategy.select vs the PR-1 rebuild-per-conclude path
# ----------------------------------------------------------------------
def _pr1_scores(prob_set, candidates, label_floor, max_iter, tol, smoothing):
    """Faithful PR-1 scorer: re-encode + reference kernels per conclude."""
    current = answer_set_uncertainty(prob_set)
    expected = []
    for obj in candidates:
        total = 0.0
        for label, weight in enumerate(prob_set.assignment[obj]):
            if weight < label_floor:
                total += weight * current
                continue
            hypothetical = prob_set.validation.with_assignment(
                int(obj), int(label))
            encoded = prob_set.encoded
            initial = reference.e_step(encoded, prob_set.confusions,
                                       prob_set.priors)
            result = reference.run_em(
                encoded, initial, hypothetical.validated_indices(),
                hypothetical.validated_labels(), max_iter=max_iter, tol=tol,
                smoothing=smoothing)
            total += weight * float(
                object_entropies(result.assignment).sum())
        expected.append(total)
    return current - np.array(expected)


def test_information_gain_select_speedup():
    crowd = simulate_crowd(
        CrowdConfig(n_objects=1000, n_workers=250, answers_per_object=4),
        rng=0)
    validation = ExpertValidation.empty_for(crowd.answer_set)
    for obj in range(20):
        validation.assign(obj, int(crowd.gold[obj]))
    aggregator = IncrementalEM()
    prob_set = aggregator.conclude(crowd.answer_set, validation)

    def context():
        return GuidanceContext(prob_set=prob_set, aggregator=aggregator,
                               detector=SpammerDetector(),
                               rng=np.random.default_rng(0))

    exact = InformationGainStrategy(candidate_limit=50)
    local = InformationGainStrategy(candidate_limit=50, lookahead="local")
    exact_selection = exact.select(context())  # warm (and reused below)
    local.select(context())

    candidates = exact_selection.candidate_indices
    reference_scores = _pr1_scores(
        prob_set, candidates, exact.label_floor, exact.lookahead_max_iter,
        aggregator.tol, aggregator.smoothing)
    assert np.array_equal(exact_selection.scores, reference_scores), \
        "shared-encoding look-ahead drifted from the PR-1 scores"
    # Interleaved rounds: the three timings share the host's drift, so
    # their ratios do not depend on which ran during a slow spell.
    pr1_time, exact_time, local_time = interleaved_median_seconds([
        lambda: _pr1_scores(prob_set, candidates, exact.label_floor,
                            exact.lookahead_max_iter, aggregator.tol,
                            aggregator.smoothing),
        lambda: exact.select(context()),
        lambda: local.select(context()),
    ], rounds=5)

    exact_speedup = pr1_time / exact_time
    local_speedup = pr1_time / local_time
    print(f"\nselect at n=1000/candidate_limit=50: PR-1 "
          f"{pr1_time * 1e3:.0f} ms, shared-exact {exact_time * 1e3:.0f} ms "
          f"({exact_speedup:.1f}x), localized {local_time * 1e3:.0f} ms "
          f"({local_speedup:.1f}x)")
    record("information_gain_select", {
        "n_objects": 1000, "n_workers": 250, "candidate_limit": 50,
        "pr1_ops_per_sec": 1.0 / pr1_time,
        "exact_ops_per_sec": 1.0 / exact_time,
        "local_ops_per_sec": 1.0 / local_time,
        "exact_speedup": exact_speedup, "local_speedup": local_speedup,
        "floor": SELECT_FLOOR,
    })
    # The exact mode must beat PR-1 while reproducing it bitwise; the
    # localized mode carries the 5x acceptance floor.
    assert exact_speedup >= 1.5, (
        f"shared-encoding select only {exact_speedup:.1f}x faster than PR-1")
    assert local_speedup >= SELECT_FLOOR, (
        f"localized select only {local_speedup:.1f}x faster than the PR-1 "
        f"path (floor {SELECT_FLOOR}x)")


# ----------------------------------------------------------------------
# 3. Lazy-greedy joint entropy vs the quadratic reference
# ----------------------------------------------------------------------
def test_lazy_greedy_entropy_speedup():
    crowd = simulate_crowd(
        CrowdConfig(n_objects=256, n_workers=32, answers_per_object=6,
                    reliability=0.65), rng=0)
    prob_set = DawidSkeneEM().fit(crowd.answer_set)
    covariance = object_covariance(prob_set)
    size = 32

    lazy_subset, lazy_value = greedy_max_entropy_subset(covariance, size)
    quad_subset = reference.quadratic_greedy_indices(covariance, size)
    assert np.array_equal(lazy_subset, quad_subset), \
        "CELF selection diverged from the quadratic greedy"
    assert lazy_value == gaussian_joint_entropy(covariance, quad_subset)

    lazy = median_seconds(
        lambda: greedy_max_entropy_subset(covariance, size), rounds=5)
    quadratic = median_seconds(
        lambda: reference.quadratic_greedy_indices(covariance, size),
        rounds=3)
    speedup = quadratic / lazy
    print(f"\ngreedy subset at n=256/size=32: lazy {lazy * 1e3:.1f} ms vs "
          f"quadratic {quadratic * 1e3:.1f} ms -> {speedup:.1f}x")
    record("greedy_max_entropy_subset", {
        "n_objects": 256, "subset_size": size,
        "quadratic_ops_per_sec": 1.0 / quadratic,
        "lazy_ops_per_sec": 1.0 / lazy,
        "speedup": speedup, "floor": GREEDY_FLOOR,
    })
    assert speedup >= GREEDY_FLOOR, (
        f"lazy-greedy subset selection only {speedup:.1f}x faster than the "
        f"quadratic greedy (floor {GREEDY_FLOOR}x)")
