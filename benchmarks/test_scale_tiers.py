"""Scale-tier acceptance benchmarks: memory-lean encodings at 10⁵–10⁶
objects (the PR 9 tentpole).

Two synthetic sparse tiers, generated directly as flat encodings (no
``n × k`` dense matrix is ever materialized — at these sizes the matrix
itself would dwarf the kernel's working set):

* **50k tier** — n=50 000 objects × k=2 500 workers, m=4 labels,
  20 answers/object (A=1 000 000) — runs on every PR;
* **500k tier** — n=500 000 × k=10 000, m=4, 4 answers/object
  (A=2 000 000) — ``slow``-marked, nightly/manual CI only.

Each tier asserts its floors against a faithful *int64 baseline*: a
self-contained copy of the retired flat-gather ``np.bincount`` EM
iteration with 8-byte indices and float64 accumulation — exactly what
every encoding paid before the width-adaptive dtypes and the sparse
incidence operators landed:

1. **peak-memory ceiling** — tracemalloc peak across plan build + one
   full EM iteration on the narrow path (int32 incidence operators,
   float64 values) must be ≤ 0.6× the int64 baseline's peak;
2. **plan size** — the narrow plan must hold ≤ 20 bytes per answer;
3. **throughput floor** — the bit-exact float64 plan path must sustain a
   conservative answers/second floor per EM iteration.

With ``REPRO_BENCH_RECORD=1`` every run appends its measurements to
``BENCH_guidance.json`` at the repository root (the CI benchmarks job
sets it and uploads the file), extending the per-PR performance
trajectory with ``scale_tier_*`` sections.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import em_kernel
from repro.core.confusion import PROB_FLOOR

from _bench import median_seconds, record


#: Peak-memory ceiling: narrow path vs int64 baseline (measured ≈ 0.22
#: at the 50k tier, ≈ 0.42 at 500k).
PEAK_MEMORY_RATIO_CEILING = 0.6

#: Plan size ceiling, bytes per answer (measured ≈ 16.2 at the 50k
#: tier, ≈ 17.1 at 500k).
PLAN_BYTES_PER_ANSWER_CEILING = 20.0

#: Conservative per-tier throughput floors for one float64 EM iteration,
#: in answers/second (measured ≈ 63M and ≈ 23M on a 2-CPU container;
#: floors leave wide headroom for slower CI runners).
THROUGHPUT_FLOOR_50K = 2.0e6
THROUGHPUT_FLOOR_500K = 1.5e6

TIER_50K = dict(n=50_000, k=2_500, m=4, per=20)
TIER_500K = dict(n=500_000, k=10_000, m=4, per=4)


# ----------------------------------------------------------------------
# Synthetic sparse tiers (flat encodings, no dense matrix)
# ----------------------------------------------------------------------
def synth_encoding(n: int, k: int, m: int, per: int) -> \
        em_kernel.EncodedAnswers:
    """A deterministic sparse tier: ``per`` distinct workers per object.

    Worker sets are strided residues (distinct because
    ``per · stride <= k``), sorted ascending within each object, so the
    triple arrays land in the exact (object, worker)-sorted order both
    real construction paths emit. Labels cycle deterministically — the
    kernel's cost profile depends on shapes, not on label content.
    """
    stride = max(1, k // per)
    base = (np.arange(n, dtype=np.int64) * 7919) % k
    wrk = (base[:, None]
           + np.arange(per, dtype=np.int64)[None, :] * stride) % k
    wrk = np.sort(wrk, axis=1)
    obj = np.repeat(np.arange(n, dtype=np.int64), per)
    lab = (obj + wrk.reshape(-1)) % m
    dtype = em_kernel.index_dtype(n, k, m, obj.size)
    return em_kernel.EncodedAnswers(
        n_objects=n, n_workers=k, n_labels=m,
        object_index=np.ascontiguousarray(obj, dtype=dtype),
        worker_index=np.ascontiguousarray(wrk.reshape(-1), dtype=dtype),
        label_index=np.ascontiguousarray(lab, dtype=dtype))


def int64_baseline_iteration(encoded: em_kernel.EncodedAnswers) -> None:
    """Plan build + one float64 EM iteration of the retired int64 path.

    A self-contained copy of the flat-gather ``np.bincount`` kernel the
    sparse incidence operators replaced, with 8-byte indices: an
    ``(m, A)`` confusion gather that doubles as the M-step scatter
    target, an ``(m, A)`` assignment gather, and per-label E-step
    bincounts over the object index. Each stage is its own function so
    its temporaries die when it returns, as they did in the original.
    """
    n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels

    def build_plan():
        wi = encoded.worker_index.astype(np.int64)
        li = encoded.label_index.astype(np.int64)
        oi = np.ascontiguousarray(encoded.object_index.astype(np.int64))
        rows = np.arange(m, dtype=np.int64)[:, None]
        return (oi, np.ascontiguousarray((wi[None, :] * m + rows) * m
                                         + li[None, :]),
                np.ascontiguousarray(oi[None, :] * m + rows))

    def m_step(assignment):
        counts = np.bincount(
            conf_gather.reshape(-1),
            weights=assignment.reshape(-1)[assign_gather.reshape(-1)],
            minlength=k * m * m).reshape(k, m, m)
        smoothed = counts + em_kernel.DEFAULT_SMOOTHING
        return smoothed / smoothed.sum(axis=-1, keepdims=True)

    def scatter_log_likelihood(log_confusions):
        log_like = np.empty((n, m))
        contributions = log_confusions.reshape(-1)[conf_gather]
        for label in range(m):
            log_like[:, label] = np.bincount(
                object_index, weights=contributions[label], minlength=n)
        return log_like

    def e_step(confusions, priors):
        log_like = scatter_log_likelihood(
            np.log(np.clip(confusions, PROB_FLOOR, None)))
        log_like += np.log(np.clip(priors, PROB_FLOOR, None))[None, :]
        log_like -= log_like.max(axis=1, keepdims=True)
        assignment = np.exp(log_like)
        assignment /= assignment.sum(axis=1, keepdims=True)
        return assignment

    object_index, conf_gather, assign_gather = build_plan()
    assignment = em_kernel.initial_assignment_majority(encoded)
    confusions = m_step(assignment)
    e_step(confusions, em_kernel.estimate_priors(assignment))


def narrow_iteration(encoded: em_kernel.EncodedAnswers) -> None:
    """Plan build + one EM iteration on the narrow (int32) path."""
    em_kernel.kernel_plan(encoded)
    assignment = em_kernel.initial_assignment_majority(encoded)
    confusions = em_kernel.m_step(encoded, assignment)
    priors = em_kernel.estimate_priors(assignment)
    em_kernel.e_step(encoded, confusions, priors)


def plan_bytes(plan: em_kernel.KernelPlan) -> int:
    """Bytes the plan's operators hold (the shared ones counted once)."""
    by_object, by_cell = plan.object_incidence, plan.cell_incidence
    return (by_object.data.nbytes + by_object.indices.nbytes
            + by_object.indptr.nbytes + by_cell.indices.nbytes
            + by_cell.indptr.nbytes)


def _peak_em_bytes(tier: dict, iteration) -> int:
    """tracemalloc peak over plan build + one full EM iteration.

    A fresh encoding per measurement: plans memoize on the encoding, so
    reuse would hide the plan build from whichever path ran second.
    """
    encoded = synth_encoding(**tier)
    tracemalloc.start()
    iteration(encoded)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _run_tier(tier: dict, tier_name: str, throughput_floor: float) -> None:
    n_answers = tier["n"] * tier["per"]

    # -- memory: narrow (int32 operators) vs int64 ----------------------
    baseline_peak = _peak_em_bytes(tier, int64_baseline_iteration)
    narrow_peak = _peak_em_bytes(tier, narrow_iteration)
    ratio = narrow_peak / baseline_peak

    # -- throughput: the bit-exact float64 plan path ---------------------
    encoded = synth_encoding(**tier)
    assert encoded.object_index.dtype == np.int32  # the tier IS narrow
    plan = em_kernel.kernel_plan(encoded)
    assert plan.object_incidence.indices.dtype == np.int32
    assert plan.cell_incidence.indices.dtype == np.int32
    plan_bytes_per_answer = plan_bytes(plan) / n_answers
    assignment = em_kernel.initial_assignment_majority(encoded)
    confusions = em_kernel.m_step(encoded, assignment)
    priors = em_kernel.estimate_priors(assignment)

    def iteration() -> None:
        updated = em_kernel.e_step(encoded, confusions, priors)
        em_kernel.m_step(encoded, updated)

    iteration()  # warm-up
    seconds = median_seconds(iteration, rounds=5)
    answers_per_second = n_answers / seconds

    record(f"scale_tier_{tier_name}", {
        "n_objects": tier["n"], "n_workers": tier["k"],
        "n_labels": tier["m"], "n_answers": n_answers,
        "baseline_peak_bytes": int(baseline_peak),
        "narrow_peak_bytes": int(narrow_peak),
        "peak_ratio": round(ratio, 4),
        "baseline_bytes_per_answer": round(baseline_peak / n_answers, 2),
        "narrow_bytes_per_answer": round(narrow_peak / n_answers, 2),
        "plan_bytes_per_answer": round(plan_bytes_per_answer, 2),
        "em_iteration_seconds": round(seconds, 5),
        "answers_per_second": round(answers_per_second, 1),
        "throughput_floor": throughput_floor,
        "peak_ratio_ceiling": PEAK_MEMORY_RATIO_CEILING,
        "plan_bytes_per_answer_ceiling": PLAN_BYTES_PER_ANSWER_CEILING,
    })

    assert ratio <= PEAK_MEMORY_RATIO_CEILING, (
        f"{tier_name}: narrow-path peak {narrow_peak / 1e6:.1f}MB is "
        f"{ratio:.3f}x the int64 baseline {baseline_peak / 1e6:.1f}MB "
        f"(ceiling {PEAK_MEMORY_RATIO_CEILING}x)")
    assert plan_bytes_per_answer <= PLAN_BYTES_PER_ANSWER_CEILING, (
        f"{tier_name}: plan holds {plan_bytes_per_answer:.1f} B/answer "
        f"(ceiling {PLAN_BYTES_PER_ANSWER_CEILING})")
    assert answers_per_second >= throughput_floor, (
        f"{tier_name}: {answers_per_second / 1e6:.2f}M answers/s per EM "
        f"iteration under the {throughput_floor / 1e6:.1f}M floor")


def test_scale_tier_50k():
    _run_tier(TIER_50K, "50k", THROUGHPUT_FLOOR_50K)


@pytest.mark.slow
def test_scale_tier_500k():
    _run_tier(TIER_500K, "500k", THROUGHPUT_FLOOR_500K)
