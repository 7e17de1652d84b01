"""Acceptance benchmarks for quality targets (ISSUE 8).

Two floor-asserted claims, both recorded into ``BENCH_guidance.json``
when ``REPRO_BENCH_RECORD=1``:

* **Effort savings** — under ``QualityTarget(0.999, min_coverage=0.9)``
  the batch path spends **>= 20 % fewer validations at equal-or-better
  precision** than the budget-exhausting static run on at least two
  registry scenarios (the experiment driver
  :mod:`repro.experiments.quality_targets` generates the full table);
* **Frontier drain** — per-selection look-ahead time shrinks
  monotonically as the concluded mask prunes the candidate frontier
  (floor: 75 % concluded runs in at most 60 % of the unpruned time).
"""

from __future__ import annotations

import numpy as np

from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.experiments.quality_targets import HEADLINE_SCENARIOS, run
from repro.guidance import InformationGainStrategy
from repro.guidance.base import GuidanceContext
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.workers.spammer_detection import SpammerDetector

from _bench import median_seconds, record


#: At least this fraction of the static run's validations must be saved,
#: on at least this many registry scenarios, at equal-or-better precision.
SAVINGS_FLOOR = 0.20
MIN_QUALIFYING_SCENARIOS = 2

#: A 75 %-concluded frontier must cost at most this fraction of the
#: unpruned select time (the measured ratio runs well below).
DRAIN_FLOOR = 0.60


# ----------------------------------------------------------------------
# 1. >= 20 % fewer validations at equal precision on >= 2 scenarios
# ----------------------------------------------------------------------
def test_quality_target_effort_savings(report_result):
    result = run(scale=0.5, seed=0)  # the headline scenarios
    report_result(result)
    qualifying = []
    for (name, static_effort, static_precision, targeted_effort,
         targeted_precision, savings_pct, n_concluded) in result.rows:
        saved = 1.0 - targeted_effort / max(1, static_effort)
        if saved >= SAVINGS_FLOOR and \
                targeted_precision >= static_precision - 1e-12:
            qualifying.append(name)
    record("quality_targets", {
        "confidence": result.metadata["confidence"],
        "min_coverage": result.metadata["min_coverage"],
        "scenarios": [
            {"scenario": row[0], "static_effort": row[1],
             "static_precision": row[2], "targeted_effort": row[3],
             "targeted_precision": row[4], "savings_pct": row[5],
             "n_concluded": row[6]}
            for row in result.rows
        ],
        "qualifying": qualifying,
        "savings_floor": SAVINGS_FLOOR,
    })
    assert len(qualifying) >= MIN_QUALIFYING_SCENARIOS, (
        f"only {qualifying} of {list(HEADLINE_SCENARIOS)} saved "
        f">= {SAVINGS_FLOOR:.0%} validations at equal-or-better precision "
        f"(need {MIN_QUALIFYING_SCENARIOS})")


# ----------------------------------------------------------------------
# 2. Look-ahead time shrinks monotonically as the frontier drains
# ----------------------------------------------------------------------
def test_lookahead_time_shrinks_as_frontier_drains():
    n_objects = 240
    crowd = simulate_crowd(
        CrowdConfig(n_objects=n_objects, n_workers=30,
                    answers_per_object=10, reliability=0.8), rng=0)
    aggregator = IncrementalEM()
    prob_set = aggregator.conclude(
        crowd.answer_set, ExpertValidation.empty_for(crowd.answer_set))
    strategy = InformationGainStrategy(candidate_limit=None,
                                       lookahead="local")
    detector = SpammerDetector()
    drain_order = np.random.default_rng(1).permutation(n_objects)

    fractions = (0.0, 0.25, 0.5, 0.75)
    times = []
    for fraction in fractions:
        concluded = np.zeros(n_objects, dtype=bool)
        concluded[drain_order[:int(fraction * n_objects)]] = True
        context = GuidanceContext(
            prob_set=prob_set, aggregator=aggregator, detector=detector,
            rng=np.random.default_rng(0),
            concluded=concluded if fraction else None)
        times.append(median_seconds(lambda: strategy.select(context),
                                    rounds=3))
    ratio = times[-1] / times[0]
    print("\nlook-ahead select vs concluded fraction: " + ", ".join(
        f"{f:.0%}: {t * 1e3:.1f} ms" for f, t in zip(fractions, times)))
    record("frontier_drain", {
        "n_objects": n_objects,
        "fractions": list(fractions),
        "select_seconds": times,
        "ratio_75_to_0": ratio,
        "floor": DRAIN_FLOOR,
    })
    for earlier, later in zip(times, times[1:]):
        # Monotone up to timer jitter: a drained frontier never costs more.
        assert later <= earlier * 1.10, (
            f"select time rose as the frontier drained: {times}")
    assert ratio <= DRAIN_FLOOR, (
        f"75 %-concluded select only {ratio:.2f}x of the unpruned time "
        f"(floor {DRAIN_FLOOR})")
