"""Ablation: information-gain candidate pruning (``candidate_limit``).

The experiments cap look-ahead to the top-K candidates by entropy. This
bench quantifies the design choice: selection latency vs agreement with the
unpruned selection across several process states.
"""

import numpy as np

from repro.core.iem import IncrementalEM
from repro.core.validation import ExpertValidation
from repro.guidance.base import GuidanceContext
from repro.guidance.information_gain import InformationGainStrategy
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.workers.spammer_detection import SpammerDetector

from _bench import interleaved_median_seconds

LIMITS = (5, 10, 20, None)


def _states(n_states=4):
    crowd = simulate_crowd(CrowdConfig(60, 20, reliability=0.7), rng=3)
    aggregator = IncrementalEM()
    validation = ExpertValidation.empty_for(crowd.answer_set)
    states = []
    state = aggregator.conclude(crowd.answer_set, validation)
    for i in range(n_states):
        states.append(state)
        for obj in range(i * 5, i * 5 + 5):
            validation.assign(obj, int(crowd.gold[obj]))
        state = aggregator.conclude(crowd.answer_set, validation,
                                    previous=state)
    return states, aggregator


def test_ablation_candidate_limit(benchmark, report_result):
    def ablate():
        states, aggregator = _states()

        def picks_of(limit):
            picks = []
            for state in states:
                context = GuidanceContext(
                    prob_set=state, aggregator=aggregator,
                    detector=SpammerDetector(),
                    rng=np.random.default_rng(0))
                strategy = InformationGainStrategy(candidate_limit=limit)
                picks.append(strategy.select(context).object_index)
            return picks

        picks = {limit: picks_of(limit) for limit in LIMITS}
        # Interleaved rounds put a drift in host speed on every limit
        # alike; one pass per limit put it on whichever ran during it.
        seconds = interleaved_median_seconds(
            [lambda limit=limit: picks_of(limit) for limit in LIMITS],
            rounds=5)
        # score agreement with the unpruned reference
        reference_picks = picks[None]
        out = []
        for limit, elapsed in zip(LIMITS, seconds):
            agreement = float(np.mean(
                [p == r for p, r in zip(picks[limit], reference_picks)]))
            out.append((str(limit), elapsed / len(states), agreement))
        return out

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    from repro.experiments.common import ExperimentResult
    report_result(ExperimentResult(
        experiment_id="ablation_candidate_limit",
        title="IG candidate pruning: latency vs agreement with unpruned",
        columns=["candidate_limit", "selection_s", "agreement"],
        rows=rows))
    unpruned = [row for row in rows if row[0] == "None"][0]
    assert unpruned[2] == 1.0
    # Pruning to 20 candidates keeps at least half the picks identical and
    # is not slower than the unpruned selection.
    limited = [row for row in rows if row[0] == "20"][0]
    assert limited[1] <= unpruned[1] * 1.1
