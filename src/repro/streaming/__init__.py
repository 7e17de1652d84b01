"""Streaming validation engine: incremental ingestion, warm-started i-EM.

The batch pipeline (``AnswerSet`` → ``encode_answers`` →
``IncrementalEM.conclude``) re-flattens the full ``n × k`` answer matrix and
re-aggregates from scratch on every call — fine for reproducing the paper's
figures, fatal for serving continuously arriving crowd traffic. This package
turns that pipeline into a *delta-maintained* one, following the paper's own
view-maintenance principle (§4.1): each new answer or expert validation
propagates only its marginal change.

Two pieces:

* :class:`ValidationSession` — the online engine. Ingests answers and
  expert validations incrementally, maintains mutable sufficient statistics
  (flat answer log and its sorted cell index) as deltas, and refines
  through its ``aggregator=IncrementalEM(...)``, warm-starting from the
  previous model. Batch and streaming solves run
  through the same ``IncrementalEM.refine``, so on identical inputs
  streaming and batch answers never disagree. Its public mutating
  methods are the only way to change it (``session.validation`` is a
  read-only view), so a journaled session logs every change.
* :mod:`repro.simulation.stream` (sibling module) — replays a simulated
  crowd as a timed answer/validation event stream for testing and
  benchmarking.

Quickstart
----------
>>> from repro.streaming import ValidationSession
>>> session = ValidationSession(n_objects=3, n_workers=2, n_labels=2)
>>> session.add_answers([(0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 1)])
4
>>> result = session.conclude()            # cold start
>>> session.add_validation(1, 1)           # expert input arrives
>>> session.add_answer(2, 0, 1)            # another crowd answer arrives
True
>>> result = session.conclude()            # warm-started, delta-driven
>>> [session.map_label(obj) for obj in range(3)]
[0, 1, 1]

Embedding in the batch world::

    session = ValidationSession.from_answer_set(answer_set)
    prob_set = session.conclude_snapshot()   # a ProbabilisticAnswerSet
"""

from repro.streaming.session import ValidationSession

__all__ = ["ValidationSession"]
