"""The confirmation check for erroneous answer validations (paper §5.5).

Triggered every fixed number of validation iterations, the check replays
each validated object ``o`` with its own expert input *excluded*: it
re-runs i-EM on the current snapshot's answers with ``e ∖ {o}`` and
compares the resulting deterministic label ``d_~o(o)`` with the recorded
expert input ``e(o)``.
A disagreement flags ``e(o)`` as a suspected case-2 mistake (the expert
wrongly confirmed an incorrect aggregated answer); the process then asks
the expert to reconsider, counting one extra unit of effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.iem import IncrementalEM
from repro.core.probabilistic import ProbabilisticAnswerSet


@dataclass(frozen=True)
class ConfirmationReport:
    """Outcome of one confirmation-check sweep.

    Attributes
    ----------
    checked:
        Object indices that were re-derived without their own validation.
    flagged:
        Subset of ``checked`` where the leave-one-out label disagreed with
        the recorded expert input.
    """

    checked: np.ndarray
    flagged: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.size)


class ConfirmationCheck:
    """Leave-one-out detector for erroneous expert validations.

    Parameters
    ----------
    aggregator:
        i-EM used for the leave-one-out re-aggregations (warm-started from
        the current state, so each replay is cheap).
    min_other_validations:
        Skip the check while fewer than this many *other* validations exist;
        with nothing else to lean on, the leave-one-out label is pure crowd
        aggregation and would re-flag every expert correction of the crowd.
    """

    def __init__(self,
                 aggregator: IncrementalEM | None = None,
                 min_other_validations: int = 1) -> None:
        self.aggregator = aggregator or IncrementalEM()
        self.min_other_validations = int(min_other_validations)

    def run(self, current: ProbabilisticAnswerSet) -> ConfirmationReport:
        """Sweep the validated objects of ``current`` and flag suspected
        mistakes.

        Each leave-one-out solve is
        ``aggregator.refine(current.encoded, current.validation.without(o),
        current)``: the snapshot's own answers, warm-started from its
        model. These are the floats ``IncrementalEM.conclude`` computes
        on the same answers with ``previous=current``.
        """
        validation = current.validation
        validated = validation.validated_indices()
        flagged: list[int] = []
        if validated.size - 1 < self.min_other_validations:
            return ConfirmationReport(checked=np.empty(0, np.int64))
        for obj in validated:
            posterior = self.aggregator.refine(
                current.encoded, validation.without(int(obj)), current)
            predicted = int(np.argmax(posterior.assignment[obj]))
            if predicted != validation.label_of(int(obj)):
                flagged.append(int(obj))
        return ConfirmationReport(checked=validated,
                                  flagged=np.array(flagged, dtype=np.int64))
