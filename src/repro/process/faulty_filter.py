"""Handling of suspected faulty workers (paper §5.3, "Handling faulty
workers").

A naive reaction to a spammer flag would permanently remove the worker —
risking the Table 3 mistake of expelling a truthful worker on thin early
evidence. Instead, the paper excludes only the *answers* of currently
suspected workers from aggregation while continuing to collect them; as
more expert input accumulates, a worker whose spammer score clears the
threshold is automatically re-included.

This module keeps that suspicion state with a *persistence* guard: a worker
is masked only after being flagged in ``persistence`` consecutive
detections. Single-shot flags on thin early evidence flicker (a couple of
validated answers make nearly any confusion matrix look rank-one), and
masking on flicker can strip the aggregation of its informative workers;
persistent flags are the ones the §5.3 detectors actually mean. Workers
whose flag streak breaks are re-included automatically, exactly the paper's
eventual re-inclusion behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.workers.spammer_detection import DetectionResult


class FaultyWorkerFilter:
    """Tracks the suspected faulty workers whose answers a session masks.

    The filter decides *who* is suspected; the answers leave the
    aggregation through ``session.set_masked_workers(filter.suspected)``.

    Parameters
    ----------
    persistence:
        Number of consecutive detections a worker must be flagged in
        before masking (1 = mask on any flag, the paper's raw behaviour).
    max_masked_fraction:
        Upper bound on the share of the community that may be masked at
        once, filled lowest-spammer-score-first. Genuine uniform/random
        spammers score ≈ 0 and always fit under the cap; honest workers on
        hard questions hover just below τ_s and are the ones the cap
        protects. Set to 1.0 to disable.
    """

    def __init__(self, persistence: int = 3,
                 max_masked_fraction: float = 0.2) -> None:
        if persistence < 1:
            raise ValueError(f"persistence must be >= 1, got {persistence}")
        if not 0.0 <= max_masked_fraction <= 1.0:
            raise ValueError("max_masked_fraction must be in [0, 1], got "
                             f"{max_masked_fraction}")
        self.persistence = int(persistence)
        self.max_masked_fraction = float(max_masked_fraction)
        self._streaks: dict[int, int] = {}
        self._last_scores: dict[int, float] = {}
        self._n_workers: int | None = None
        self._suspected: frozenset[int] = frozenset()
        #: History of suspect-set sizes, one entry per handle() call.
        self.history: list[int] = []

    @property
    def suspected(self) -> frozenset[int]:
        """Worker indices whose answers are currently excluded."""
        return self._suspected

    def observe(self, detection: DetectionResult,
                scope: str = "spammers") -> None:
        """Record one detection pass (extends/breaks per-worker streaks).

        Call once per validation iteration (Algorithm 1 line 11 runs
        detection every iteration, whether or not spammers are handled).

        Parameters
        ----------
        scope:
            ``"spammers"`` (default) tracks only uniform/random spammers
            for masking; ``"faulty"`` additionally tracks sloppy workers.
            Masking sloppy workers is counter-productive under a
            confusion-matrix aggregation — a consistently wrong worker is
            still informative once EM learns to invert them, whereas a
            spammer's answers carry no signal — so the narrower scope is
            the default.
        """
        if scope == "spammers":
            mask = detection.spammer_mask
        elif scope == "faulty":
            mask = detection.faulty_mask
        else:
            raise ValueError(f"unknown scope {scope!r}")
        flagged = {int(w) for w in np.flatnonzero(mask)}
        self._n_workers = int(mask.size)
        for worker in flagged:
            self._streaks[worker] = self._streaks.get(worker, 0) + 1
            self._last_scores[worker] = float(detection.spammer_scores[worker])
        for worker in list(self._streaks):
            if worker not in flagged:
                del self._streaks[worker]

    def commit(self) -> frozenset[int]:
        """Adopt the persistently-flagged workers as the suspect set.

        Workers whose streak broke drop out (their answers return to the
        aggregation); persistently flagged workers are masked, lowest
        spammer score first, up to ``max_masked_fraction`` of the
        community.
        """
        eligible = [worker for worker, streak in self._streaks.items()
                    if streak >= self.persistence]
        if self._n_workers is not None:
            # At least one worker may always be masked; tiny communities
            # would otherwise round the cap down to zero.
            cap = max(1, int(self.max_masked_fraction * self._n_workers))
            if len(eligible) > cap:
                eligible.sort(
                    key=lambda w: self._last_scores.get(w, float("inf")))
                eligible = eligible[:cap]
        self._suspected = frozenset(eligible)
        self.history.append(len(self._suspected))
        return self._suspected

    def handle(self, detection: DetectionResult) -> frozenset[int]:
        """Convenience: :meth:`observe` one detection, then :meth:`commit`."""
        self.observe(detection)
        return self.commit()

    def clear(self) -> None:
        """Forget all suspicions (all answers are used again)."""
        self._suspected = frozenset()
        self._streaks = {}

    def suspected_mask(self, n_workers: int) -> np.ndarray:
        """Boolean mask over workers, true where suspected."""
        mask = np.zeros(n_workers, dtype=bool)
        if self._suspected:
            mask[list(self._suspected)] = True
        return mask

    def __repr__(self) -> str:
        return f"FaultyWorkerFilter(suspected={sorted(self._suspected)})"
