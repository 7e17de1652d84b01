"""Tests for the faulty-worker masking guards (persistence, scope, cap).

These guards are engineering deviations from the paper's raw masking
rule; each is pinned here so a regression that silently reverts to the
collapse-prone raw behaviour is caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.process.faulty_filter import FaultyWorkerFilter
from repro.workers.spammer_detection import DetectionResult


def detection(spammer=(), sloppy=(), n_workers=10,
              scores=None) -> DetectionResult:
    spammer_mask = np.zeros(n_workers, dtype=bool)
    spammer_mask[list(spammer)] = True
    sloppy_mask = np.zeros(n_workers, dtype=bool)
    sloppy_mask[list(sloppy)] = True
    if scores is None:
        scores = np.where(spammer_mask, 0.05, 1.0)
    return DetectionResult(
        spammer_scores=np.asarray(scores, dtype=float),
        error_rates=np.where(sloppy_mask, 0.9, 0.1),
        evidence=np.full(n_workers, 5),
        spammer_mask=spammer_mask,
        sloppy_mask=sloppy_mask,
    )


class TestPersistence:
    def test_single_flag_does_not_mask(self):
        filt = FaultyWorkerFilter(persistence=3)
        filt.observe(detection(spammer=[2]))
        assert filt.commit() == frozenset()

    def test_consecutive_flags_mask(self):
        filt = FaultyWorkerFilter(persistence=3)
        for _ in range(3):
            filt.observe(detection(spammer=[2]))
        assert filt.commit() == frozenset({2})

    def test_broken_streak_resets(self):
        filt = FaultyWorkerFilter(persistence=2)
        filt.observe(detection(spammer=[2]))
        filt.observe(detection(spammer=[]))   # streak broken
        filt.observe(detection(spammer=[2]))
        assert filt.commit() == frozenset()

    def test_invalid_persistence(self):
        with pytest.raises(ValueError):
            FaultyWorkerFilter(persistence=0)


class TestScope:
    def test_default_scope_ignores_sloppy(self):
        filt = FaultyWorkerFilter(persistence=1)
        filt.observe(detection(spammer=[1], sloppy=[4]))
        assert filt.commit() == frozenset({1})

    def test_faulty_scope_includes_sloppy(self):
        filt = FaultyWorkerFilter(persistence=1)
        filt.observe(detection(spammer=[1], sloppy=[4]), scope="faulty")
        assert filt.commit() == frozenset({1, 4})

    def test_unknown_scope_rejected(self):
        filt = FaultyWorkerFilter()
        with pytest.raises(ValueError, match="scope"):
            filt.observe(detection(), scope="bogus")


class TestCap:
    def test_cap_prefers_lowest_scores(self):
        filt = FaultyWorkerFilter(persistence=1, max_masked_fraction=0.2)
        scores = np.ones(10)
        scores[[3, 7, 8]] = (0.01, 0.15, 0.19)  # 3 flagged, cap allows 2
        filt.observe(detection(spammer=[3, 7, 8], scores=scores))
        assert filt.commit() == frozenset({3, 7})

    def test_cap_never_rounds_to_zero(self):
        filt = FaultyWorkerFilter(persistence=1, max_masked_fraction=0.2)
        filt.observe(detection(spammer=[0], n_workers=2,
                               scores=np.array([0.0, 1.0])))
        assert filt.commit() == frozenset({0})

    def test_cap_disabled_at_one(self):
        filt = FaultyWorkerFilter(persistence=1, max_masked_fraction=1.0)
        filt.observe(detection(spammer=[0, 1, 2, 3, 4, 5]))
        assert filt.commit() == frozenset({0, 1, 2, 3, 4, 5})

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            FaultyWorkerFilter(max_masked_fraction=1.5)


class TestClear:
    def test_clear_resets_streaks_and_suspects(self):
        filt = FaultyWorkerFilter(persistence=1)
        filt.observe(detection(spammer=[1]))
        filt.commit()
        filt.clear()
        assert filt.suspected == frozenset()
        filt.observe(detection(spammer=[]))
        assert filt.commit() == frozenset()
