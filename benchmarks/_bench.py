"""Shared helpers for the floor-asserting benchmarks.

``record`` merges one measurement section into this pytest session's run
in ``BENCH_guidance.json`` at the repository root — the per-PR
performance trajectory the CI benchmark jobs upload. It writes only when
``REPRO_BENCH_RECORD=1`` is set, so running the test suite never
modifies that tracked file; the floors and ceilings are asserted either
way.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_guidance.json"

#: Environment switch that enables :func:`record`.
RECORD_ENV = "REPRO_BENCH_RECORD"

#: One run entry per pytest session: every section recorded in this
#: process lands under the same timestamp.
_RUN_STAMP = round(time.time(), 3)


def record(section: str, payload: dict) -> None:
    """Merge one section into this session's run (only when enabled)."""
    if os.environ.get(RECORD_ENV) != "1":
        return
    if BENCH_PATH.exists():
        document = json.loads(BENCH_PATH.read_text())
    else:
        document = {"benchmark": "guidance", "runs": []}
    run = next((r for r in document["runs"]
                if r.get("timestamp") == _RUN_STAMP), None)
    if run is None:
        run = {"timestamp": _RUN_STAMP}
        document["runs"].append(run)
    run[section] = payload
    BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")


def median_seconds(fn, rounds: int) -> float:
    """Median wall time of ``rounds`` calls of ``fn``."""
    return interleaved_median_seconds([fn], rounds)[0]


def interleaved_median_seconds(fns, rounds: int) -> list[float]:
    """Median wall time of each of ``fns`` over ``rounds`` rounds.

    Every round calls each function once, in order, so a drift in host
    speed lands on all of them alike; timing them one after another
    would put it on whichever ran during the slow spell.
    """
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(rounds):
        for fn, samples in zip(fns, times):
            started = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - started)
    return [statistics.median(samples) for samples in times]
