"""Bench: checkpoint/restore overhead at the acceptance scale.

How much does durability cost? At ``n = 2000`` objects and ``k = 200``
workers (the streaming acceptance regime), measures:

* ``checkpoint()`` latency for both store backends — the in-memory
  deep-copy snapshot and the file-backed npz-segments + manifest write;
* ``restore()`` latency from a file-backed checkpoint;
* per-event WAL append latency (the steady-state tax a live session
  pays between checkpoints);
* on-disk checkpoint size in bytes.

The printed numbers feed the checkpoint-overhead table in
``PERFORMANCE.md``. The behavioral floor asserted here is deliberately
loose (a checkpoint must cost well under a second and restore must be
bit-for-bit); the point of the file is the measurement, not a gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.iem import IncrementalEM
from repro.simulation import CrowdConfig, simulate_crowd
from repro.state import FileSessionStore, MemorySessionStore
from repro.state import store as state_events
from repro.streaming import ValidationSession

N_OBJECTS = 2000
N_WORKERS = 200
ANSWERS_PER_OBJECT = 15
N_LABELS = 4
RELIABILITY = 0.8

_SESSION = None


def _warm_session() -> ValidationSession:
    global _SESSION
    if _SESSION is None:
        crowd = simulate_crowd(
            CrowdConfig(n_objects=N_OBJECTS, n_workers=N_WORKERS,
                        n_labels=N_LABELS, reliability=RELIABILITY,
                        answers_per_object=ANSWERS_PER_OBJECT), rng=0)
        _SESSION = ValidationSession.from_answer_set(
            crowd.answer_set, aggregator=IncrementalEM(rng=0))
        for obj in range(0, 40):
            _SESSION.add_validation(obj, 0, overwrite=True)
        _SESSION.conclude()
    return _SESSION


def _dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def test_memory_checkpoint_latency(benchmark):
    session = _warm_session()
    store = MemorySessionStore()
    info = benchmark.pedantic(lambda: store.checkpoint(session),
                              rounds=5, iterations=1)
    assert info.n_answers == session.stats.n_answers


def test_file_checkpoint_latency(benchmark, tmp_path):
    session = _warm_session()
    store = FileSessionStore(tmp_path)
    info = benchmark.pedantic(lambda: store.checkpoint(session),
                              rounds=5, iterations=1)
    assert info.n_answers == session.stats.n_answers


def test_file_restore_latency(benchmark, tmp_path):
    session = _warm_session()
    store = FileSessionStore(tmp_path)
    store.checkpoint(session)
    restored = benchmark.pedantic(store.restore, rounds=5, iterations=1)
    assert restored.session.stats.n_answers == session.stats.n_answers


def test_wal_append_latency(benchmark, tmp_path):
    store = FileSessionStore(tmp_path)
    record = state_events.answer_event(0, 0, 1)
    benchmark(lambda: store.append(record))
    assert store.wal_position > 0


def test_checkpoint_size_and_roundtrip_report(tmp_path, capsys):
    """The PERFORMANCE.md numbers: bytes + ms at n=2000/k=200."""
    session = _warm_session()
    store = FileSessionStore(tmp_path)

    started = time.perf_counter()
    store.checkpoint(session)
    checkpoint_ms = (time.perf_counter() - started) * 1e3

    started = time.perf_counter()
    restored = store.restore()
    restore_ms = (time.perf_counter() - started) * 1e3

    size = _dir_bytes(tmp_path)
    answers = session.stats.n_answers
    with capsys.disabled():
        print(f"\ncheckpoint at n={N_OBJECTS}, k={N_WORKERS} "
              f"({answers} answers): {size / 1024:.0f} KiB, "
              f"write {checkpoint_ms:.1f} ms, restore {restore_ms:.1f} ms, "
              f"{size / answers:.1f} B/answer")

    np.testing.assert_array_equal(restored.session.model.assignment,
                                  session.model.assignment)
    np.testing.assert_array_equal(restored.session.aggregator.rng.random(4),
                                  session.capture_state().restore()
                                  .aggregator.rng.random(4))
    assert checkpoint_ms < 1000.0
