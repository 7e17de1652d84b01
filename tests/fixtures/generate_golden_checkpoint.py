"""Regenerate the golden checkpoint fixture (intentional changes only).

Builds a small deterministic session, checkpoints it through
:class:`repro.state.FileSessionStore` into ``golden_checkpoint/store``,
appends a short WAL tail *past* the checkpoint (so restore exercises
tail replay, not just snapshot loading), and records the expected
post-restore observables in ``golden_checkpoint/expected.json``.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/generate_golden_checkpoint.py

Commit the regenerated files together with the format change that
motivated them, and say why in the commit message.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np

from repro.core.iem import IncrementalEM
from repro.state import STATE_SCHEMA_VERSION, FileSessionStore
from repro.state import store as state_events
from repro.streaming import ValidationSession

ROOT = pathlib.Path(__file__).parent / "golden_checkpoint"


def build_session() -> ValidationSession:
    session = ValidationSession(
        8, 5, 3, aggregator=IncrementalEM(rng=20260807))
    session.add_answers([
        (0, 0, 1), (0, 1, 1), (0, 2, 0),
        (1, 0, 2), (1, 3, 2),
        (2, 1, 0), (2, 4, 0),
        (3, 2, 1), (3, 3, 1),
        (4, 0, 0), (4, 4, 2),
        (5, 1, 2), (5, 2, 2),
        (6, 3, 0), (6, 4, 0),
        (7, 0, 1), (7, 1, 2),
    ])
    session.add_validation(0, 1)
    session.add_validation(4, 0)
    session.set_masked_workers({4})
    # A mid-stream RNG position, not a fresh seed.
    session.aggregator.rng.random(5)
    session.conclude()
    return session


def main() -> None:
    if ROOT.exists():
        shutil.rmtree(ROOT)
    ROOT.mkdir(parents=True)
    store = FileSessionStore(ROOT / "store")
    session = build_session()
    store.checkpoint(session, meta={"fixture": "golden", "step": 0})

    # WAL tail past the checkpoint: restore must replay these.
    tail = [
        state_events.answer_event(5, 3, 2),
        state_events.validation_event(6, 0, overwrite=True),
        state_events.conclude_event(),
        state_events.step_event(1),
    ]
    for record in tail:
        store.append(record)
    state_events.replay_events(session, tail)

    restored = store.restore()
    expected = {
        "schema_version": STATE_SCHEMA_VERSION,
        "n_answers": int(restored.session.stats.n_answers),
        "n_validated": int(restored.session.validation.count),
        "wal_tail_replayed": int(restored.n_replayed),
        "map_labels": np.argmax(restored.session.model.assignment,
                                axis=1).tolist(),
        "next_uniform": float(restored.session.aggregator.rng.random()),
    }
    (ROOT / "expected.json").write_text(json.dumps(expected, indent=2)
                                        + "\n")
    print(json.dumps(expected, indent=2))


if __name__ == "__main__":
    main()
