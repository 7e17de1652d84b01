"""Kill-and-resume conformance: crashes must be invisible in the floats.

The fourth differential path (:meth:`ScenarioRunner.replay_crash_resume`)
replays each registry scenario's recorded validation run while killing the
live session at random step boundaries and rebuilding it from the store —
latest checkpoint plus WAL-tail replay. Because restore is bit-for-bit
and the WAL re-executes the same warm-started conclude chain, the final
posterior must equal the uninterrupted streaming replay's **exactly**
(L∞ = 0.0) — on every required scenario, under both store backends, and
no matter how many kills land.

Also covered here: the periodic checkpoint cadences wired into
:class:`~repro.process.ValidationProcess` (per-iteration) and
:func:`repro.simulation.stream.replay` (event-clock), and the committed
golden checkpoint fixture that pins the on-disk format.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.iem import IncrementalEM
from repro.process import ValidationProcess
from repro.scenarios import ScenarioRunner, compile_registered
from repro.simulation.stream import replay
from repro.state import STATE_SCHEMA_VERSION, FileSessionStore
from repro.streaming import ValidationSession

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Kill-and-resume must hold on at least these workloads (≥ 5).
CRASH_SCENARIOS = ("reliability-drift", "sleeper-spammers",
                   "colluding-clique", "label-skew", "fallible-expert",
                   "worker-churn", "duplicate-resubmissions")


def _crash_resume_gap(runner: ScenarioRunner, name: str,
                      store=None) -> float:
    scenario = compile_registered(name)
    process, steps = runner.run_batch(scenario, "exact")
    streaming = runner.replay_streaming(scenario, steps, process.session)
    resumed = runner.replay_crash_resume(scenario, steps, process.session,
                                         store=store)
    return float(np.max(np.abs(streaming - resumed)))


class TestRunnerCrashResume:
    @pytest.mark.parametrize("name", CRASH_SCENARIOS)
    def test_kill_and_resume_is_bit_equal(self, name):
        assert _crash_resume_gap(ScenarioRunner(), name) == 0.0

    def test_file_store_backend_is_bit_equal(self, tmp_path):
        """The same contract through the on-disk format (npz + manifest +
        JSONL WAL), with an aggressive kill count."""
        runner = ScenarioRunner(n_kills=4, checkpoint_every=2)
        store = FileSessionStore(tmp_path)
        assert _crash_resume_gap(runner, "colluding-clique", store) == 0.0
        # The run actually exercised both layers of the store.
        assert len(store.checkpoints()) > 1
        assert store.wal_position > 0

    def test_every_boundary_killed_still_exact(self):
        """Kill at every single step boundary: resume never drifts."""
        runner = ScenarioRunner(n_kills=10 ** 6, checkpoint_every=3)
        assert _crash_resume_gap(runner, "reliability-drift") == 0.0

    def test_sparse_checkpoints_force_long_wal_tails(self):
        """A huge checkpoint interval makes every resume replay a long
        WAL tail — restore correctness must not depend on checkpoint
        frequency."""
        runner = ScenarioRunner(n_kills=3, checkpoint_every=10 ** 6)
        assert _crash_resume_gap(runner, "sleeper-spammers") == 0.0


class TestProcessCheckpointCadence:
    def test_periodic_checkpoints_and_restore_match_live(self, tmp_path):
        scenario = compile_registered("fallible-expert")
        store = FileSessionStore(tmp_path)
        from repro.experts import ScriptedExpert
        process = ValidationProcess(
            scenario.answer_set,
            ScriptedExpert({i: int(lab) for i, lab
                            in enumerate(scenario.expert_labels)}),
            budget=8, store=store, checkpoint_every=3, rng=11)
        process.run()
        # Cadence checkpoints at iterations 3 and 6, plus the final one.
        assert len(store.checkpoints()) == 3
        restored = store.restore().session
        np.testing.assert_array_equal(restored.model.assignment,
                                      process.session.model.assignment)
        np.testing.assert_array_equal(restored.validation.as_array(),
                                      process.session.validation.as_array())

    def test_mid_run_crash_resumes_to_live_state(self, tmp_path):
        """Steps after the last checkpoint live only in the WAL — a
        restore mid-run still lands exactly on the live session."""
        scenario = compile_registered("fallible-expert")
        store = FileSessionStore(tmp_path)
        from repro.experts import ScriptedExpert
        process = ValidationProcess(
            scenario.answer_set,
            ScriptedExpert({i: int(lab) for i, lab
                            in enumerate(scenario.expert_labels)}),
            budget=10, store=store, checkpoint_every=4, rng=11)
        for _ in range(6):  # two steps past the iteration-4 checkpoint
            process.step()
        restored = store.restore()
        assert restored.n_replayed > 0  # the WAL tail did the work
        np.testing.assert_array_equal(
            restored.session.model.assignment,
            process.session.model.assignment)


class TestStreamCheckpointCadence:
    def test_event_clock_checkpoints_and_restore(self, tmp_path):
        scenario = compile_registered("bursty-arrivals")
        store = FileSessionStore(tmp_path)
        session = ValidationSession(1, 1, scenario.n_labels,
                                    aggregator=IncrementalEM(rng=5))
        horizon = scenario.answer_events[-1].time
        replay(scenario.events(), session, store=store,
               conclude_every=60,
               checkpoint_every_seconds=horizon / 4.0)
        assert len(store.checkpoints()) >= 4  # cadence + final
        restored = store.restore().session
        np.testing.assert_array_equal(restored.model.assignment,
                                      session.model.assignment)
        np.testing.assert_array_equal(restored.aggregator.rng.random(8),
                                      session.aggregator.rng.random(8))


class TestGoldenCheckpointFixture:
    """The committed checkpoint under ``tests/fixtures/golden_checkpoint``
    pins the on-disk format: a future reader that cannot restore it has
    broken compatibility and must bump ``STATE_SCHEMA_VERSION`` (and
    migrate) instead of silently reinterpreting old bytes.

    Regenerate (only for *intentional* format changes — call it out in
    the commit message)::

        PYTHONPATH=src python tests/fixtures/generate_golden_checkpoint.py
    """

    @pytest.fixture(scope="class")
    def golden_root(self) -> pathlib.Path:
        root = FIXTURES / "golden_checkpoint"
        assert root.is_dir(), "golden checkpoint fixture is missing"
        return root

    def test_fixture_restores_and_matches_summary(self, golden_root):
        expected = json.loads((golden_root / "expected.json").read_text())
        assert expected["schema_version"] == STATE_SCHEMA_VERSION
        store = FileSessionStore(golden_root / "store")
        restored = store.restore()
        session = restored.session
        assert session.stats.n_answers == expected["n_answers"]
        assert session.validation.count == expected["n_validated"]
        assert restored.n_replayed == expected["wal_tail_replayed"]
        assert np.argmax(session.model.assignment, axis=1).tolist() \
            == expected["map_labels"]
        # The restored RNG continues the exact pinned stream.
        assert session.aggregator.rng.random() == pytest.approx(
            expected["next_uniform"], abs=0.0)

    def test_fixture_supports_continued_work(self, golden_root):
        store = FileSessionStore(golden_root / "store")
        session = store.restore().session
        session.add_answer(0, 1, 1)
        result = session.conclude()
        assert np.isfinite(result.assignment).all()
