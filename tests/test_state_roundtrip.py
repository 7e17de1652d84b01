"""Checkpoint/restore round-trips must be invisible to the computation.

The contract under test: a session that is checkpointed, destroyed,
restored, and driven forward is **bit-for-bit** indistinguishable from a
session that was never interrupted — same model floats, same statistics,
same RNG stream, same conflict bookkeeping. Three layers:

* the **property layer** (hypothesis) — random small scenarios are
  replayed with a checkpoint/restore wedged at a random cut point, under
  both store backends and both kernel-plan modes, and compared to the
  uninterrupted run;
* **value-object round-trips** — ``capture_state``, ``SessionState.restore``
  and the on-disk manifest/segment encoding preserve every field
  (:meth:`~repro.state.SessionState.equals`), including the RNG
  bit-generator state;
* the **conflict-policy boundary** — the pinned first-write-wins policy
  (reject or drop-and-count, never last-write-wins) survives a restore.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iem import IncrementalEM
from repro.errors import InvalidAnswerSetError
from repro.scenarios import ExpertSpec, ScenarioSpec, compile_scenario
from repro.simulation.stream import replay
from repro.state import FileSessionStore, MemorySessionStore
from repro.streaming import ValidationSession

small_specs = st.builds(
    lambda n, k, m, seed: ScenarioSpec(
        name="roundtrip-prop",
        n_objects=n, n_workers=k, n_labels=m,
        answers_per_object=min(4, k),
        expert=ExpertSpec(n_validations=max(2, n // 3)),
        seed=seed,
    ),
    n=st.integers(min_value=6, max_value=12),
    k=st.integers(min_value=4, max_value=7),
    m=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
)


def _make_store(backend: str, tmpdir: str):
    if backend == "memory":
        return MemorySessionStore()
    return FileSessionStore(tmpdir)


def _assert_sessions_bit_equal(a: ValidationSession, b: ValidationSession):
    np.testing.assert_array_equal(a.model.assignment, b.model.assignment)
    np.testing.assert_array_equal(a.model.confusions, b.model.confusions)
    np.testing.assert_array_equal(a.model.priors, b.model.priors)
    assert a.n_concludes == b.n_concludes
    assert a.total_em_iterations == b.total_em_iterations
    assert a.n_conflicts == b.n_conflicts
    # The RNG stream continues identically: state transfer, not reseeding.
    np.testing.assert_array_equal(a.aggregator.rng.random(8),
                                  b.aggregator.rng.random(8))


class TestRoundTripProperties:
    @given(spec=small_specs, backend=st.sampled_from(["memory", "file"]),
           cut_fraction=st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=12, deadline=None)
    def test_checkpoint_restore_continue_is_bit_equal(
            self, spec, backend, cut_fraction):
        """checkpoint → crash → restore → continue ≡ never interrupted."""
        compiled = compile_scenario(spec)
        events = list(compiled.events())
        cut = max(1, min(len(events) - 1,
                         int(round(cut_fraction * len(events)))))
        cadence = max(2, len(events) // 5)

        baseline = ValidationSession(
            1, 1, compiled.n_labels, aggregator=IncrementalEM(rng=spec.seed))
        replay(events[:cut], baseline, conclude_every=cadence)
        replay(events[cut:], baseline, conclude_every=cadence)

        with tempfile.TemporaryDirectory() as tmpdir:
            store = _make_store(backend, tmpdir)
            live = ValidationSession(1, 1, compiled.n_labels,
                                     aggregator=IncrementalEM(rng=spec.seed))
            replay(events[:cut], live, conclude_every=cadence, store=store)
            del live  # the crash: only the store survives
            restored = store.restore()
            session = restored.session
            replay(events[cut:], session, conclude_every=cadence)

        _assert_sessions_bit_equal(baseline, session)

    @given(spec=small_specs, backend=st.sampled_from(["memory", "file"]))
    @settings(max_examples=8, deadline=None)
    def test_state_value_object_round_trips_exactly(self, spec, backend):
        """capture → store encode/decode → restore preserves every field."""
        compiled = compile_scenario(spec)
        session = ValidationSession.from_answer_set(compiled.answer_set)
        for event in compiled.validation_events:
            session.add_validation(event.object_index, event.label,
                                   overwrite=True)
        session.set_masked_workers({0})
        session.conclude()

        state = session.capture_state()
        with tempfile.TemporaryDirectory() as tmpdir:
            store = _make_store(backend, tmpdir)
            store.checkpoint(session)
            loaded = store.load_state()
        assert state.equals(loaded)
        assert loaded.rng_state == state.rng_state

        rebuilt = loaded.restore()
        assert rebuilt.capture_state().equals(state)


class TestRngRoundTrip:
    def test_bit_generator_state_survives_file_round_trip(self, tmp_path):
        session = ValidationSession(6, 4, 2)
        session.add_answers([(0, 0, 1), (1, 1, 0), (2, 2, 1)])
        # Advance to an arbitrary mid-stream point.
        session.aggregator.rng.random(17)
        expected_state = session.aggregator.rng.bit_generator.state

        store = FileSessionStore(tmp_path)
        store.checkpoint(session)
        restored = store.restore().session
        assert restored.aggregator.rng.bit_generator.state == expected_state
        # Both generators now sit at the same point of the same stream.
        np.testing.assert_array_equal(restored.aggregator.rng.random(16),
                                      session.aggregator.rng.random(16))


class TestConflictPolicyAcrossRestore:
    """First-write-wins is pinned; the policy and its counter persist."""

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_ignore_policy_and_counter_survive_restore(self, backend,
                                                       tmp_path):
        session = ValidationSession(4, 3, 2, on_conflict="ignore")
        session.add_answer(0, 0, 1)
        assert session.add_answer(0, 0, 0) is False  # dropped, counted
        assert session.n_conflicts == 1

        store = _make_store(backend, str(tmp_path))
        store.checkpoint(session)
        restored = store.restore().session
        assert restored.on_conflict == "ignore"
        assert restored.n_conflicts == 1
        # The original answer — not the conflicting retry — was kept.
        assert restored.stats.label_of(0, 0) == 1
        # The policy keeps applying after the boundary.
        assert restored.add_answer(0, 0, 0) is False
        assert restored.n_conflicts == 2
        assert restored.stats.label_of(0, 0) == 1

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_error_policy_still_rejects_after_restore(self, backend,
                                                      tmp_path):
        session = ValidationSession(4, 3, 2)  # default: on_conflict="error"
        session.add_answer(0, 0, 1)
        store = _make_store(backend, str(tmp_path))
        store.checkpoint(session)
        restored = store.restore().session
        assert restored.on_conflict == "error"
        with pytest.raises(InvalidAnswerSetError):
            restored.add_answer(0, 0, 0)
        # Rejection means rejection: no last-write-wins anywhere.
        assert restored.stats.label_of(0, 0) == 1

    def test_per_call_override_survives_restore(self, tmp_path):
        """A session pinned to 'error' still honors per-call 'ignore'."""
        session = ValidationSession(4, 3, 2)
        session.add_answer(0, 0, 1)
        store = FileSessionStore(tmp_path)
        store.checkpoint(session)
        restored = store.restore().session
        assert restored.add_answer(0, 0, 0, on_conflict="ignore") is False
        assert restored.n_conflicts == 1
        assert restored.stats.label_of(0, 0) == 1
