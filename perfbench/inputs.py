"""Workload definitions and seeded input generation.

Inputs are generated here, in the orchestrating process, and handed to the
measured process as compact arrays (answer triples, gold labels, stream
order). The simulator's per-answer Python loop and its dense ``n × k``
matrix therefore count neither toward ``setup_s`` nor toward the measured
process's peak RSS.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.answer_set import MISSING
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.simulation.stream import AnswerEvent, crowd_streams

#: Event kinds in the stream order arrays.
ANSWER, VALIDATION = 0, 1

_CROWD = {"n_labels": 4, "answers_per_object": 15, "reliability": 0.7}

#: Full-size workloads. ``budget`` is the expert budget of one guided
#: campaign; ``refresh_every``/``checkpoint_every`` count stream events;
#: ``extra_setups`` are set-up-only repetitions before the measured ones,
#: so that ``setup_s`` is a median over several set-ups even when only one
#: campaign fits in a run.
WORKLOADS: dict[str, dict] = {
    "guided-2k": {
        "kind": "guided", "n_objects": 2000, "n_workers": 200, **_CROWD,
        "budget": 20, "candidate_limit": 20, "lookahead": "exact",
        "extra_setups": 4},
    "guided-20k-local": {
        "kind": "guided", "n_objects": 20000, "n_workers": 1000, **_CROWD,
        "budget": 12, "candidate_limit": 10, "lookahead": "local",
        "extra_setups": 2},
    "stream-20k": {
        "kind": "stream", "n_objects": 20000, "n_workers": 1000, **_CROWD,
        "validations": 300, "refresh_every": 10000,
        "checkpoint_every": 60000, "extra_setups": 20},
}

#: Toy sizes for the benchmark's own smoke tests: same code paths, tiny
#: inputs, a run of well under a second.
_TOY = {
    "guided-2k": {"n_objects": 60, "n_workers": 20, "answers_per_object": 5,
                  "budget": 3, "candidate_limit": 5},
    "guided-20k-local": {"n_objects": 80, "n_workers": 30,
                         "answers_per_object": 5, "budget": 3,
                         "candidate_limit": 5},
    "stream-20k": {"n_objects": 100, "n_workers": 30,
                   "answers_per_object": 5, "validations": 20,
                   "refresh_every": 40, "checkpoint_every": 150},
}

SIZES = ("full", "toy")


def workload_params(name: str, size: str = "full") -> dict:
    """The parameters of workload ``name`` at ``size`` (a fresh dict)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}; choose from {SIZES}")
    params = dict(WORKLOADS[name])
    if size == "toy":
        params.update(_TOY[name])
    return params


def generate(params: dict, seed: int) -> dict[str, np.ndarray]:
    """Compact input arrays for one workload, a pure function of ``seed``."""
    crowd = simulate_crowd(CrowdConfig(
        n_objects=params["n_objects"], n_workers=params["n_workers"],
        n_labels=params["n_labels"], reliability=params["reliability"],
        answers_per_object=params["answers_per_object"]), rng=seed)
    matrix = crowd.answer_set.matrix
    obj, wrk = np.nonzero(matrix != MISSING)
    arrays = {"objects": obj.astype(np.int32),
              "workers": wrk.astype(np.int32),
              "labels": matrix[obj, wrk].astype(np.int8),
              "gold": np.asarray(crowd.gold, dtype=np.int8)}
    if params["kind"] == "stream":
        kinds, s_obj, s_wrk, s_lab = [], [], [], []
        for event in crowd_streams(crowd,
                                   validation_limit=params["validations"],
                                   seed=seed):
            if isinstance(event, AnswerEvent):
                kinds.append(ANSWER)
                s_wrk.append(event.worker_index)
            else:
                kinds.append(VALIDATION)
                s_wrk.append(-1)
            s_obj.append(event.object_index)
            s_lab.append(event.label)
        arrays.update(stream_kinds=np.array(kinds, dtype=np.int8),
                      stream_objects=np.array(s_obj, dtype=np.int32),
                      stream_workers=np.array(s_wrk, dtype=np.int32),
                      stream_labels=np.array(s_lab, dtype=np.int8))
    return arrays


def save(arrays: dict[str, np.ndarray], path: Path) -> None:
    np.savez(path, **arrays)


def load(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as blob:
        return {key: blob[key] for key in blob.files}
