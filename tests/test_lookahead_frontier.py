"""``tools/lookahead_frontier.py`` at toy size: it replays the perfbench
campaign unchanged and scores both look-aheads in every state."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" \
    / "lookahead_frontier.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("lookahead_frontier", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts the repo root on sys.path
    return module


def test_toy_frontier_replays_the_perfbench_campaign(capsys):
    tool = _load_tool()
    from perfbench import inputs
    from perfbench.campaign import Checks, _build_process, _guided_campaign

    summary = tool.run("guided-20k-local", seed=5, size="toy")
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == summary

    params = inputs.workload_params("guided-20k-local", "toy")
    data = inputs.generate(params, 5)
    process, _ = _build_process(params, data, None)
    campaign = _guided_campaign(process, data["gold"].astype(np.int64),
                                Checks())
    assert summary["selection_digest"] \
        == campaign["counts"]["selection_digest"]
    assert summary["states"] == params["budget"]
    assert 0 <= summary["argmax_agree"] <= summary["states"]
    assert summary["solves"] == summary["ref_solves"] > 0
    assert summary["ref_cap_hits"] == 0
