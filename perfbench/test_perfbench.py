"""Smoke tests of the benchmark itself, at toy size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, report
from perfbench.run import ROOT, contract_line, run_workload, selfcheck

WORKLOADS = sorted(inputs.WORKLOADS)


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(report.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric_and_passes_its_checks(workload,
                                                           tmp_path):
    work_root = tmp_path / "work"
    for trace, catalog in ((0, report.END_TO_END), (1, report.PER_LAYER)):
        record = run_workload(workload, seed=5, seconds=0.2, trace=trace,
                              size="toy", work_root=work_root)
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        assert list(record["metrics"]) == [entry[0] for entry in catalog]
        line = json.loads(contract_line([record]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in record["metrics"].values())
        else:
            assert 0 < record["metrics"]["trace.coverage"]["value"] <= 1
    assert not work_root.exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_the_listed_values(workload):
    assert selfcheck(7, "toy", [workload])


def test_compare_reports_deltas_and_changed_counts(tmp_path):
    record = {"workload": "guided-2k", "trace": 0,
              "metrics": {"wait_ms": {"value": 2.0, "unit": "ms"}},
              "counts": {"em_iterations": 10}}
    slower = dict(record,
                  metrics={"wait_ms": {"value": 3.0, "unit": "ms"}},
                  counts={"em_iterations": 11})
    (tmp_path / "a.json").write_text(json.dumps([record]))
    (tmp_path / "b.json").write_text(json.dumps([slower]))
    table = report.compare(tmp_path / "a.json", tmp_path / "b.json")
    assert "+50.0% worse" in table
    assert "count em_iterations differs: 10 vs 11" in table


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guided-2k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
