"""Tests for the experiment registry, drivers, and result plumbing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.experiments.common import (
    ExperimentResult,
    curve_rows,
    scaled_budget,
    scaled_repeats,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig01", "tab01", "tab04", "fig04", "tab05", "fig05", "fig06",
            "fig07", "fig08", "fig09", "fig10", "fig11", "tab06", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20", "fig21", "fig22", "fig23", "appe", "scen", "qtarget",
            "telemetry",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_modules_resolve(self):
        import importlib
        for module_path in ALL_EXPERIMENTS.values():
            module = importlib.import_module(module_path)
            assert callable(module.run)


class TestScaling:
    def test_scaled_repeats(self):
        assert scaled_repeats(10, 1.0) == 10
        assert scaled_repeats(10, 0.25) == 2
        assert scaled_repeats(10, 0.0) == 1

    def test_scaled_budget(self):
        assert scaled_budget(100, 1.0) == 100
        assert scaled_budget(100, 0.5) == 50
        assert scaled_budget(100, 0.01) == 10  # floor applies


class TestExperimentResult:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="figXX",
            title="demo",
            columns=["a", "b"],
            rows=[(1, 0.5), (2, 0.25)],
            metadata={"seed": 0},
        )

    def test_to_text_contains_everything(self):
        text = self._result().to_text()
        assert "figXX" in text and "demo" in text
        assert "0.5000" in text and "seed=0" in text

    def test_json_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.save(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["experiment_id"] == "figXX"
        assert loaded["rows"] == [[1, 0.5], [2, 0.25]]

    def test_json_handles_numpy_values(self):
        result = ExperimentResult(
            experiment_id="x", title="t", columns=["v"],
            rows=[(np.float64(0.5),)], metadata={"arr": np.arange(2)})
        payload = json.loads(result.to_json())
        assert payload["metadata"]["arr"] == [0, 1]

    def test_curve_rows(self):
        grid = np.array([0.0, 0.5])
        curves = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        rows = curve_rows(grid, curves, ["a", "b"])
        assert rows == [(0.0, 1.0, 3.0), (50.0, 2.0, 4.0)]


class TestCheapDrivers:
    """Drivers with sub-second full runs, executed end to end."""

    def test_tab01(self):
        result = run_experiment("tab01")
        assert len(result.rows) == 4
        rows = {row[0]: row for row in result.rows}
        assert rows["o4"][2] != rows["o4"][1]  # MV wrong on o4
        assert rows["o4"][4] == rows["o4"][1]  # fixed by validation

    def test_fig01(self):
        result = run_experiment("fig01", scale=0.3)
        types = {row[0] for row in result.rows}
        assert len(types) == 5

    def test_tab04(self):
        result = run_experiment("tab04")
        assert [row[0] for row in result.rows] == \
            ["bb", "rte", "val", "twt", "art"]
        assert result.elapsed_seconds > 0

    def test_appe(self):
        result = run_experiment("appe", scale=0.8)
        for row in result.rows:
            assert row[3] >= -1e-9  # greedy never beats exact

    def test_fig06(self):
        result = run_experiment("fig06")
        totals = [sum(row[c] for row in result.rows) for c in (1, 2, 3)]
        assert all(95.0 <= t <= 100.5 for t in totals)

    def test_scen(self):
        result = run_experiment("scen", scale=0.5)  # exact look-ahead only
        assert len(result.rows) == result.metadata["n_scenarios"]
        for row in result.rows:
            assert row[5] <= 1e-9  # stream_linf: bit-for-bit contract


class TestCli:
    def test_list_and_run(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "fig10" in captured.out

        assert main(["run", "tab01"]) == 0
        captured = capsys.readouterr()
        assert "majority_voting" in captured.out

    def test_run_writes_json(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        out = tmp_path / "tab01.json"
        assert main(["run", "tab01", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["experiment_id"] == "tab01"
