"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures through the
same driver the full-scale CLI uses (``python -m repro.experiments run``),
at a reduced ``scale`` so the whole suite stays minutes, not hours. The
driver output is printed so ``pytest benchmarks/ --benchmark-only -s``
doubles as a results report.

The before/after benches compare against the reference implementations in
``tests/reference.py``; ``tests/`` goes on ``sys.path`` here so they can
``import reference`` even when only ``benchmarks/`` is collected.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running scale tiers (n=500k), run behind the CI "
        "nightly/manual -m slow trigger")


@pytest.fixture
def report_result(request):
    """Print an ExperimentResult table after the benchmark."""

    def _report(result) -> None:
        capmanager = request.config.pluginmanager.getplugin("capturemanager")
        with capmanager.global_and_fixture_disabled():
            print()
            print(result.to_text())

    return _report
