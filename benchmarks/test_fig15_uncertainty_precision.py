"""Bench: regenerate Figure 15 (uncertainty–precision correlation)."""

from _driver import run_artifact


def test_fig15_uncertainty_precision(benchmark, report_result):
    result = run_artifact(benchmark, report_result, "fig15", scale=0.3)
    # Within every guided run, uncertainty must fall as precision rises
    # (paper: −0.9461). The pooled value is reported but not asserted:
    # between-run structure (confidently-wrong crowds have low uncertainty
    # AND low precision) can mask the within-run relationship.
    assert result.metadata["pearson_mean_per_run"] < -0.5
