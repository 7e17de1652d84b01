"""Bench: regenerate the Appendix E hardness study (exact vs greedy)."""

from _driver import run_artifact


def test_appe_joint_entropy(benchmark, report_result):
    result = run_artifact(benchmark, report_result, "appe", scale=1.0)
    for row in result.rows:
        (size, exact_h, greedy_h, gap, exact_s, greedy_s, slowdown) = row
        # Greedy can never beat the exact optimum.
        assert gap >= -1e-9
        # And stays near-optimal on these instances.
        assert gap <= 1.0
    # Exact blows up relative to greedy as the subset grows (NP-hardness
    # in miniature): the largest size is slower than the smallest.
    first, last = result.rows[0], result.rows[-1]
    assert last[4] >= first[4]
