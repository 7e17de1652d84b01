"""Measure a workload's look-ahead against converged exact Eq. 8.

Replays the guided campaign of a perfbench workload (same inputs, same
process, same selections) and, in every state the campaign passes
through, scores the workload's top candidates twice: in the workload's
look-ahead mode, and with the exact look-ahead solved to convergence
(``lookahead_max_iter=200``). Prints, per state and in total, whether
both pick the same object, the Spearman correlation and the largest
difference of their information gains, the reference gain given up by
the workload's pick (its regret), and each side's E/M maps and
iteration-cap hits.

Run from the repository root::

    PYTHONPATH=src python tools/lookahead_frontier.py --workload guided-20k-local --seed 1

``PYTHONPATH`` picks the ``repro`` that is measured, so another
checkout's ``src/`` can be scored with the same inputs. The last stdout
line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Appended: a PYTHONPATH naming another checkout's src/ takes precedence.
sys.path.extend([str(ROOT / "src"), str(ROOT)])

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.campaign import _build_process  # noqa: E402
from repro.guidance import InformationGainStrategy  # noqa: E402
from repro.guidance.base import GuidanceContext  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

#: Map cap of the reference solves: every solve of the two guided
#: workloads converges under it.
REFERENCE_MAX_ITER = 200

TALLIES = ("solves", "iterations", "cap_hits")


def score(process, strategy: InformationGainStrategy) -> dict:
    """One select of ``strategy`` in the process's current state."""
    hub = Telemetry()
    context = GuidanceContext(prob_set=process.prob_set,
                              aggregator=process.aggregator,
                              detector=process.detector,
                              rng=np.random.default_rng(0), telemetry=hub)
    start = time.perf_counter()
    selection = strategy.select(context)
    seconds = time.perf_counter() - start
    return {"selection": selection, "seconds": seconds,
            **{name: int(hub.registry.counter(f"lookahead.{name}").value)
               for name in TALLIES}}


def compare(mode: dict, reference: dict) -> dict:
    """Agreement of one state's two selects."""
    ours, ref = mode["selection"], reference["selection"]
    if not np.array_equal(ours.candidate_indices, ref.candidate_indices):
        raise RuntimeError("the two selects scored different candidates")
    rho = stats.spearmanr(ours.scores, ref.scores).statistic \
        if ours.scores.size > 1 else 1.0
    picked = ref.scores[ref.candidate_indices == ours.object_index][0]
    return {"agree": bool(ours.object_index == ref.object_index),
            "spearman": float(rho),
            "max_abs_delta": float(np.max(np.abs(ours.scores - ref.scores))),
            "gain_ref": float(np.max(ref.scores)),
            "regret": float(np.max(ref.scores) - picked)}


def run(workload: str, seed: int, size: str = "full") -> dict:
    params = inputs.workload_params(workload, size)
    if params["kind"] != "guided":
        raise SystemExit(f"{workload} is not a guided workload")
    data = inputs.generate(params, seed)
    process, _ = _build_process(params, data, None)
    limit, mode = params["candidate_limit"], params["lookahead"]
    ours = InformationGainStrategy(candidate_limit=limit, lookahead=mode)
    exact = InformationGainStrategy(candidate_limit=limit,
                                    lookahead_max_iter=REFERENCE_MAX_ITER)
    print(f"{workload} seed {seed}: {mode} (cap {ours.lookahead_max_iter}) "
          f"against exact (cap {REFERENCE_MAX_ITER}), top {limit} "
          f"candidates per state")
    print("state  agree  spearman  max|dgain|  gain(ref)    regret  maps"
          "  caps  ref maps  ref caps    ms  ref ms")
    rows, selected = [], []
    while not process.is_done():
        mode_run, ref_run = score(process, ours), score(process, exact)
        row = {**compare(mode_run, ref_run),
               **{name: mode_run[name] for name in TALLIES},
               **{f"ref_{name}": ref_run[name] for name in TALLIES},
               "ms": 1e3 * mode_run["seconds"],
               "ref_ms": 1e3 * ref_run["seconds"]}
        rows.append(row)
        print(f"{len(rows):5d}  {'yes' if row['agree'] else 'no':>5}"
              f"  {row['spearman']:8.3f}  {row['max_abs_delta']:10.4g}"
              f"  {row['gain_ref']:9.4f}  {row['regret']:8.2g}"
              f"  {row['iterations']:4d}  {row['cap_hits']:4d}"
              f"  {row['ref_iterations']:8d}  {row['ref_cap_hits']:8d}"
              f"  {row['ms']:4.0f}  {row['ref_ms']:6.0f}")
        selected.append(process.step().object_index)
    summary = {
        "workload": workload, "seed": seed, "size": size, "mode": mode,
        "reference_max_iter": REFERENCE_MAX_ITER, "states": len(rows),
        "argmax_agree": sum(row["agree"] for row in rows),
        "spearman_median": float(np.median([r["spearman"] for r in rows])),
        "spearman_min": float(min(r["spearman"] for r in rows)),
        "max_abs_delta_median": float(np.median(
            [r["max_abs_delta"] for r in rows])),
        "max_abs_delta_max": float(max(r["max_abs_delta"] for r in rows)),
        "regret_max": float(max(r["regret"] for r in rows)),
        **{name: sum(r[name] for r in rows) for name in TALLIES},
        **{f"ref_{name}": sum(r[f"ref_{name}"] for r in rows)
           for name in TALLIES},
        "select_ms_median": float(np.median([r["ms"] for r in rows])),
        "ref_select_ms_median": float(np.median([r["ref_ms"]
                                                 for r in rows])),
        "selection_digest": hashlib.sha256(
            ",".join(map(str, selected)).encode()).hexdigest()[:16],
    }
    print(f"argmax agreement {summary['argmax_agree']}/{len(rows)}; "
          f"Spearman median {summary['spearman_median']:.3f} "
          f"(min {summary['spearman_min']:.3f}); max |dgain| median "
          f"{summary['max_abs_delta_median']:.4g} nats "
          f"(max {summary['max_abs_delta_max']:.4g}); largest regret "
          f"{summary['regret_max']:.4g} nats")
    print(f"{mode}: {summary['solves']} solves, {summary['iterations']} "
          f"maps, {summary['cap_hits']} cap hits; reference: "
          f"{summary['ref_solves']} solves, {summary['ref_iterations']} "
          f"maps, {summary['ref_cap_hits']} cap hits")
    print(json.dumps(summary))
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="guided-20k-local",
                        help="a guided perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
