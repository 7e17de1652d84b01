"""End-to-end campaign benchmark: guided validation at two tiers plus a stream.

Run from the repository root::

    python3 perfbench/run.py --workload guided-2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1 --out a.json
    python3 perfbench/run.py compare a.json b.json
    python3 perfbench/run.py selfcheck --seed 1

Workloads (closed loop, one process, one thread):

* ``guided-2k`` — Algorithm 1 (hybrid guidance, exact look-ahead) with an
  oracle expert on a 2000 × 200 crowd.
* ``guided-20k-local`` — the same loop on 20000 × 1000 with the local
  look-ahead.
* ``stream-20k`` — the 20000 × 1000 campaign replayed as one shuffled
  stream into a ``ValidationSession`` with a ``FileSessionStore`` (WAL,
  refreshes, checkpoints), ending in a restore.

Inputs are generated from ``--seed`` in this process; each run of a workload
is measured in a child process with BLAS threads capped at 1. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced repetition plus
the tracing overhead against one untraced repetition. ``--size toy`` runs
the same code paths on tiny inputs (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: A run must end within this many seconds; children get what is left.
RUN_DEADLINE_S = 170.0

_SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env() -> dict:
    env = dict(os.environ, **_SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--no-optional-locks", *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def fingerprint(seed: int) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git": sha or "unknown",
            "dirty": "unknown" if status is None else bool(status),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads": 1,
            "seed": seed}


def _spawn(workload: str, size: str, seconds: float, trace: int,
           work: Path, deadline: float) -> dict:
    """Run the measured process once and return its raw measurements."""
    out = work / f"raw-trace{trace}.json"
    store_dir = work / f"state-trace{trace}"
    store_dir.mkdir()
    command = [sys.executable, "-m", "perfbench.campaign",
               "--inputs", str(work / "inputs.npz"), "--workload", workload,
               "--size", size, "--seconds", str(seconds),
               "--trace", str(trace), "--workdir", str(store_dir),
               "--out", str(out)]
    timeout = max(5.0, deadline - time.monotonic())
    # The child's stdout goes to stderr: stdout is reserved for the result.
    subprocess.run(command, cwd=ROOT, env=_child_env(), stdout=sys.stderr,
                   timeout=timeout, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", work_root: Path = WORK_ROOT) -> dict:
    """Generate inputs, measure in child processes, summarize one record."""
    from perfbench import inputs, report

    deadline = time.monotonic() + RUN_DEADLINE_S
    params = inputs.workload_params(workload, size)
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        inputs.save(inputs.generate(params, seed), work / "inputs.npz")
        if trace:
            # One untraced and one traced repetition on the same inputs:
            # their campaign wall times give the tracing overhead.
            base = _spawn(workload, size, 0, 0, work, deadline)
            raw = _spawn(workload, size, 0, 1, work, deadline)
            overhead = raw["campaign_s"][0] / base["campaign_s"][0]
            values = report.layer_metrics(raw.pop("layers"), overhead)
            metrics = report.with_units(values, report.PER_LAYER)
            lines = []
            attempted = base["attempted"] + raw["attempted"]
            failed = base["failed"] + raw["failed"]
            failures = base["failures"] + raw["failures"]
        else:
            raw = _spawn(workload, size, seconds, 0, work, deadline)
            summary = report.summarize(raw, params["kind"])
            metrics = report.with_units(summary["metrics"],
                                        report.END_TO_END)
            lines = summary["lines"]
            attempted, failed = raw["attempted"], raw["failed"]
            failures = raw["failures"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    counts = dict(raw["counts"], precision_final=raw["precision_final"])
    return {"workload": workload, "seed": seed, "trace": trace,
            "size": size, "seconds": seconds, "env": fingerprint(seed),
            "params": params, "metrics": metrics, "lines": lines,
            "counts": counts, "attempted": attempted, "failed": failed,
            "failures": failures, "correct": failed == 0}


def contract_line(records: list[dict]) -> str:
    """The last stdout line: one JSON object for one workload, or a merge."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": entry for r in records
                   for name, entry in r["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics})


def selfcheck(seed: int, size: str, workloads: list[str]) -> bool:
    """Two same-seed runs of each workload must repeat the listed values."""
    from perfbench import report

    ok = True
    for workload in workloads:
        first, second = (run_workload(workload, seed, 0, 0, size)
                         for _ in range(2))
        for key in report.REPEATED:
            a, b = first["counts"][key], second["counts"][key]
            same = a == b and first["correct"] and second["correct"]
            ok &= same
            print(f"{workload:<18} {key:<22} {a!s:>18} {b!s:>18} "
                  f"{'same' if same else 'DIFFERENT'}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return ok


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import inputs, report

    workloads = sorted(inputs.WORKLOADS)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        print(report.compare(args.a, args.b))
        return 0
    if argv[:1] == ["selfcheck"]:
        parser = argparse.ArgumentParser(prog="run.py selfcheck")
        parser.add_argument("--seed", type=int, default=1)
        args = parser.parse_args(argv[1:])
        return 0 if selfcheck(args.seed, "full", workloads) else 1

    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=inputs.SIZES)
    parser.add_argument("--out", type=Path,
                        help="also write the result records to this file")
    args = parser.parse_args(argv)
    chosen = workloads if args.workload == "all" else [args.workload]
    records = []
    for workload in chosen:
        record = run_workload(workload, args.seed, args.seconds, args.trace,
                              args.size)
        print(report.render(record), flush=True)
        records.append(record)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1), encoding="utf-8")
    print(contract_line(records), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
