"""diskbem benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or ``all``, which runs
each of them in turn in a process of its own.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer ones.  Human-readable lines come first, then one JSON line of
details (machine facts, sample counts, failures), and last one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file, and everything written goes under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at nproc, here and in every child; before numpy loads."""
    cap = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = cap
    return {name: cap for name in THREAD_VARIABLES}


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_result(result, facts: dict) -> None:
    print(f"workload {result.workload}: {result.attempted} operations, {result.failed} failed")
    for name, (value, unit) in result.metrics.items():
        note = f"  ({result.notes['op_s.tail']})" if name == "op_s.tail" else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_ratio':<32} {result.notes['fail_ratio']:>14.6g} ratio")
    for line in result.notes.get("failures", []):
        print(f"  FAILED {line}")
    print("details " + json.dumps({"workload": result.workload, "machine": facts, **result.notes}))


def run_all(args, names) -> int:
    """Each workload in a process of its own, so that peak RSS is its own."""
    results = []
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None, workload_table=None) -> int:
    if not (ROOT / "src" / "diskbem" / "__init__.py").is_file():
        print(f"error: no diskbem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    thread_cap = cap_threads()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    table = workload_table or workloads.WORKLOADS
    args = parse_args(argv, list(table))
    if args.workload == "all":
        return run_all(args, list(table))
    result = harness.run_workload(table[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print_result(result, harness.machine_facts(args.seed, thread_cap))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
