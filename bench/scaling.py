"""Scaling report: stage times, computed work and accuracy over a size matrix.

    python3 bench/scaling.py

Solves problem 1 at Gauss order 8 for n in {30, 480, 4000} boundary nodes,
evaluating on the m x m lattice for m in {11, 41}.  Assembly and the solve do
not depend on m, so they run once per n.  Each stage is timed best of 3 for
n <= 480 and once above that, as in the ROADMAP Baseline table.  Prints a
markdown table, then the rows as one JSON line.  Not gated, and not part of
the benchmark's workloads; it takes about 15 s and 0.5 GB at n=4000 on a
2-vCPU machine.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, cap_threads

N_VALUES = (30, 480, 4000)
M_VALUES = (11, 41)
QUAD_ORDER = 8
PROBLEM = 1


def _best(repeats: int, fn, *args):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def _time(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds < 1.0 else f"{seconds:.3g} s"


def main() -> int:
    cap = max(cap_threads().values())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import diskbem

    problem = diskbem.get_problem(PROBLEM)
    rule = diskbem.gauss_legendre(QUAD_ORDER)
    rows = []
    for n in N_VALUES:
        repeats = 3 if n <= 480 else 1
        mesh = diskbem.discretize_circle(n)
        assemble_s, system = _best(repeats, diskbem.assemble, mesh, problem, rule)
        solve_s, solution = _best(repeats, diskbem.solve_flux, system)
        matrix_bytes = system.H.nbytes + system.G.nbytes
        del system
        for m in M_VALUES:
            grid = diskbem.interior_grid(m)
            evaluate_s, report = _best(repeats, diskbem.evaluate_field, solution, grid, problem, rule)
            err = report.u_bem - report.u_exact
            rows.append({
                "n": n,
                "m": m,
                "points": len(grid),
                "assemble_s": assemble_s,
                "solve_flux_s": solve_s,
                "evaluate_field_s": evaluate_s,
                "assembly_kernel_evals": 2 * n * n * QUAD_ORDER,
                "solver_kernel_evals": 2 * len(grid) * n * QUAD_ORDER,
                "matrix_bytes": matrix_bytes,
                "near_boundary_points": int(report.near_boundary.sum()),
                "max_abs": float(np.max(np.abs(err))),
                "err_interior": float(np.max(np.abs(err)) / np.max(np.abs(report.u_exact))),
            })
    print(f"problem {PROBLEM}, K={QUAD_ORDER}, BLAS threads {cap}; kernel evals and bytes are computed")
    print("| n | pts (m) | assemble | solve | evaluate | asm kernel evals | eval kernel evals "
          "| H+G bytes | near | max_abs | err_interior |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for r in rows:
        print(
            f"| {r['n']} | {r['points']} ({r['m']}) | {_time(r['assemble_s'])} "
            f"| {_time(r['solve_flux_s'])} | {_time(r['evaluate_field_s'])} "
            f"| {r['assembly_kernel_evals']:.3g} | {r['solver_kernel_evals']:.3g} "
            f"| {r['matrix_bytes']:.3g} | {r['near_boundary_points']} "
            f"| {r['max_abs']:.3g} | {r['err_interior']:.3g} |"
        )
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
