"""Command-line runner: solve a benchmark problem and write CSV/JSON outputs.

Exit codes: 0 on success (evaluation accepts every point of the interior grid), 1 when
assembly/solve/evaluation fails, memory runs out or the output directory cannot be
written (with a diagnostic on stderr), 2 for usage errors (nothing is written).  All
files are written atomically (temp file then rename), with LF line endings and floats
serialized via ``repr``, i.e. the shortest digit string that round-trips, so identical
runs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .analysis import ConvergenceRow, convergence_study, empirical_orders, solve_case
from .geometry import interior_grid
from .problems import PROBLEM_IDS, get_problem
from .quadrature import MAX_ORDER, gauss_legendre
from .solver import SolveError

# looked up here by bench/child.py (tracing.OP_CALLS); the run itself calls them via solve_case
from .analysis import error_stats, flux_error_stats  # noqa: F401
from .assembly import assemble  # noqa: F401
from .solver import evaluate_field, solve_flux  # noqa: F401

__all__ = ["parse_args", "run", "main"]


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="diskbem",
        description="Boundary element solution of Dirichlet Laplace problems on the unit disk.",
    )
    parser.add_argument(
        "--problem", type=int, required=True, choices=PROBLEM_IDS,
        help="benchmark problem id",
    )
    parser.add_argument(
        "--boundary-nodes", type=int, default=30, metavar="N",
        help="number of boundary nodes/elements (default 30)",
    )
    parser.add_argument(
        "--interior-grid", type=int, default=11, metavar="M",
        help="interior evaluation lattice size M, at least 3 (default 11)",
    )
    parser.add_argument(
        "--quad-order", type=int, default=8, metavar="K",
        help=f"Gauss-Legendre order of the assembly integrals, 1..{MAX_ORDER} (default 8)",
    )
    parser.add_argument(
        "--mode", choices=("solve", "convergence"), default="solve",
        help="single solve or a refinement study (default solve)",
    )
    parser.add_argument(
        "--n-list", type=_parse_n_list, default=None, metavar="N1,N2,...",
        help="distinct boundary resolutions for convergence mode",
    )
    parser.add_argument(
        "--output-dir", default="./out", metavar="DIR",
        help="directory for the output files (default ./out)",
    )
    args = parser.parse_args(argv)
    if args.boundary_nodes < 3:
        parser.error("--boundary-nodes must be at least 3")
    if args.interior_grid < 3:
        parser.error("--interior-grid must be at least 3")
    if not 1 <= args.quad_order <= MAX_ORDER:
        parser.error(f"--quad-order must be in 1..{MAX_ORDER}")
    if (args.mode == "convergence") != (args.n_list is not None):
        parser.error("--n-list is required in convergence mode and refused in solve mode")
    if args.n_list is not None and any(n < 3 for n in args.n_list):
        parser.error("every entry of --n-list must be at least 3")
    if args.n_list is not None and len(set(args.n_list)) != len(args.n_list):
        parser.error("the entries of --n-list must be distinct")
    return args


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float; empty for an undefined (NaN) value."""
    text = repr(float(value))
    return "" if text == "nan" else text


def _check_output_dir(path: str) -> None:
    """Refuse a path whose nearest existing ancestor is not a directory; create nothing."""
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(f"cannot write to {path}: {ancestor} is not a directory")


def _write_atomic(path: str, text: str) -> None:
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            # mkstemp creates the file 0600; give it the mode a plain open would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _csv(header: str, labels, *columns) -> str:
    """The header, then per label: the label and that row of every column."""
    columns = [np.asarray(column).tolist() for column in columns]
    rows = (",".join([str(label), *map(_fmt, values)])
            for label, *values in zip(labels, *columns, strict=True))
    return "\n".join([header, *rows]) + "\n"


def _boundary_flux_csv(solution, problem) -> str:
    mesh, q = solution.mesh, solution.q_nodes
    q_exact = np.asarray(problem.q(mesh.nodes), dtype=float)
    columns = (*mesh.nodes.T, mesh.angles, q, q_exact, np.abs(q - q_exact))
    return _csv("node,x,y,theta,q_bem,q_exact,abs_err", range(1, mesh.n + 1), *columns)


def _interior_csv(report) -> str:
    columns = (*report.points.T, report.u_bem, report.u_exact, report.abs_err, report.rel_err)
    return _csv("k,x,y,u_bem,u_exact,abs_err,rel_err", range(1, len(report) + 1), *columns)


def _convergence_csv(rows: list[ConvergenceRow]) -> str:
    done = [row for row in rows if row.stats is not None]
    table = [(r.stats.max_abs, r.stats.max_rel, r.stats.mean_abs, r.stats.mean_rel, r.wall_time_s)
             for r in done]
    return _csv("n,max_abs,max_rel,mean_abs,mean_rel,wall_time_s", [r.n for r in done], *zip(*table))


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def run(config: argparse.Namespace) -> dict:
    """Execute one CLI run and return the report dictionary that was written."""
    _check_output_dir(config.output_dir)
    problem = get_problem(config.problem)
    rule = gauss_legendre(config.quad_order)
    grid = interior_grid(config.interior_grid)
    case = solve_case(problem, config.boundary_nodes, grid, rule)

    rows: list[ConvergenceRow] = []
    if config.mode == "convergence":
        # this run's own solve is the study's row for n = --boundary-nodes, if listed
        others = [n for n in config.n_list if n != config.boundary_nodes]
        rows = convergence_study(problem, others, grid, rule) if others else []
        if len(others) < len(config.n_list):
            rows.append(ConvergenceRow(config.boundary_nodes, case.interior, case.wall_time_s))
            rows.sort(key=lambda row: row.n)

    os.makedirs(config.output_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(config.output_dir, name)

    _write_atomic(out("boundary_flux.csv"), _boundary_flux_csv(case.solution, problem))
    _write_atomic(out("interior.csv"), _interior_csv(case.report))
    report_dict = {
        "config": vars(config),
        "interior_stats": asdict(case.interior),
        "flux_stats": asdict(case.flux),
        "n_rel_excluded": case.interior.n_rel_excluded,
        "near_boundary_points": [int(k + 1) for k in np.flatnonzero(case.report.near_boundary)],
        "wall_time_s": case.wall_time_s,
    }
    if rows:
        report_dict["convergence"] = [asdict(row) for row in rows]
        _write_atomic(out("convergence.csv"), _convergence_csv(rows))
    _write_atomic(out("report.json"), json.dumps(report_dict, indent=2) + "\n")

    print(
        f"problem {config.problem}: {config.boundary_nodes} boundary nodes, "
        f"{config.interior_grid}x{config.interior_grid} interior grid "
        f"({case.interior.n_points} points), quadrature order {config.quad_order}"
    )
    print(
        f"interior errors: max_abs={case.interior.max_abs:.8e} "
        f"max_rel={case.interior.max_rel:.8e} "
        f"mean_abs={case.interior.mean_abs:.8e} "
        f"mean_rel={case.interior.mean_rel:.8e}"
    )
    for row in rows:
        if row.stats is None:
            print(f"convergence row n={row.n} failed: {row.error}", file=sys.stderr)
        else:
            print(f"  n={row.n:5d}  max_abs={row.stats.max_abs:.8e}  wall={row.wall_time_s:.3f} s")
    orders = empirical_orders(rows)
    if orders:
        print("observed orders between rows: " + ", ".join(f"{o:.2f}" for o in orders))
    print(f"wall time {case.wall_time_s:.3f} s")
    return report_dict


def main(argv=None) -> int:
    config = parse_args(argv)
    try:
        run(config)
    except SolveError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        if exc.smallest_pivot is not None:
            print(f"smallest pivot: {exc.smallest_pivot:.6e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a --boundary-nodes too large for the machine's memory ends here
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0
