"""The solve pipeline, its error statistics and mesh-refinement studies.

Relative errors are undefined where the exact solution (or exact flux)
vanishes; such points are excluded from the relative statistics and counted
in ``n_rel_excluded`` instead of being silently dropped.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import assemble
from .geometry import InteriorGrid, discretize_circle
from .problems import TestProblem
from .quadrature import QuadratureRule
from .solver import (
    REL_EXCLUSION_THRESHOLD,
    BoundarySolution,
    FieldReport,
    evaluate_field,
    solve_flux,
)

__all__ = [
    "ErrorStats",
    "SolvedCase",
    "ConvergenceRow",
    "error_stats",
    "flux_error_stats",
    "solve_case",
    "convergence_study",
    "empirical_orders",
]


@dataclass(frozen=True)
class ErrorStats:
    """Maximum and mean absolute/relative errors over a point set.

    Relative statistics cover only the points where the exact value is at
    least REL_EXCLUSION_THRESHOLD in magnitude; n_rel_excluded counts the
    rest.  When every point is excluded the relative statistics are zero.
    """

    max_abs: float
    max_rel: float
    mean_abs: float
    mean_rel: float
    n_points: int
    n_rel_excluded: int

    def as_dict(self) -> dict:
        return asdict(self)


def _stats_from_errors(abs_err: np.ndarray, exact: np.ndarray) -> ErrorStats:
    if len(abs_err) == 0:
        raise ValueError("cannot compute error statistics over an empty point set")
    included = np.abs(exact) >= REL_EXCLUSION_THRESHOLD
    rel = abs_err[included] / np.abs(exact[included])
    max_rel = float(np.max(rel)) if rel.size else 0.0
    mean_rel = float(np.mean(rel)) if rel.size else 0.0
    return ErrorStats(
        max_abs=float(np.max(abs_err)),
        max_rel=max_rel,
        mean_abs=float(np.mean(abs_err)),
        mean_rel=mean_rel,
        n_points=int(len(abs_err)),
        n_rel_excluded=int(np.sum(~included)),
    )


def error_stats(report: FieldReport) -> ErrorStats:
    """Summarize an interior field report."""
    return _stats_from_errors(report.abs_err, report.u_exact)


def flux_error_stats(solution: BoundarySolution, problem: TestProblem) -> ErrorStats:
    """Compare solved nodal fluxes against the problem's exact circle flux."""
    q_exact = np.asarray(problem.q(solution.mesh.nodes), dtype=float)
    abs_err = np.abs(solution.q_nodes - q_exact)
    return _stats_from_errors(abs_err, q_exact)


@dataclass(frozen=True)
class SolvedCase:
    """One solve_case result; wall_time_s covers assembly, solve and interior evaluation only."""

    solution: BoundarySolution
    report: FieldReport
    interior: ErrorStats
    flux: ErrorStats
    wall_time_s: float


def solve_case(problem: TestProblem, n: int, grid: InteriorGrid, rule: QuadratureRule) -> SolvedCase:
    """Mesh the circle with n nodes, solve for the flux and evaluate the field on grid."""
    mesh = discretize_circle(n)
    start = time.perf_counter()
    solution = solve_flux(assemble(mesh, problem, rule))
    report = evaluate_field(solution, grid, problem, rule)
    wall_time = time.perf_counter() - start
    interior, flux = error_stats(report), flux_error_stats(solution, problem)
    return SolvedCase(solution, report, interior, flux, wall_time)


@dataclass(frozen=True)
class ConvergenceRow:
    """One mesh size of a refinement study.

    stats is None when this row failed; error then carries the reason.
    wall_time_s covers assembly, solve and interior evaluation only.
    """

    n: int
    stats: ErrorStats | None
    wall_time_s: float
    error: str | None = None


def convergence_study(
    problem: TestProblem, n_list, grid: InteriorGrid, rule: QuadratureRule
) -> list[ConvergenceRow]:
    """Run ``solve_case`` for the same problem at each boundary resolution of n_list.

    The interior grid is held fixed while n runs through n_list, whose entries
    must be distinct (rows in ascending order).  A ValueError, RuntimeError
    (SolveError included) or MemoryError at one resolution is recorded in its
    row and does not abort the others; any other exception, such as a bug, propagates.
    """
    n_values = sorted(int(n) for n in n_list)
    if not n_values:
        raise ValueError("convergence study needs at least one boundary resolution")
    if len(set(n_values)) != len(n_values):
        raise ValueError(f"convergence study needs distinct boundary resolutions, got {n_values}")
    rows: list[ConvergenceRow] = []
    for n in n_values:
        start = time.perf_counter()
        try:
            case = solve_case(problem, n, grid, rule)
        except (ValueError, RuntimeError, MemoryError) as exc:
            rows.append(ConvergenceRow(n, None, time.perf_counter() - start, str(exc)))
            continue
        rows.append(ConvergenceRow(n, case.interior, case.wall_time_s))
    return rows


def empirical_orders(rows: list[ConvergenceRow]) -> list[float]:
    """Observed convergence order of max_abs between consecutive successful rows."""
    orders = []
    done = [r for r in rows if r.stats is not None]
    for coarse, fine in zip(done, done[1:]):
        ratio = coarse.stats.max_abs / fine.stats.max_abs
        orders.append(float(np.log(ratio) / np.log(fine.n / coarse.n)))
    return orders
