"""Error statistics and mesh-refinement studies.

Relative errors are undefined where the exact solution (or exact flux)
vanishes; such points are excluded from the relative statistics and counted
in ``n_rel_excluded`` instead of being silently dropped.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import assemble
from .geometry import discretize_circle, interior_grid
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
    "ConvergenceRow",
    "error_stats",
    "flux_error_stats",
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
    problem: TestProblem, n_list, m: int, rule: QuadratureRule
) -> list[ConvergenceRow]:
    """Solve the same problem over several boundary resolutions.

    The interior grid is held fixed at size m while n runs through n_list
    (reported in ascending order).  A ValueError, RuntimeError (SolveError
    included) or MemoryError at one resolution is recorded in its row and does
    not abort the others; any other exception, such as a bug, propagates.
    """
    n_values = sorted(int(n) for n in n_list)
    if not n_values:
        raise ValueError("convergence study needs at least one boundary resolution")
    grid = interior_grid(m)
    rows: list[ConvergenceRow] = []
    for n in n_values:
        start = time.perf_counter()
        try:
            system = assemble(discretize_circle(n), problem, rule)
            solution = solve_flux(system)
            report = evaluate_field(solution, grid, problem, rule)
            stats = error_stats(report)
        except (ValueError, RuntimeError, MemoryError) as exc:
            rows.append(ConvergenceRow(n, None, time.perf_counter() - start, str(exc)))
            continue
        rows.append(ConvergenceRow(n, stats, time.perf_counter() - start))
    return rows


def empirical_orders(rows: list[ConvergenceRow]) -> list[float]:
    """Observed convergence order of max_abs between consecutive successful rows."""
    orders = []
    done = [r for r in rows if r.stats is not None]
    for coarse, fine in zip(done, done[1:]):
        ratio = coarse.stats.max_abs / fine.stats.max_abs
        orders.append(float(np.log(ratio) / np.log(fine.n / coarse.n)))
    return orders
