"""Boundary element solution of the Dirichlet Laplace problem on the unit disk.

The boundary is discretized into straight elements with piecewise-linear
nodal shape functions; collocation at the nodes produces a circulant system,
solved by FFT, whose solution is the outward normal flux, after which the
field anywhere strictly inside the boundary polygon follows from the boundary
integral representation.

Typical use::

    from diskbem import (
        discretize_circle, interior_grid, get_problem, gauss_legendre,
        assemble, solve_flux, evaluate_field, error_stats,
    )

    mesh = discretize_circle(30)
    problem = get_problem(1)
    rule = gauss_legendre(8)
    solution = solve_flux(assemble(mesh, problem, rule))
    report = evaluate_field(solution, interior_grid(11), problem, rule)
    print(error_stats(report))
"""

from .analysis import (
    ConvergenceRow,
    ErrorStats,
    convergence_study,
    empirical_orders,
    error_stats,
    flux_error_stats,
)
from .assembly import BemSystem, assemble, free_term
from .geometry import BoundaryMesh, InteriorGrid, discretize_circle, interior_grid
from .kernels import (
    SingularKernelError,
    fundamental_flux,
    fundamental_solution,
    normal_flux,
)
from .problems import PROBLEM_IDS, TestProblem, constant_problem, get_problem
from .quadrature import (
    MAX_ORDER,
    QuadratureRule,
    basis_end,
    basis_start,
    gauss_legendre,
    singular_g_pair,
    singular_log_moments,
)
from .solver import (
    PIVOT_THRESHOLD,
    REL_EXCLUSION_THRESHOLD,
    BoundarySolution,
    FieldReport,
    SolveError,
    evaluate_field,
    evaluate_interior,
    solve_flux,
)

__version__ = "0.1.0"

__all__ = [
    "BemSystem",
    "BoundaryMesh",
    "BoundarySolution",
    "ConvergenceRow",
    "ErrorStats",
    "FieldReport",
    "InteriorGrid",
    "MAX_ORDER",
    "PIVOT_THRESHOLD",
    "PROBLEM_IDS",
    "QuadratureRule",
    "REL_EXCLUSION_THRESHOLD",
    "SingularKernelError",
    "SolveError",
    "TestProblem",
    "assemble",
    "basis_end",
    "basis_start",
    "constant_problem",
    "convergence_study",
    "discretize_circle",
    "empirical_orders",
    "error_stats",
    "evaluate_field",
    "evaluate_interior",
    "flux_error_stats",
    "free_term",
    "fundamental_flux",
    "fundamental_solution",
    "gauss_legendre",
    "get_problem",
    "interior_grid",
    "normal_flux",
    "singular_g_pair",
    "singular_log_moments",
    "solve_flux",
    "__version__",
]
