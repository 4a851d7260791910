"""Boundary element solution of the Dirichlet Laplace problem on the unit disk.

The boundary is discretized into straight elements with piecewise-linear
nodal shape functions; collocation at the nodes produces a circulant system,
solved by FFT, whose solution is the outward normal flux, after which the
field anywhere strictly inside the boundary polygon follows from the boundary
integral representation.

Typical use, the whole pipeline at the reference resolution::

    from diskbem import gauss_legendre, get_problem, interior_grid, solve_case

    case = solve_case(get_problem(1), 30, interior_grid(11), gauss_legendre(8))
    print(case.interior, case.flux, case.wall_time_s)
"""

from .analysis import (
    ConvergenceRow,
    ErrorStats,
    SolvedCase,
    convergence_study,
    empirical_orders,
    error_stats,
    flux_error_stats,
    solve_case,
)
from .assembly import BemSystem, assemble
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
    gauss_legendre,
    singular_g_pair,
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
    "SolvedCase",
    "TestProblem",
    "assemble",
    "constant_problem",
    "convergence_study",
    "discretize_circle",
    "empirical_orders",
    "error_stats",
    "evaluate_field",
    "evaluate_interior",
    "flux_error_stats",
    "fundamental_flux",
    "fundamental_solution",
    "gauss_legendre",
    "get_problem",
    "interior_grid",
    "normal_flux",
    "singular_g_pair",
    "solve_case",
    "solve_flux",
    "__version__",
]
