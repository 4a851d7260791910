"""Boundary element solution of the Dirichlet Laplace problem on the unit disk.

The boundary is discretized into straight elements with piecewise-linear
nodal shape functions; collocation at the nodes produces a circulant system,
solved by FFT, whose solution is the outward normal flux, after which the
field anywhere strictly inside the unit circle follows from the boundary
integral representation, continued across the chords of the polygon.

Typical use, the whole pipeline at the reference resolution::

    from diskbem import gauss_legendre, get_problem, interior_grid, solve_case

    case = solve_case(get_problem(1), 30, interior_grid(11), gauss_legendre(8))
    print(case.interior, case.flux, case.wall_time_s)

Each library module's ``__all__`` is where its exports are declared; the
package re-exports them all, and its ``__all__`` is their concatenation.
"""

from . import analysis, assembly, geometry, kernels, problems, quadrature, solver
from .analysis import *  # noqa: F401,F403
from .assembly import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *geometry.__all__,
    *kernels.__all__,
    *quadrature.__all__,
    *problems.__all__,
    *assembly.__all__,
    *solver.__all__,
    *analysis.__all__,
    "__version__",
]
