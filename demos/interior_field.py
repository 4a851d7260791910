"""
Evaluating the solution inside the disk
=======================================

"""

# Once the boundary fluxes are known, the boundary integral representation
# reconstructs u anywhere inside the domain: no volume mesh is ever built.
# This script reproduces the interior error survey for the first benchmark.

import numpy as np

from diskbem import (
    assemble,
    discretize_circle,
    error_stats,
    evaluate_field,
    evaluate_interior,
    gauss_legendre,
    get_problem,
    interior_grid,
    solve_flux,
)

problem = get_problem(1)
rule = gauss_legendre(8)
solution = solve_flux(assemble(discretize_circle(30), problem, rule))

# Single points first.  The origin is as far from the boundary as possible,
# so the representation is essentially exact there.
for point in [(0.0, 0.0), (0.0, -0.8), (-0.4, -0.4)]:
    u_bem = evaluate_interior(solution, point, rule)
    u_exact = float(problem.u(point))
    print(f"u({point[0]:+.1f}, {point[1]:+.1f}) = {u_bem:.8f}   exact {u_exact:.8f}")

# Now a whole lattice: an 11 x 11 grid clipped to the open disk keeps 69
# points.  evaluate_field pairs every value with the exact solution.
grid = interior_grid(11)
report = evaluate_field(solution, grid, problem, rule)
stats = error_stats(report)

print(f"\n{len(report)} interior points")
print(f"max abs error  {stats.max_abs:.8e}")
print(f"max rel error  {stats.max_rel:.8e}")
print(f"mean abs error {stats.mean_abs:.8e}")
print(f"mean rel error {stats.mean_rel:.8e}")

# The chord integrals are exact, so the worst point's error is the
# discretisation's: linear elements on the inscribed polygon, not quadrature.
worst = int(np.argmax(report.abs_err))
x, y = report.points[worst]
print(f"worst point ({x:+.2f}, {y:+.2f}), abs error {report.abs_err[worst]:.3e}")
