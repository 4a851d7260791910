"""
Measuring the convergence rate under mesh refinement
====================================================

"""

# Linear boundary elements are expected to converge quadratically for smooth
# data.  convergence_study solves the same problem across several boundary
# resolutions and reports the interior error statistics for each.

from diskbem import convergence_study, empirical_orders, gauss_legendre, get_problem, interior_grid

problem = get_problem(1)
rule = gauss_legendre(8)

rows = convergence_study(problem, n_list=[15, 30, 60, 120], grid=interior_grid(11), rule=rule)

print("   n    max_abs       mean_abs      wall time")
for row in rows:
    stats = row.stats
    print(
        f"{row.n:4d}   {stats.max_abs:.6e}  {stats.mean_abs:.6e}  {row.wall_time_s:.3f} s"
    )

# The observed order is the slope of the error against the element size on a
# log-log scale, computed between consecutive rows.  Values near 2 confirm
# the expected quadratic rate.
orders = empirical_orders(rows)
print("\nobserved orders:", ", ".join(f"{order:.2f}" for order in orders))
