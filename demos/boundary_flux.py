"""
Solving for the boundary flux on the unit disk
==============================================

"""

# The Dirichlet problem prescribes the potential u on the boundary and asks
# for the outward normal flux q = du/dn.  We discretize the unit circle into
# straight elements, collocate the boundary integral identity at the nodes,
# and solve the resulting circulant system by FFT.

import numpy as np

from diskbem import assemble, discretize_circle, gauss_legendre, get_problem, solve_flux

# The first benchmark has the exact solution u = 1 + x^2 - y^2, whose flux on
# the unit circle is q = 2*cos(2*theta).
problem = get_problem(1)

# Thirty nodes is the reference resolution; the quadrature order governs the
# accuracy of the regular element integrals only (singular ones are exact).
mesh = discretize_circle(30)
rule = gauss_legendre(8)

system = assemble(mesh, problem, rule)
solution = solve_flux(system)

# Compare the solved nodal fluxes with the exact trace at a few angles.
q_exact = problem.q(mesh.nodes)
print("node      x         y        q_bem     q_exact   abs_err")
for k in range(0, mesh.n, 5):
    x, y = mesh.nodes[k]
    print(
        f"{k + 1:4d}  {x:+.5f}  {y:+.5f}  {solution.q_nodes[k]:+.5f}  "
        f"{q_exact[k]:+.5f}  {abs(solution.q_nodes[k] - q_exact[k]):.2e}"
    )

# The worst node error at this resolution is around 1.5e-2 and shrinks
# quadratically as the mesh is refined.
worst = np.max(np.abs(solution.q_nodes - q_exact))
print(f"\nmax nodal flux error: {worst:.3e}")
