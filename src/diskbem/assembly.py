"""Collocation assembly of the circulant boundary-influence system.

For Dirichlet data u on the boundary, collocating the boundary integral
identity at every node gives

    c * u_k + sum_j H[k, j] * u_j = sum_j G[k, j] * q_j,

where q is the unknown outward normal flux, H accumulates flux-kernel element
integrals, G accumulates potential-kernel element integrals, and the free term
c is the interior-angle fraction of the polygon vertex.  For the regular n-gon
every vertex angle is pi*(n-2)/n, hence c = (n-2)/(2n); ``BoundaryMesh`` can
only be that polygon.

Every node sees the same polygon, rotated, so H and G are circulant: row k is
row 0 rolled by k.  Only row 0 is integrated and stored; the n-by-n matrices
are built from it when they are read.

Row 0 is integrated from the node angles alone.  In element j's own frame
node 0 has closed-form offsets in j, and element n-1-j is element j
mirrored, so only one shape function is integrated by Gauss-Legendre
quadrature and the other is its reversal (see ``assemble``), except where
node 0 is an endpoint of the element:

* the flux kernel is orthogonal to its own chord there, so both H
  contributions are exactly zero and are written as exact zeros;
* the potential kernel has an integrable log singularity, replaced by the
  closed forms in :mod:`diskbem.quadrature` (``singular_g_pair``).

Entry j of row 0 sums the contributions of the two elements sharing node j in
a fixed order, so two assemblies of the same inputs are bitwise identical,
and entries j and n-j sum the same two values, so row 0 is exactly
mirror-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryMesh
from .kernels import _FLUX_SCALE, _POTENTIAL_SCALE
from .problems import TestProblem
from .quadrature import QuadratureRule, singular_g_pair

__all__ = ["BemSystem", "assemble"]


@dataclass(frozen=True)
class BemSystem:
    """Assembled circulant system relating nodal potentials to nodal fluxes.

    h_row and g_row are row 0 of H and G; row k of either matrix is its row 0
    rolled by k and collocates at node k.  u_nodes holds the Dirichlet data
    sampled at the nodes.  All three are read-only float64 arrays of shape
    (n,).  The free term c is not stored: it follows from the mesh.
    """

    mesh: BoundaryMesh
    h_row: np.ndarray
    g_row: np.ndarray
    u_nodes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("h_row", "g_row", "u_nodes"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (self.mesh.n,):
                raise ValueError(f"{name} must have shape ({self.mesh.n},), got {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def c(self) -> float:
        """Free-term coefficient of every row: (n-2)/(2n), the vertex's interior-angle fraction."""
        return (self.mesh.n - 2) / (2.0 * self.mesh.n)

    @property
    def H(self) -> np.ndarray:
        """Dense n-by-n H, built from ``h_row`` on every read."""
        return _circulant(self.h_row)

    @property
    def G(self) -> np.ndarray:
        """Dense n-by-n G, built from ``g_row`` on every read."""
        return _circulant(self.g_row)


def _circulant(row: np.ndarray) -> np.ndarray:
    """Read-only n-by-n matrix whose row k is ``np.roll(row, k)``."""
    index = np.arange(len(row))
    dense = row[(index[np.newaxis, :] - index[:, np.newaxis]) % len(row)]
    dense.setflags(write=False)
    return dense


def assemble(mesh: BoundaryMesh, problem: TestProblem, rule: QuadratureRule) -> BemSystem:
    """Integrate row 0 of H and G from the node angles and sample the Dirichlet data.

    Row 0 uses node 0 as source.  With phi = pi/n, element j runs from node j
    to node j+1 with half-length J = sin(phi); in its frame node 0 lies at
    depth 2*sin(j*phi)*sin((j+1)*phi) below the chord and sin((2j+1)*phi)
    behind its midpoint, so r^2 to the point at t is
    (J*t + sin((2j+1)*phi))^2 + depth^2.  Element n-1-j is element j mirrored
    (t -> -t), so only the end-node weights are integrated with ``rule`` and
    the start-node weights are their reversal; ``rule`` is taken to be
    symmetric about 0, as every Gauss-Legendre rule is.  The elements sharing
    node 0, element 0 and element n-1, are singular for it: their H
    contributions are exact zeros and their G contributions come from
    ``singular_g_pair``.
    """
    n = mesh.n
    # sin(m*pi/n) for m = 0 .. 2n-1: depths from consecutive m, offsets from odd m
    sines = np.sin(np.arange(2 * n) * (np.pi / n))
    jacobian = sines[1]
    depth = 2.0 * sines[:n] * sines[1 : n + 1]
    r2 = jacobian * rule.points[:, np.newaxis] + sines[1::2]
    r2 *= r2
    r2 += depth * depth
    # the shape function of the element's end node, with the arc-length scale
    w_end = (jacobian * rule.weights * (0.5 * (1.0 + rule.points)))[:, np.newaxis]
    potential = np.log(r2)
    potential *= _POTENTIAL_SCALE * w_end
    flux = np.divide(depth, r2, out=r2)
    flux *= _FLUX_SCALE * w_end
    h_end = flux.sum(axis=0)
    g_end = potential.sum(axis=0)
    # elements sharing node 0: flux integrals vanish by orthogonality, and the
    # exact log moments give element n-1's end at node 0 the near value
    h_end[0] = h_end[-1] = 0.0
    g_end[-1], g_end[0] = singular_g_pair(2.0 * jacobian)
    # node j collects the start of element j, which is the end of element
    # n-1-j mirrored, and the end of element j-1
    h_row = h_end[::-1] + np.roll(h_end, 1)
    g_row = g_end[::-1] + np.roll(g_end, 1)
    u_nodes = np.asarray(problem.u(mesh.nodes), dtype=float)
    return BemSystem(mesh, h_row, g_row, u_nodes)
