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

Element integrals are regular Gauss-Legendre quadratures except where the
collocation node is an endpoint of the element:

* the flux kernel is orthogonal to its own chord there, so both H
  contributions are exactly zero and are written as exact zeros;
* the potential kernel has an integrable log singularity, replaced by the
  closed forms in :mod:`diskbem.quadrature` (``singular_g_pair``).

Entry j of row 0 sums the contributions of the two elements sharing node j in
a fixed order, so two assemblies of the same inputs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryMesh
from .kernels import _flux, _potential
from .problems import TestProblem
from .quadrature import QuadratureRule, basis_end, basis_start, singular_g_pair

__all__ = ["BemSystem", "free_term", "assemble"]


@dataclass(frozen=True)
class BemSystem:
    """Assembled circulant system relating nodal potentials to nodal fluxes.

    h_row and g_row are row 0 of H and G, read-only float64 arrays of shape
    (n,); row k of either matrix is its row 0 rolled by k and collocates at
    node k.  u_nodes holds the Dirichlet data sampled at the nodes.  The free
    term c is not stored: it follows from the mesh.
    """

    mesh: BoundaryMesh
    h_row: np.ndarray
    g_row: np.ndarray
    u_nodes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("h_row", "g_row"):
            row = np.array(getattr(self, name), dtype=float)
            if row.shape != (self.mesh.n,):
                raise ValueError(f"{name} must have shape ({self.mesh.n},), got {row.shape}")
            row.setflags(write=False)
            object.__setattr__(self, name, row)

    @property
    def c(self) -> float:
        """Free-term coefficient shared by every row: ``free_term(mesh.n)``."""
        return free_term(self.mesh.n)

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


def free_term(n: int) -> float:
    """Free-term coefficient at a vertex of the regular n-gon: (n-2)/(2n).

    This is the vertex interior angle pi*(n-2)/n divided by 2*pi, i.e. the
    fraction of a neighborhood of the vertex that lies inside the polygon.
    It tends to 1/2, the smooth-boundary value, as n grows.
    """
    if n < 3:
        raise ValueError(f"free term needs a polygon with n >= 3 vertices, got {n}")
    return (n - 2) / (2.0 * n)


def _regular_rows(mesh: BoundaryMesh, sources: np.ndarray, rule: QuadratureRule):
    """Gauss contributions of every element to the row at each of ``sources``.

    ``sources`` has shape (..., 2): one source point, or a block of them.
    Returns (h_start, h_end, g_start, g_end), each of shape (..., n): the flux
    and potential integrals weighted by the shape functions of the element's
    first and second node.  Elements that contain a source as an endpoint come
    out finite but meaningless here; ``assemble`` overwrites them for node 0.
    """
    t = rule.points
    field = mesh.midpoints + t[:, np.newaxis, np.newaxis] * mesh.halves
    diff = field - np.asarray(sources)[..., np.newaxis, np.newaxis, :]
    r2 = np.sum(diff * diff, axis=-1)
    flux = _flux(np.einsum("...tej,ej->...te", diff, mesh.normals), r2)
    potential = _potential(r2)
    w_start = (rule.weights * basis_start(t))[:, np.newaxis]
    w_end = (rule.weights * basis_end(t))[:, np.newaxis]
    jacs = mesh.jacobians
    h_start = jacs * np.sum(flux * w_start, axis=-2)
    h_end = jacs * np.sum(flux * w_end, axis=-2)
    g_start = jacs * np.sum(potential * w_start, axis=-2)
    g_end = jacs * np.sum(potential * w_end, axis=-2)
    return h_start, h_end, g_start, g_end


def assemble(mesh: BoundaryMesh, problem: TestProblem, rule: QuadratureRule) -> BemSystem:
    """Integrate row 0 of H and G and sample the Dirichlet data.

    Row 0 uses node 0 as source.  The two elements sharing node 0, element 0
    and element n-1, are singular for it: their H contributions are exact
    zeros and their G contributions come from ``singular_g_pair``.  All
    remaining elements are integrated with ``rule``.
    """
    h_start, h_end, g_start, g_end = _regular_rows(mesh, mesh.nodes[0], rule)
    lengths = 2.0 * mesh.jacobians
    # elements sharing node 0: flux integrals vanish by orthogonality
    h_start[[0, -1]] = h_end[[0, -1]] = 0.0
    # potential integrals: exact log moments, near value at the singular node
    g_start[0], g_end[0] = singular_g_pair(lengths[0])
    g_end[-1], g_start[-1] = singular_g_pair(lengths[-1])
    # node j collects the start of element j and the end of element j-1
    h_row = h_start + np.roll(h_end, 1)
    g_row = g_start + np.roll(g_end, 1)
    u_nodes = np.asarray(problem.u(mesh.nodes), dtype=float)
    return BemSystem(mesh, h_row, g_row, u_nodes)
