"""Collocation assembly of the dense boundary-influence system.

For Dirichlet data u on the boundary, collocating the boundary integral
identity at every node gives

    c * u_k + sum_j H[k, j] * u_j = sum_j G[k, j] * q_j,

where q is the unknown outward normal flux, H accumulates flux-kernel element
integrals, G accumulates potential-kernel element integrals, and the free term
c is the interior-angle fraction of the polygon vertex.  For the regular n-gon
every vertex angle is pi*(n-2)/n, hence c = (n-2)/(2n); ``BoundaryMesh`` can
only be that polygon.

Element integrals are regular Gauss-Legendre quadratures except where the
collocation node is an endpoint of the element:

* the flux kernel is orthogonal to its own chord there, so both H
  contributions are exactly zero and are written as exact zeros;
* the potential kernel has an integrable log singularity, replaced by the
  closed forms in :mod:`diskbem.quadrature` (``singular_g_pair``).

Entry H[k, j] receives contributions from the two elements sharing node j,
accumulated in element order, so two assemblies of the same inputs are
bitwise identical.
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
    """Assembled dense system relating nodal potentials to nodal fluxes.

    H and G are n-by-n float64 arrays; row k collocates at node k.  c is the
    free-term coefficient shared by all rows of the uniform circle mesh, and
    u_nodes holds the Dirichlet data sampled at the nodes.
    """

    mesh: BoundaryMesh
    H: np.ndarray
    G: np.ndarray
    c: float
    u_nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.mesh.n


def free_term(n: int) -> float:
    """Free-term coefficient at a vertex of the regular n-gon: (n-2)/(2n).

    This is the vertex interior angle pi*(n-2)/n divided by 2*pi, i.e. the
    fraction of a neighborhood of the vertex that lies inside the polygon.
    It tends to 1/2, the smooth-boundary value, as n grows.
    """
    if n < 3:
        raise ValueError(f"free term needs a polygon with n >= 3 vertices, got {n}")
    return (n - 2) / (2.0 * n)


def _regular_rows(mesh: BoundaryMesh, source: np.ndarray, rule: QuadratureRule):
    """Gauss contributions of every element to the collocation row at ``source``.

    Returns (h_start, h_end, g_start, g_end), each of shape (n,): the flux and
    potential integrals weighted by the shape functions of the element's first
    and second node.  Elements that contain ``source`` as an endpoint come out
    finite but meaningless here; ``assemble`` overwrites them.
    """
    t = rule.points
    halves = mesh.halves[np.newaxis, :, :]
    field = mesh.midpoints[np.newaxis, :, :] + t[:, np.newaxis, np.newaxis] * halves
    diff = field - source[np.newaxis, np.newaxis, :]
    r2 = np.sum(diff * diff, axis=-1)
    flux = _flux(np.einsum("tej,ej->te", diff, mesh.normals), r2)
    potential = _potential(r2)
    w_start = (rule.weights * basis_start(t))[:, np.newaxis]
    w_end = (rule.weights * basis_end(t))[:, np.newaxis]
    jacs = mesh.jacobians
    h_start = jacs * np.sum(flux * w_start, axis=0)
    h_end = jacs * np.sum(flux * w_end, axis=0)
    g_start = jacs * np.sum(potential * w_start, axis=0)
    g_end = jacs * np.sum(potential * w_end, axis=0)
    return h_start, h_end, g_start, g_end


def assemble(mesh: BoundaryMesh, problem: TestProblem, rule: QuadratureRule) -> BemSystem:
    """Build the dense H and G matrices and sample the Dirichlet data.

    Collocation row k uses node k as source.  The two elements adjacent to
    node k are singular for that row: their H contributions are exact zeros
    and their G contributions come from ``singular_g_pair``.  All remaining
    elements are integrated with ``rule``.
    """
    nodes = mesh.nodes
    n = mesh.n
    lengths = 2.0 * mesh.jacobians
    element = np.arange(n)
    successor = (element + 1) % n

    H = np.zeros((n, n))
    G = np.zeros((n, n))
    for k in range(n):
        h_start, h_end, g_start, g_end = _regular_rows(mesh, nodes[k], rule)
        before = (k - 1) % n
        # elements sharing node k: flux integrals vanish by orthogonality
        h_start[k] = h_end[k] = 0.0
        h_start[before] = h_end[before] = 0.0
        # potential integrals: exact log moments, near value at the singular node
        g_near, g_far = singular_g_pair(lengths[k])
        g_start[k], g_end[k] = g_near, g_far
        g_near, g_far = singular_g_pair(lengths[before])
        g_start[before], g_end[before] = g_far, g_near
        np.add.at(H[k], element, h_start)
        np.add.at(H[k], successor, h_end)
        np.add.at(G[k], element, g_start)
        np.add.at(G[k], successor, g_end)

    u_nodes = np.asarray(problem.u(nodes), dtype=float)
    return BemSystem(mesh, H, G, free_term(n), u_nodes)
