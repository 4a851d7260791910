"""Circulant solution of the assembled system and interior field evaluation.

The FFT diagonalizes the circulants G and H (P. J. Davis, *Circulant
Matrices*, 1979) to solve G q = c u + H u for the nodal fluxes q, with
Gauss's law in place of G's constant mode.  Inside the polygon,

    u(p) = sum_i [charge_i w(p, x_i) - dipole_i dw/dn(p, x_i)],

the single- minus the double-layer potential summed over all Gauss points
x_i, where charge and dipole are q and u interpolated and weighted.  p must
lie strictly inside the polygon, so no integral is singular; points within
half an element length of the boundary are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import BemSystem, _gauss_kernels
from .geometry import BoundaryMesh, InteriorGrid
from .problems import TestProblem
from .quadrature import QuadratureRule

__all__ = [
    "REL_EXCLUSION_THRESHOLD",
    "PIVOT_THRESHOLD",
    "SolveError",
    "BoundarySolution",
    "FieldReport",
    "solve_flux",
    "evaluate_interior",
    "evaluate_field",
]

# Exact values with magnitude below this threshold are excluded from relative
# error statistics (the ratio would be meaningless).
REL_EXCLUSION_THRESHOLD = 1e-12

# Smallest acceptable eigenvalue magnitude of G before the system is declared
# singular.
PIVOT_THRESHOLD = 1e-12

_RESIDUAL_FACTOR = 1e-10

# (point, Gauss point, element) triples per block of interior evaluation
_BLOCK_TRIPLES = 2**14


class SolveError(RuntimeError):
    """Flux solve failed; ``smallest_pivot``: G's smallest |eigenvalue| over the non-constant modes."""

    def __init__(self, message: str, smallest_pivot: float | None = None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


@dataclass(frozen=True)
class BoundarySolution:
    """Nodal Dirichlet data and the solved nodal fluxes on a mesh."""

    mesh: BoundaryMesh
    u_nodes: np.ndarray
    q_nodes: np.ndarray


@dataclass(frozen=True)
class FieldReport:
    """Interior evaluation against the exact solution.

    abs_err and rel_err are derived from u_bem and u_exact on construction;
    rel_err is NaN wherever |u_exact| < REL_EXCLUSION_THRESHOLD.
    near_boundary flags points within half an element length of the boundary.
    """

    points: np.ndarray
    u_bem: np.ndarray
    u_exact: np.ndarray
    near_boundary: np.ndarray
    abs_err: np.ndarray = field(init=False)
    rel_err: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        u_bem = np.asarray(self.u_bem, dtype=float).reshape(-1)
        u_exact = np.asarray(self.u_exact, dtype=float).reshape(-1)
        flags = np.asarray(self.near_boundary, dtype=bool).reshape(-1)
        if not (len(points) == len(u_bem) == len(u_exact) == len(flags)):
            raise ValueError("field report arrays must have matching lengths")
        abs_err = np.abs(u_bem - u_exact)
        rel_err = np.full_like(abs_err, np.nan)
        defined = np.abs(u_exact) >= REL_EXCLUSION_THRESHOLD
        rel_err[defined] = abs_err[defined] / np.abs(u_exact[defined])
        for name, arr in (
            ("points", points),
            ("u_bem", u_bem),
            ("u_exact", u_exact),
            ("near_boundary", flags),
            ("abs_err", abs_err),
            ("rel_err", rel_err),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.points)


def _circulant_product(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the circulant with eigenvalues ``spectrum`` (from rfft) and x."""
    return np.fft.irfft(spectrum * np.fft.rfft(x), len(x))


def solve_flux(system: BemSystem) -> BoundarySolution:
    """Solve G q = (c + H) u for the nodal fluxes by diagonalizing G.

    The circulant whose row k is ``np.roll(row, k)`` has the eigenvalues
    ``conj(rfft(row))`` (plus their conjugates) on the Fourier modes.  G's
    constant mode is not inverted: q's mean is zero, which is the bordered
    system [G 1; L^T 0] whose multiplier is the mean of the right-hand side.
    """
    h_spectrum = np.conj(np.fft.rfft(system.h_row))
    g_spectrum = np.conj(np.fft.rfft(system.g_row))
    rhs = system.c * system.u_nodes + _circulant_product(h_spectrum, system.u_nodes)
    mean = float(np.mean(rhs))
    bound = _RESIDUAL_FACTOR * float(np.max(np.abs(rhs)))
    # data with a mean need the constant mode too, so its eigenvalue joins the pivots
    modes = slice(0 if abs(mean) > bound else 1, None)
    smallest = float(np.min(np.abs(g_spectrum[modes])))
    # both checks are written so that NaN data fails them too
    if not smallest >= PIVOT_THRESHOLD:
        raise SolveError(
            f"influence matrix is numerically singular: smallest |eigenvalue| {smallest:.3e}",
            smallest_pivot=smallest,
        )
    # reciprocal eigenvalues invert the circulant; q's constant mode is zero
    q = _circulant_product(np.append(0.0, 1.0 / g_spectrum[1:]), rhs)
    residual = float(np.max(np.abs(_circulant_product(g_spectrum, q) + mean - rhs)))
    if not residual <= bound:
        raise SolveError(
            f"solve residual {residual:.3e} exceeds {bound:.3e}",
            smallest_pivot=smallest,
        )
    return BoundarySolution(system.mesh, system.u_nodes, q)


def _represent(solution: BoundarySolution, points: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """u at each row of the (P, 2) ``points``, one ``_gauss_kernels`` call per block."""
    mesh, u, q = solution.mesh, solution.u_nodes, solution.q_nodes
    t = rule.points[:, np.newaxis]
    scale = rule.weights[:, np.newaxis] * mesh.jacobians
    charge = scale * (0.5 * (1.0 - t) * q + 0.5 * (1.0 + t) * np.roll(q, -1))
    dipole = scale * (0.5 * (1.0 - t) * u + 0.5 * (1.0 + t) * np.roll(u, -1))
    apothems = np.sum(mesh.midpoints * mesh.normals, axis=1)
    block = max(1, _BLOCK_TRIPLES // (mesh.n * rule.order))
    values = np.empty(len(points))
    for start in range(0, len(points), block):
        sources = points[start : start + block]
        # strictly inside every chord's half-plane, written so that NaN fails
        inside = np.all(sources @ mesh.normals.T < apothems, axis=1)
        if not np.all(inside):
            point = sources[np.argmin(inside)].tolist()
            raise ValueError(f"point {point} is not strictly inside the boundary polygon")
        x, y = sources.T[:, :, np.newaxis, np.newaxis]
        flux, potential = _gauss_kernels(mesh, rule, x, y)
        layers = (charge * potential - dipole * flux).reshape(len(sources), -1)
        # each sum runs over one point's Gauss points, so no value depends on its block
        values[start : start + block] = np.sum(layers, axis=-1)
    return values


def evaluate_interior(solution: BoundarySolution, point, rule: QuadratureRule) -> float:
    """Evaluate the representation at one point strictly inside the boundary polygon."""
    return float(_represent(solution, np.asarray(point, dtype=float).reshape(1, 2), rule)[0])


def evaluate_field(
    solution: BoundarySolution,
    grid: InteriorGrid,
    problem: TestProblem,
    rule: QuadratureRule,
) -> FieldReport:
    """Evaluate the solution on a grid and compare with the exact field."""
    points = grid.points
    u_bem = _represent(solution, points, rule)
    u_exact = np.asarray(problem.u(points), dtype=float)
    half_length = float(np.max(solution.mesh.jacobians))
    flags = 1.0 - np.hypot(points[:, 0], points[:, 1]) < half_length
    return FieldReport(points, u_bem, u_exact, flags)
