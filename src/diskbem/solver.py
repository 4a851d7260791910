"""Circulant solution of the assembled system and interior field evaluation.

The FFT diagonalizes the circulants G and H (P. J. Davis, *Circulant
Matrices*, 1979) to solve G q = c u + H u for the nodal fluxes q, with
Gauss's law in place of G's constant mode.  Inside the polygon,

    u(p) = int q w(p, x) ds - int u dw/dn(p, x) ds,

the single- minus the double-layer potential of the linear densities q and u
on the chords.  Both are integrated exactly, in the closed forms for straight
panels (J. L. Hess and A. M. O. Smith, Prog. Aerospace Sci. 8, 1967): on each
chord they reduce to ln r^2 at its two ends and the angle it subtends at p,
weighted by polynomials of degree 2 in p.  So a point costs n+1 logs and n+1
angles, contracted with coefficients built once per solution; no quadrature
rule is involved.  Each point's row holds its nodes 0..n with node 0 repeated,
and a block of rows is swept as one flat array, so the (n+1)-th log repeats
node 0's and the (n+1)-th angle pairs node n with the next point's node 0;
both have weight zero.  Each chord's angle lies in (0, 2 pi), so the sums
continue harmonically across the open chords (R. Kress, *Linear Integral
Equations*, 3rd ed., ch. 6) into the lenses between polygon and circle.  Only
mesh nodes and points outside the open unit disk, by ``interior_grid``'s
test, are refused; points within sin(pi/n) of the unit circle are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import BemSystem
from .geometry import BoundaryMesh, InteriorGrid, _in_open_disk
from .kernels import _FLUX_SCALE, _POTENTIAL_SCALE
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

# (point, node) pairs per block of interior evaluation
_BLOCK_PAIRS = 2**13


class SolveError(RuntimeError):
    """Flux solve failed; ``smallest_pivot``: G's smallest |eigenvalue| over the non-constant modes."""

    def __init__(self, message: str, smallest_pivot: float | None = None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


@dataclass(frozen=True)
class BoundarySolution:
    """Nodal Dirichlet data and the solved nodal fluxes on a mesh, both read-only."""

    mesh: BoundaryMesh
    u_nodes: np.ndarray
    q_nodes: np.ndarray


@dataclass(frozen=True)
class FieldReport:
    """Interior evaluation against the exact solution.

    abs_err and rel_err are derived from u_bem and u_exact on construction;
    rel_err is NaN wherever |u_exact| < REL_EXCLUSION_THRESHOLD.
    near_boundary flags points within half an element length, sin(pi/n), of
    the unit circle: 1 - |p| < sin(pi/n).
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
    q.setflags(write=False)
    return BoundarySolution(system.mesh, system.u_nodes, q)


def _layer_coefficients(solution: BoundarySolution):
    """What ``_block_values`` needs of a solution: the (2, 5, n+1) coefficients
    of ln r^2 at each node and of the angle of each chord, each half with a
    zero last column for the pair that straddles two points' rows; 5
    constants; and the (2, n+1) node coordinates with node 0 repeated.

    Every chord is chord 0 rotated.  With phi = pi/n, chord e from node a to
    node b has length L = 2 sin(phi), and its frame w = (zeta - p) conj(tau),
    tau the unit tangent, puts node a at w0 - conj(tau) p and node b at
    w0 + L - conj(tau) p, where w0 = -sin(phi) - i cos(phi) for every chord; so
    conj(tau) = w0 conj(zeta_a).  Fold the kernel constants into qf = -q/(4 pi)
    and uf = u/(2 pi), and write beta = (qf_b - qf_a)/L and, at each end,
    kappa = qf + i (uf_b - uf_a)/(2L) and Phi = kappa w - beta w^2/2.  The exact
    integrals of the linear densities over every chord then sum to

        u(p) = sum_j l_j Re(Phi_b[j-1] - Phi_a[j]) + sum_e theta_e (uf_a[e] - 2 Im Phi_a[e])
               - sum_e Re(beta L conj(tau) p) - L sum_e (qf_a + qf_b),

    with l_j = ln r^2 at node j and theta_e in (0, 2 pi) the angle chord e subtends at p.
    (Each chord's midpoint lies at -i cos(phi) in its frame, so the midpoint
    term of the integrals is imaginary and drops.)  Every coefficient is a
    complex polynomial of degree 2 in p, so its real part is one column in the
    basis 1, x, y, x^2 - y^2, 2xy.
    """
    mesh = solution.mesh
    n = mesh.n
    half_length = np.sin(np.pi / n)
    length = 2.0 * half_length
    w0 = complex(-half_length, -np.cos(np.pi / n))
    conj_tangent = w0 * (mesh.nodes[:, 0] - 1j * mesh.nodes[:, 1])
    qf = _POTENTIAL_SCALE * solution.q_nodes
    uf = -_FLUX_SCALE * solution.u_nodes
    qf_next = np.roll(qf, -1)
    beta = (qf_next - qf) / length
    u_slope = (0.5j / length) * (np.roll(uf, -1) - uf)
    # Phi = phi0 + phi1 p + phi2 p^2 at each end, from w = w0 - conj(tau) p
    kappa = qf + u_slope
    start0, start1 = w0 * (kappa - 0.5 * beta * w0), conj_tangent * (beta * w0 - kappa)
    w0 += length
    kappa = qf_next + u_slope
    end0, end1 = w0 * (kappa - 0.5 * beta * w0), conj_tangent * (beta * w0 - kappa)
    phi2 = -0.5 * beta * conj_tangent * conj_tangent
    coefficients = np.zeros((2, 5, n + 1))
    for half, (c0, c1, c2) in zip(coefficients, (
        (np.roll(end0, 1) - start0, np.roll(end1, 1) - start1, np.roll(phi2, 1) - phi2),
        (uf + 2j * start0, 2j * start1, 2j * phi2),
    )):
        # Re(c0 + c1 p + c2 p^2) in the basis 1, x, y, x^2 - y^2, 2xy
        half[:, :n] = c0.real, c1.real, -c1.imag, c2.real, -c2.imag
    c1 = -length * np.sum(beta * conj_tangent)
    constants = np.array([-length * np.sum(qf + qf_next), c1.real, -c1.imag, 0.0, 0.0])
    closed = np.append(mesh.nodes, mesh.nodes[:1], axis=0).T.copy()
    return coefficients, constants, closed


def _block_values(layers, sources: np.ndarray, work) -> np.ndarray:
    """u at the (B, 2) ``sources`` from the exact integrals over every chord.

    Row b of each (B, n+1) buffer in ``work`` holds point b's nodes 0..n, node 0
    repeated, and every pass sweeps the B(n+1) floats as one flat array, the
    products of neighbouring nodes included.  So a point takes n+1 logs and
    n+1 angles: arctan2, plus 2 pi where the cross product's sign bit is set.
    The pair that straddles two rows, node n of one point and node 0 of the
    next, has weight zero.  A mesh node is refused.
    """
    coefficients, constants, closed = layers
    dx, dy, cross, theta, ell = (array[: len(sources)] for array in work)
    np.subtract(closed[0], sources[:, :1], out=dx)
    np.subtract(closed[1], sources[:, 1:], out=dy)
    # each node a and its successor b across the flat buffers; reshape(-1) of
    # a C-contiguous prefix is a view, so the products write into the buffers
    dx_flat, dy_flat = dx.reshape(-1), dy.reshape(-1)
    dx_a, dx_b, dy_a, dy_b = dx_flat[:-1], dx_flat[1:], dy_flat[:-1], dy_flat[1:]
    c, t, scratch = (array.reshape(-1)[:-1] for array in (cross, theta, ell))
    np.multiply(dx_a, dy_b, out=c)
    c -= np.multiply(dy_a, dx_b, out=scratch)
    np.multiply(dx_a, dx_b, out=t)
    t += np.multiply(dy_a, dy_b, out=scratch)
    # the last row's straddling slot has no next point and holds stale
    # workspace; zero weight times a NaN there would still be NaN
    cross[-1, -1], theta[-1, -1] = 0.0, 1.0
    np.arctan2(cross, theta, out=theta)
    # signbit, not cross < 0: a point on a chord may have cross = -0.0, where arctan2 gives -pi
    np.add(theta, 2.0 * np.pi, out=theta, where=np.signbit(cross))
    dx *= dx
    dy *= dy
    if not np.add(dx, dy, out=cross).min() > 0.0:
        point = sources[cross.argmin() // cross.shape[1]].tolist()
        raise ValueError(f"point {point} is a node of the boundary mesh")
    np.log(cross, out=ell)
    # each reduction runs over one point's nodes, so no value depends on its block
    terms = np.einsum("bn,mn->bm", ell, coefficients[0])
    terms += np.einsum("bn,mn->bm", theta, coefficients[1])
    terms += constants
    x, y = sources[:, 0], sources[:, 1]
    return (
        terms[:, 0] + x * terms[:, 1] + y * terms[:, 2]
        + (x * x - y * y) * terms[:, 3] + 2.0 * x * y * terms[:, 4]
    )


def _represent(solution: BoundarySolution, points: np.ndarray) -> np.ndarray:
    """u at each row of the (P, 2) ``points``, one ``_block_values`` call per block.

    The blocks share one workspace: fresh (B, n+1) arrays per block would be
    page-faulted in again each time.
    """
    if not np.all(inside := _in_open_disk(points)):
        point = points[np.argmin(inside)].tolist()
        raise ValueError(f"point {point} is not strictly inside the unit circle")
    layers = _layer_coefficients(solution)
    n = solution.mesh.n
    block = max(1, min(len(points), _BLOCK_PAIRS // n))
    work = tuple(np.empty((block, n + 1)) for _ in range(5))
    values = np.empty(len(points))
    for start in range(0, len(points), block):
        values[start : start + block] = _block_values(layers, points[start : start + block], work)
    return values


def evaluate_interior(solution: BoundarySolution, point, rule: QuadratureRule) -> float:
    """Evaluate the representation at one point of the open unit disk, not a mesh node.

    ``rule`` is not read: the chord integrals are exact, so K is the order of assembly only.
    """
    return float(_represent(solution, np.asarray(point, dtype=float).reshape(1, 2))[0])


def evaluate_field(
    solution: BoundarySolution,
    grid: InteriorGrid,
    problem: TestProblem,
    rule: QuadratureRule,
) -> FieldReport:
    """Evaluate the solution on a grid and compare with the exact field.

    ``rule`` is not read: the chord integrals are exact, so K is the order of assembly only.
    """
    points = grid.points
    u_bem = _represent(solution, points)
    u_exact = np.asarray(problem.u(points), dtype=float)
    flags = 1.0 - np.hypot(points[:, 0], points[:, 1]) < np.sin(np.pi / solution.mesh.n)
    return FieldReport(points, u_bem, u_exact, flags)
