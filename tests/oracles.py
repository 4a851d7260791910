"""Independent brute-force quadrature oracles used by several test modules.

These deliberately avoid the library's own element-integration code paths:
they re-derive every geometric quantity from the raw node coordinates and use
numpy's Gauss rule directly, so agreement is meaningful evidence.  The one
exception, ``gauss_rule_rows``, applies the library's own rule and kernels at
absolute Gauss points, so that it differs from assembly by rounding alone.
"""

import numpy as np

from diskbem import fundamental_solution, normal_flux, singular_g_pair

TWO_PI = 2.0 * np.pi


def brute_log_moments(length: float, levels: int = 61, order: int = 32):
    """int_0^L ln(s) ds and int_0^L s ln(s) ds by geometric subdivision.

    The integrand is singular at s = 0, so [0, L] is split into the dyadic
    pieces [L*2^-(j+1), L*2^-j] for j = 0..levels-1, each smooth enough for
    Gauss quadrature.  The leftover [0, L*2^-levels] contributes below 1e-16.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    moment0 = moment1 = 0.0
    for j in range(levels):
        a, b = length * 2.0 ** (-j - 1), length * 2.0 ** (-j)
        s = 0.5 * (b - a) * t + 0.5 * (a + b)
        ws = 0.5 * (b - a) * w
        log_s = np.log(s)
        moment0 += float(ws @ log_s)
        moment1 += float(ws @ (s * log_s))
    return moment0, moment1


def brute_g_pair(length: float):
    """Basis-weighted potential-kernel integrals with the source at s = 0."""
    t, w = np.polynomial.legendre.leggauss(32)
    near = far = 0.0
    for j in range(61):
        a, b = length * 2.0 ** (-j - 1), length * 2.0 ** (-j)
        s = 0.5 * (b - a) * t + 0.5 * (a + b)
        ws = 0.5 * (b - a) * w
        kernel = -np.log(s) / TWO_PI
        near += float(ws @ (kernel * (1.0 - s / length)))
        far += float(ws @ (kernel * (s / length)))
    return near, far


def brute_element_contributions(nodes, i, source, panels=2**14, order=4):
    """Composite-Gauss element integrals (h_start, h_end, g_start, g_end).

    Uses ``panels`` uniform subdivisions of the reference interval with a
    small Gauss rule on each, enough to resolve the regular kernels to well
    below 1e-12.
    """
    n = len(nodes)
    first, second = nodes[i], nodes[(i + 1) % n]
    mid, half = 0.5 * (first + second), 0.5 * (second - first)
    length = 2.0 * np.hypot(*half)
    normal = np.array([second[1] - first[1], first[0] - second[0]]) / length
    t0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    a, b = edges[:-1], edges[1:]
    t = 0.5 * (b - a)[:, None] * t0[None, :] + 0.5 * (a + b)[:, None]
    w = 0.5 * (b - a)[:, None] * w0[None, :]
    field = mid[None, None, :] + t[..., None] * half[None, None, :]
    diff = field - np.asarray(source, dtype=float)
    r2 = np.sum(diff * diff, axis=-1)
    flux = -(diff @ normal) / (TWO_PI * r2)
    potential = -0.5 * np.log(r2) / TWO_PI
    start = 0.5 * (1.0 - t)
    end = 0.5 * (1.0 + t)
    jac = 0.5 * length
    return (
        jac * float(np.sum(w * flux * start)),
        jac * float(np.sum(w * flux * end)),
        jac * float(np.sum(w * potential * start)),
        jac * float(np.sum(w * potential * end)),
    )


def composite_element_rows(nodes, source, order=16, near_panels=256):
    """Composite-Gauss (h_start, h_end, g_start, g_end) of every element at one source, each (n,).

    An element whose midpoint lies within two element lengths of the source is
    split into ``near_panels`` uniform panels; any other element is at least
    six panel half-lengths away from each of its two panels, where a Gauss
    rule of this order is exact to rounding.
    """
    nodes = np.asarray(nodes, dtype=float)
    first, second = nodes, np.roll(nodes, -1, axis=0)
    mid, half = 0.5 * (first + second), 0.5 * (second - first)
    jac = np.hypot(half[:, 0], half[:, 1])
    normal = np.column_stack([half[:, 1], -half[:, 0]]) / jac[:, None]
    near = np.hypot(*(mid - source).T) < 4.0 * jac
    t0, w0 = np.polynomial.legendre.leggauss(order)
    rows = np.empty((4, len(nodes)))
    for chosen, panels in ((near, near_panels), (~near, 2)):
        edges = np.linspace(-1.0, 1.0, panels + 1)
        a, b = edges[:-1], edges[1:]
        t = (0.5 * (b - a)[:, None] * t0 + 0.5 * (a + b)[:, None]).ravel()
        w = (0.5 * (b - a)[:, None] * w0).ravel()
        field = mid[chosen, None, :] + t[None, :, None] * half[chosen, None, :]
        diff = field - np.asarray(source, dtype=float)
        r2 = np.sum(diff * diff, axis=-1)
        flux = -np.sum(diff * normal[chosen, None, :], axis=-1) / (TWO_PI * r2)
        potential = -0.5 * np.log(r2) / TWO_PI
        start, end = w * 0.5 * (1.0 - t), w * 0.5 * (1.0 + t)
        scale = jac[chosen]
        rows[:, chosen] = scale * [flux @ start, flux @ end, potential @ start, potential @ end]
    return rows


def gauss_rule_rows(nodes, rule):
    """Row 0 of H and G, node 0 the source, by ``rule`` at each chord's absolute Gauss points.

    The kernels are ``normal_flux`` and ``fundamental_solution`` at
    midpoint + t * half-chord; the two elements sharing node 0 take exact zeros
    for H and ``singular_g_pair`` for G.  Returns (h_row, g_row), each (n,).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    second = np.roll(nodes, -1, axis=0)
    mid, half = 0.5 * (nodes + second), 0.5 * (second - nodes)
    jac = np.hypot(half[:, 0], half[:, 1])
    normal = np.column_stack([half[:, 1], -half[:, 0]]) / jac[:, None]
    regular = slice(1, n - 1)
    points = mid[regular] + rule.points[:, None, None] * half[regular]
    flux = normal_flux(points, nodes[0], np.broadcast_to(normal[regular], points.shape))
    potential = fundamental_solution(points, nodes[0])
    start, end = rule.weights * 0.5 * (1.0 - rule.points), rule.weights * 0.5 * (1.0 + rule.points)
    rows = np.zeros((4, n))
    rows[:, regular] = jac[regular] * [start @ flux, end @ flux, start @ potential, end @ potential]
    rows[2:, 0] = singular_g_pair(2.0 * jac[0])
    rows[2:, -1] = singular_g_pair(2.0 * jac[-1])[::-1]
    # node j collects the start of element j and the end of element j-1
    return rows[0] + np.roll(rows[1], 1), rows[2] + np.roll(rows[3], 1)
