"""Quadrature on the reference interval [-1, 1] and closed-form singular moments.

Regular element integrals use Gauss-Legendre rules.  When the collocation
point is an endpoint of the element being integrated, the potential kernel
contributes integrals of the form

    int_0^L ln(s) ds          and   int_0^L s*ln(s) ds,

where s is arc length measured from the singular endpoint.  Both have
elementary antiderivatives, so those element integrals are evaluated exactly
instead of by quadrature:

    int_0^L ln(s) ds   = L*(ln L - 1)
    int_0^L s ln(s) ds = (L^2/2)*(ln L - 1/2)

Weighting by the linear shape functions (which are 1 - s/L toward the singular
endpoint and s/L toward the far one) and by the kernel factor -1/(2*pi) yields
the pair returned by ``singular_g_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ORDER",
    "QuadratureRule",
    "gauss_legendre",
    "basis_start",
    "basis_end",
    "singular_log_moments",
    "singular_g_pair",
]

MAX_ORDER = 64

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1], non-empty 1-D arrays whose common length is ``order``."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if points.ndim != 1 or points.size == 0 or weights.shape != points.shape:
            shapes = f"{points.shape} and {weights.shape}"
            raise ValueError(f"points and weights must be non-empty 1-D of one length, got {shapes}")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        """Number of nodes."""
        return len(self.points)


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` points, exact through degree 2*order - 1.

    Nodes and weights come from the deterministic Golub-Welsch style solver in
    numpy.polynomial; they lie strictly inside (-1, 1), so element quadrature
    never touches element endpoints.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in 1..{MAX_ORDER}, got {order}")
    points, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(points, weights)


def basis_start(t):
    """Linear shape function that is 1 at t = -1 (the element's first node)."""
    return 0.5 * (1.0 - np.asarray(t, dtype=float))


def basis_end(t):
    """Linear shape function that is 1 at t = +1 (the element's second node)."""
    return 0.5 * (1.0 + np.asarray(t, dtype=float))


def singular_log_moments(length: float) -> tuple[float, float]:
    """Exact (int_0^L ln s ds, int_0^L s ln s ds) for L = ``length`` > 0."""
    if length <= 0.0:
        raise ValueError(f"element length must be positive, got {length}")
    log_l = math.log(length)
    moment0 = length * (log_l - 1.0)
    moment1 = 0.5 * length * length * (log_l - 0.5)
    return moment0, moment1


def singular_g_pair(length: float) -> tuple[float, float]:
    """Exact potential-kernel element integrals when the source is an endpoint.

    Returns ``(g_near, g_far)``: the integral of -ln(s)/(2*pi) weighted by the
    shape function peaking at the singular endpoint, and by the opposite one.
    Their sum is the unweighted element integral (L/(2*pi))*(1 - ln L).
    """
    moment0, moment1 = singular_log_moments(length)
    g_near = -(moment0 - moment1 / length) / _TWO_PI
    g_far = -(moment1 / length) / _TWO_PI
    return g_near, g_far
