"""Free-space kernels of the two-dimensional Laplace operator.

The logarithmic potential

    w(p, s) = -ln|p - s| / (2*pi)

is harmonic in p away from the source s.  Its gradient with respect to the
field point,

    grad_p w = -(p - s) / (2*pi * |p - s|^2),

projected on a unit direction gives the flux kernel that weights boundary
potentials in the integral equation.  All three functions broadcast over
leading axes: points are arrays whose last axis has length 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularKernelError",
    "fundamental_solution",
    "fundamental_flux",
    "normal_flux",
]

_TWO_PI = 2.0 * np.pi


class SingularKernelError(ValueError):
    """Field and source points coincide, where the kernel is unbounded."""


def _potential(r2):
    """Logarithmic potential -ln(r)/(2*pi) from the squared separation, unchecked."""
    # -ln(r) = -ln(r^2)/2 avoids the intermediate square root
    return -0.25 * np.log(r2) / np.pi


def _flux(projection, r2):
    """Flux kernel -(diff . direction)/(2*pi*r^2) from the projected separation, unchecked.

    ``projection`` is diff . direction for a unit direction, or diff itself
    (with r2 given a trailing axis) for the full gradient.
    """
    return -projection / (_TWO_PI * r2)


def _separation(field, source) -> tuple[np.ndarray, np.ndarray]:
    diff = np.asarray(field, dtype=float) - np.asarray(source, dtype=float)
    r2 = np.sum(diff * diff, axis=-1)
    if np.any(r2 == 0.0):
        raise SingularKernelError("kernel evaluated at coincident field and source points")
    return diff, r2


def fundamental_solution(field, source):
    """Logarithmic potential -ln(r)/(2*pi) at separation r = |field - source|."""
    return _potential(_separation(field, source)[1])


def fundamental_flux(field, source) -> np.ndarray:
    """Gradient of the potential with respect to the field point."""
    diff, r2 = _separation(field, source)
    return _flux(diff, r2[..., np.newaxis])


def normal_flux(field, source, normal):
    """Directional derivative of the potential along a unit normal at the field point."""
    normal = np.asarray(normal, dtype=float)
    length = np.sqrt(np.sum(normal * normal, axis=-1))
    if np.any(np.abs(length - 1.0) > 1e-12):
        raise ValueError("normal must be a unit vector")
    diff, r2 = _separation(field, source)
    return _flux(np.sum(diff * normal, axis=-1), r2)
