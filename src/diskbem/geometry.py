"""The uniform boundary polygon of the unit circle and interior evaluation grids.

The boundary is the regular n-gon inscribed in the unit circle.  Node i sits
at angle 2*pi*(i+1)/n, so the last node is always (1, 0) and the traversal is
counterclockwise.  Element i is the chord from node i to node (i+1) % n,
parameterized by t in [-1, 1] as midpoint + t * half-chord.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BoundaryMesh", "InteriorGrid", "discretize_circle", "interior_grid"]


@dataclass(frozen=True)
class BoundaryMesh:
    """The regular n-gon inscribed in the unit circle, defined by n >= 3 alone.

    Every array is built once on construction and frozen:

    angles : (n,) node angles 2*pi*(i+1)/n.
    nodes : (n, 2) node coordinates (cos, sin) of those angles.
    midpoints, halves : (n, 2) element midpoints and half-chords; element i
        is midpoints[i] + t * halves[i] for t in [-1, 1].
    jacobians : (n,) arc-length scale of that map, half the chord length.
    normals : (n, 2) unit normals pointing out of the polygon.

    Because the mesh can only be this polygon, every vertex has the same
    interior angle and assembly may use the free term (n-2)/(2n).
    """

    n: int
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    midpoints: np.ndarray = field(init=False, repr=False, compare=False)
    halves: np.ndarray = field(init=False, repr=False, compare=False)
    jacobians: np.ndarray = field(init=False, repr=False, compare=False)
    normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = operator.index(self.n)
        if n < 3:
            raise ValueError(f"the boundary polygon needs at least 3 nodes, got {n}")
        angles = 2.0 * np.pi * np.arange(1, n + 1) / n
        nodes = np.column_stack([np.cos(angles), np.sin(angles)])
        nxt = np.roll(nodes, -1, axis=0)
        halves = 0.5 * (nxt - nodes)
        jacobians = np.hypot(halves[:, 0], halves[:, 1])
        normals = np.column_stack([halves[:, 1], -halves[:, 0]]) / jacobians[:, np.newaxis]
        object.__setattr__(self, "n", n)
        for name, value in (
            ("angles", angles),
            ("nodes", nodes),
            ("midpoints", 0.5 * (nodes + nxt)),
            ("halves", halves),
            ("jacobians", jacobians),
            ("normals", normals),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class InteriorGrid:
    """Interior evaluation points as the caller gives them; no position is checked here.

    points : (k, 2) float array.  ``interior_grid`` keeps only lattice points
    strictly inside the circle, in row-major order (y varies slowest), and
    evaluation refuses any point not strictly inside the boundary polygon.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float).reshape(-1, 2)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


def discretize_circle(n: int) -> BoundaryMesh:
    """Inscribe a regular n-gon in the unit circle: the same as ``BoundaryMesh(n)``."""
    return BoundaryMesh(n)


def interior_grid(m: int) -> InteriorGrid:
    """Keep the points of the m-by-m lattice on [-1, 1]^2 that lie inside the disk.

    Lattice points are (i*h - 1, j*h - 1) with h = 2/(m-1); the kept points
    stay in lattice order with j (the y index) varying slowest.  Points on the
    circle itself are excluded (strict interior).
    """
    if m < 2:
        raise ValueError(f"grid size must be at least 2, got {m}")
    coords = np.arange(m) * (2.0 / (m - 1)) - 1.0
    points = np.column_stack([np.tile(coords, m), np.repeat(coords, m)])
    inside = points[:, 0] ** 2 + points[:, 1] ** 2 < 1.0
    return InteriorGrid(points[inside])
