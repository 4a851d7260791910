"""The uniform n-gon mesh, its element frames, and interior grids."""

import tracemalloc

import numpy as np
import pytest

from diskbem import BoundaryMesh, discretize_circle, interior_grid

SQRT_HALF = np.sqrt(0.5)


# ----------------------------------------------------------------------
# discretize_circle
# ----------------------------------------------------------------------


def test_four_node_circle_hits_the_axes():
    mesh = discretize_circle(4)
    expected = [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    assert np.allclose(mesh.nodes, expected, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 7, 30, 120])
def test_last_node_sits_at_angle_zero(n):
    mesh = discretize_circle(n)
    assert np.allclose(mesh.nodes[-1], (1.0, 0.0), atol=1e-14)


@pytest.mark.parametrize("n", [3, 5, 30, 120])
def test_circle_nodes_on_unit_circle_and_counterclockwise(n):
    mesh = discretize_circle(n)
    radii = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-12
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    signed_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert signed_area > 0.0


@pytest.mark.parametrize("n", [-5, 0, 1, 2])
def test_circle_rejects_degenerate_node_counts(n):
    with pytest.raises(ValueError):
        discretize_circle(n)


# ----------------------------------------------------------------------
# BoundaryMesh
# ----------------------------------------------------------------------


def test_mesh_rejects_too_few_nodes():
    with pytest.raises(ValueError, match="at least 3"):
        BoundaryMesh(2)


def test_mesh_is_the_circle_discretization():
    mesh = BoundaryMesh(7)
    assert mesh.n == 7
    assert mesh == discretize_circle(7)
    assert np.array_equal(mesh.nodes, discretize_circle(7).nodes)
    assert np.array_equal(mesh.angles, 2.0 * np.pi * np.arange(1, 8) / 7)
    assert np.array_equal(mesh.nodes, np.column_stack([np.cos(mesh.angles), np.sin(mesh.angles)]))


def test_mesh_nodes_are_frozen():
    mesh = discretize_circle(5)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 2.0
    with pytest.raises(ValueError):
        mesh.angles[0] = 0.0


def test_mesh_stores_nothing_per_element():
    # angles and nodes are 3 floats per node; per-element arrays would add 7
    n = 100_000
    tracemalloc.start()
    try:
        BoundaryMesh(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n


# ----------------------------------------------------------------------
# every element is element 0 rotated
# ----------------------------------------------------------------------


def _chords(mesh):
    """Each chord's start node, end node and unit tangent, from the stored nodes."""
    start = mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1]
    end = np.roll(start, -1)
    return start, end, (end - start) / np.abs(end - start)


def test_jacobian_is_half_chord_length():
    # half the distance between consecutive nodes is sin(pi/n) on every chord;
    # measured to 7e-15 relative at n = 30, the rounding of the node angles
    for n, half_length in ((30, np.sin(np.pi / 30)), (4, SQRT_HALF), (6, 0.5)):
        start, end, _ = _chords(discretize_circle(n))
        assert np.allclose(0.5 * np.abs(end - start), half_length, rtol=2e-14, atol=0.0)


@pytest.mark.parametrize("n", [5, 12, 30])
def test_normals_are_unit_outward_and_perpendicular(n):
    # the outward unit normal -i tau of each chord points at its midpoint,
    # which lies cos(pi/n) from the centre
    start, end, tangent = _chords(discretize_circle(n))
    midpoint = 0.5 * (start + end)
    bound = 1e-15 / np.sin(np.pi / n)  # a node difference's rounding, over the chord
    assert np.allclose(midpoint, np.cos(np.pi / n) * -1j * tangent, rtol=0.0, atol=bound)


def test_element_frames_span_each_chord():
    # in each chord's frame w = zeta conj(tau), its start node lies at
    # -sin(pi/n) - i cos(pi/n) and its end 2 sin(pi/n) further along
    for n in (3, 7, 30, 480):
        start, end, tangent = _chords(discretize_circle(n))
        w0 = complex(-np.sin(np.pi / n), -np.cos(np.pi / n))
        bound = 1e-15 / np.sin(np.pi / n)  # a node difference's rounding, over the chord
        assert np.allclose(start * np.conj(tangent), w0, rtol=0.0, atol=bound)
        assert np.allclose(end * np.conj(tangent), w0 + 2.0 * np.sin(np.pi / n), rtol=0.0, atol=bound)


@pytest.mark.parametrize("n", [3, 10, 50])
def test_total_chord_length(n):
    start, end, _ = _chords(discretize_circle(n))
    assert np.sum(np.abs(end - start)) == pytest.approx(2 * n * np.sin(np.pi / n), rel=1e-13)


# ----------------------------------------------------------------------
# interior_grid
# ----------------------------------------------------------------------


def test_grid_point_counts():
    assert len(interior_grid(11)) == 69
    assert len(interior_grid(3)) == 1
    assert len(interior_grid(2)) == 0


def test_three_point_lattice_keeps_only_the_origin():
    assert np.array_equal(interior_grid(3).points, [[0.0, 0.0]])


def test_grid_rejects_size_below_two():
    for m in (1, 0, -3):
        with pytest.raises(ValueError):
            interior_grid(m)


def test_grid_row_major_order_y_slowest():
    points = interior_grid(11).points
    assert np.allclose(points[0], (-0.4, -0.8), atol=1e-14)
    assert np.allclose(points[4], (0.4, -0.8), atol=1e-14)
    assert np.allclose(points[5], (-0.6, -0.6), atol=1e-14)
    y = points[:, 1]
    assert np.all(np.diff(y) >= 0.0)
    for row_y in np.unique(y):
        x = points[y == row_y, 0]
        assert np.all(np.diff(x) > 0.0)


def test_grid_is_strictly_interior():
    for m in (2, 3, 7, 11, 20):
        points = interior_grid(m).points
        assert np.all(points[:, 0] ** 2 + points[:, 1] ** 2 < 1.0)


@pytest.mark.parametrize("m", [3, 7, 11, 16])
def test_grid_symmetries(m):
    points = interior_grid(m).points

    def canon(arr):
        return set(map(tuple, np.round(arr, 12)))

    assert canon(points) == canon(-points)
    assert canon(points) == canon(points[:, ::-1])


def test_grid_points_pairwise_distinct():
    points = interior_grid(11).points
    assert len(np.unique(points, axis=0)) == len(points)
