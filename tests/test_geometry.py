"""The uniform n-gon mesh, its element frames, and interior grids."""

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
    for frame in (mesh.angles, mesh.midpoints, mesh.halves, mesh.jacobians, mesh.normals):
        with pytest.raises(ValueError):
            frame[0] = 0.0


# ----------------------------------------------------------------------
# element frames
# ----------------------------------------------------------------------


def test_jacobian_is_half_chord_length():
    assert discretize_circle(30).jacobians[0] == pytest.approx(np.sin(np.pi / 30), rel=1e-15)
    assert discretize_circle(4).jacobians[2] == pytest.approx(SQRT_HALF, rel=1e-15)
    assert np.allclose(discretize_circle(6).jacobians, 0.5, rtol=1e-15)


def test_normals_on_the_square():
    mesh = discretize_circle(4)
    # element 3 runs from (1, 0) to (0, 1), element 0 from (0, 1) to (-1, 0)
    assert np.allclose(mesh.normals[3], (SQRT_HALF, SQRT_HALF), atol=1e-15)
    assert np.allclose(mesh.normals[0], (-SQRT_HALF, SQRT_HALF), atol=1e-15)


@pytest.mark.parametrize("n", [5, 12, 30])
def test_normals_are_unit_outward_and_perpendicular(n):
    mesh = discretize_circle(n)
    for i in range(n):
        normal = mesh.normals[i]
        chord = mesh.nodes[(i + 1) % n] - mesh.nodes[i]
        assert np.hypot(*normal) == pytest.approx(1.0, abs=1e-14)
        assert abs(normal @ chord) <= 1e-14 * np.hypot(*chord)
        assert normal @ mesh.midpoints[i] > 0.0  # outward on a circle centered at 0


def test_element_point_endpoints_exact():
    # element i runs from node i to node i+1: its frames are exactly the
    # half-sum and half-difference of those two stored nodes (halving is exact)
    mesh = discretize_circle(7)
    for i in range(7):
        first, second = mesh.nodes[i], mesh.nodes[(i + 1) % 7]
        assert np.array_equal(2.0 * mesh.midpoints[i], first + second)
        assert np.array_equal(2.0 * mesh.halves[i], second - first)


def test_adjacent_elements_share_their_node_exactly():
    # the end node of element i and the start node of element i+1 are the same
    # stored node, bit for bit, in both elements' frames
    mesh = discretize_circle(9)
    for i in range(9):
        shared = mesh.nodes[(i + 1) % 9]
        before, after = mesh.nodes[i], mesh.nodes[(i + 2) % 9]
        assert np.array_equal(2.0 * mesh.midpoints[i], before + shared)
        assert np.array_equal(2.0 * mesh.halves[i], shared - before)
        assert np.array_equal(2.0 * mesh.midpoints[(i + 1) % 9], shared + after)
        assert np.array_equal(2.0 * mesh.halves[(i + 1) % 9], after - shared)


def test_element_frames_span_each_chord():
    # midpoint -/+ half-chord gives the element's first/second node, and so
    # the node shared with the next element, to within one rounding
    mesh = discretize_circle(7)
    successors = np.roll(mesh.nodes, -1, axis=0)
    assert np.allclose(mesh.midpoints - mesh.halves, mesh.nodes, rtol=0.0, atol=2e-16)
    assert np.allclose(mesh.midpoints + mesh.halves, successors, rtol=0.0, atol=2e-16)


def test_element_point_midpoint_and_array_argument():
    mesh = discretize_circle(6)
    assert np.allclose(mesh.midpoints[2], 0.5 * (mesh.nodes[2] + mesh.nodes[3]), rtol=1e-15)
    t = np.array([-1.0, 0.0, 1.0])
    batch = mesh.midpoints[2] + t[:, np.newaxis] * mesh.halves[2]
    assert batch.shape == (3, 2)
    assert np.allclose(batch[0], mesh.nodes[2], rtol=0.0, atol=2e-16)
    assert np.array_equal(batch[1], mesh.midpoints[2])


@pytest.mark.parametrize("n", [3, 10, 50])
def test_total_chord_length(n):
    mesh = discretize_circle(n)
    total = np.sum(2.0 * mesh.jacobians)
    assert total == pytest.approx(2 * n * np.sin(np.pi / n), rel=1e-13)


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
