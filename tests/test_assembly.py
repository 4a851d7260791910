"""Influence-matrix assembly: free term, element integrals, singular handling."""

import numpy as np
import pytest

import diskbem.assembly
from diskbem import (
    BemSystem,
    BoundaryMesh,
    assemble,
    discretize_circle,
    fundamental_solution,
    gauss_legendre,
    get_problem,
    normal_flux,
    singular_g_pair,
)
from diskbem.assembly import _chord_distances, _chord_frames, _regular_rows
from diskbem.kernels import _FLUX_SCALE, _POTENTIAL_SCALE
from tests.oracles import brute_element_contributions

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# free term
# ----------------------------------------------------------------------


def _free_term(n):
    zeros = np.zeros(n)
    return BemSystem(BoundaryMesh(n), zeros, zeros, zeros).c


def test_free_term_values():
    assert _free_term(7) == pytest.approx(5.0 / 14.0, rel=1e-15)
    assert _free_term(4) == 0.25
    assert _free_term(3) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert _free_term(30) == pytest.approx(28.0 / 60.0, rel=1e-15)


def test_free_term_approaches_one_half():
    assert abs(_free_term(10**6) - 0.5) < 1e-6


# ----------------------------------------------------------------------
# kernels at the Gauss points
# ----------------------------------------------------------------------


@pytest.mark.parametrize("source", [(0.0, 0.0), (0.3, -0.45), (0.9, 0.2), (10.0, 0.0)])
def test_unscaled_gauss_kernels_times_the_constants_are_the_kernels(source, rule8):
    # depth/r^2 and ln(r^2) in the chord frames against the kernels at the
    # absolute Gauss points, a different rounding path: measured at most
    # 1.13e-15 relative in the flux and 2.22e-16 absolute in the potential,
    # which is near 0 where r is near 1; each bound is about twice that
    mesh = discretize_circle(30)
    depth, r2 = _chord_distances(_chord_frames(mesh, rule8), *source)
    assert depth.shape == (mesh.n,) and r2.shape == (rule8.order, mesh.n)
    points = mesh.midpoints + rule8.points[:, np.newaxis, np.newaxis] * mesh.halves
    normals = np.broadcast_to(mesh.normals, points.shape)
    expected_flux = normal_flux(points, source, normals)
    expected_potential = fundamental_solution(points, source)
    np.testing.assert_allclose(_FLUX_SCALE * depth / r2, expected_flux, rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(_POTENTIAL_SCALE * np.log(r2), expected_potential, rtol=0.0, atol=4.5e-16)


# ----------------------------------------------------------------------
# per-element flux integrals
# ----------------------------------------------------------------------


def test_h_contributions_decay_with_distance(rule8):
    mesh = discretize_circle(30)
    length = 2.0 * mesh.jacobians[0]
    h_start, h_end, _, _ = _regular_rows(mesh, np.array([10.0, 0.0]), rule8)
    # |flux kernel| <= 1/(2*pi*r) with r >= 9 everywhere on the element
    bound = length / (TWO_PI * 9.0)
    assert abs(h_start[0]) + abs(h_end[0]) <= bound


def test_h_contributions_vanish_for_collinear_outside_source(rule8):
    # source on the chord's line but outside the element: the separation is
    # parallel to the chord, so the normal projection vanishes (to rounding,
    # since the square's nodes are cos/sin values that are not exact)
    mesh = discretize_circle(4)
    first, second = mesh.nodes[3], mesh.nodes[0]
    source = second + (second - first)
    h_start, h_end, _, _ = _regular_rows(mesh, source, rule8)
    assert abs(h_start[3]) <= 1e-15
    assert abs(h_end[3]) <= 1e-15


def test_total_flux_seen_from_an_interior_point(rule8):
    # summed over a closed boundary, the flux kernel integrates to -1 for any
    # source strictly inside
    mesh = discretize_circle(30)
    h_start, h_end, _, _ = _regular_rows(mesh, np.array([0.3, 0.2]), rule8)
    assert np.sum(h_start + h_end) == pytest.approx(-1.0, abs=1e-3)


# ----------------------------------------------------------------------
# per-element potential integrals
# ----------------------------------------------------------------------


def test_g_contributions_singular_closed_form(rule8):
    # hexagon chords have length 2*sin(pi/6) = 1, where the closed form gives
    # (3/(8*pi), 1/(8*pi)); assembly puts the near value of both elements
    # adjacent to a node on the diagonal
    mesh = discretize_circle(6)
    near = 3.0 / (8.0 * np.pi)
    far = 1.0 / (8.0 * np.pi)

    g_near, g_far = singular_g_pair(2.0 * mesh.jacobians[2])
    assert g_near == pytest.approx(near, rel=1e-12)
    assert g_far == pytest.approx(far, rel=1e-12)

    system = assemble(mesh, get_problem(1), rule8)
    assert np.allclose(np.diag(system.G), 2.0 * near, rtol=1e-12)


def test_g_contributions_sign_follows_distance(rule8):
    # -ln(r) is positive inside unit separation and negative beyond it
    mesh = discretize_circle(30)
    _, _, g_near_start, g_near_end = _regular_rows(mesh, np.array([0.0, 0.0]), rule8)
    assert g_near_start[15] > 0.0 and g_near_end[15] > 0.0
    _, _, g_far_start, g_far_end = _regular_rows(mesh, np.array([10.0, 0.0]), rule8)
    assert g_far_start[15] < 0.0 and g_far_end[15] < 0.0


@pytest.mark.parametrize("source_node", [2, 5])
def test_regular_element_integrals_match_composite_quadrature(rule8, source_node):
    mesh = discretize_circle(8)
    source = mesh.nodes[source_node]
    rows = np.array(_regular_rows(mesh, source, rule8))
    for i in range(8):
        if i in (source_node, (source_node - 1) % 8):
            continue  # singular rows use the closed form, checked elsewhere
        brute = brute_element_contributions(mesh.nodes, i, source)
        assert np.allclose(rows[:, i], brute, atol=1e-9)


def test_interior_source_element_integrals_match_composite_quadrature(rule8):
    mesh = discretize_circle(8)
    source = np.array([0.25, -0.1])
    rows = np.array(_regular_rows(mesh, source, rule8))
    for i in range(8):
        brute = brute_element_contributions(mesh.nodes, i, source)
        assert np.allclose(rows[:, i], brute, atol=1e-9)


# ----------------------------------------------------------------------
# assembled system
# ----------------------------------------------------------------------


def test_assemble_shapes_and_metadata(system30, mesh30):
    assert system30.mesh.n == 30
    assert system30.H.shape == (30, 30)
    assert system30.G.shape == (30, 30)
    assert system30.c == pytest.approx(28.0 / 60.0, rel=1e-15)
    assert system30.mesh is mesh30
    assert np.allclose(
        system30.u_nodes, get_problem(1).u(mesh30.nodes), rtol=1e-15
    )


def test_system_stores_only_read_only_first_rows(system30, mesh30):
    assert system30.h_row.shape == system30.g_row.shape == (30,)
    for array in (system30.h_row, system30.g_row, system30.H, system30.G):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError, match="shape"):
        BemSystem(mesh30, system30.H, system30.G, system30.u_nodes)


def test_assemble_integrates_a_single_row(monkeypatch, mesh30, problem1, rule8):
    sources = []

    def counting(mesh, source, rule):
        sources.append(source)
        return _regular_rows(mesh, source, rule)

    monkeypatch.setattr(diskbem.assembly, "_regular_rows", counting)
    assemble(mesh30, problem1, rule8)
    assert len(sources) == 1
    assert np.array_equal(sources[0], mesh30.nodes[0])


def test_assemble_is_deterministic(mesh30, problem1, rule8):
    a = assemble(mesh30, problem1, rule8)
    b = assemble(mesh30, problem1, rule8)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.G, b.G)
    assert np.array_equal(a.u_nodes, b.u_nodes)


def test_flux_diagonal_is_exactly_zero(system30):
    assert np.all(np.diag(system30.H) == 0.0)


def test_potential_diagonal_is_twice_the_near_value(system30, mesh30):
    length = 2.0 * mesh30.jacobians[0]
    g_near, _ = singular_g_pair(length)
    assert np.allclose(np.diag(system30.G), 2.0 * g_near, rtol=1e-14)


def test_matrices_are_circulant(system30):
    # every collocation row sees the same geometry, rotated
    for name, matrix, row in (
        ("H", system30.H, system30.h_row),
        ("G", system30.G, system30.g_row),
    ):
        for k in range(system30.mesh.n):
            assert np.array_equal(
                matrix[k], np.roll(row, k)
            ), f"{name} row {k} breaks the circulant structure"


def test_assemble_rows_match_per_element_calls(rule8):
    mesh = discretize_circle(12)
    system = assemble(mesh, get_problem(2), rule8)
    n = mesh.n
    for k in (0, 5):
        h_start, h_end, g_start, g_end = _regular_rows(mesh, mesh.nodes[k], rule8)
        h_row = np.zeros(n)
        g_row = np.zeros(n)
        for i in range(n):
            if i == k or i == (k - 1) % n:
                h_pair = (0.0, 0.0)
                g_near, g_far = singular_g_pair(2.0 * mesh.jacobians[i])
                g_pair = (g_near, g_far) if i == k else (g_far, g_near)
            else:
                h_pair = (h_start[i], h_end[i])
                g_pair = (g_start[i], g_end[i])
            h_row[i] += h_pair[0]
            h_row[(i + 1) % n] += h_pair[1]
            g_row[i] += g_pair[0]
            g_row[(i + 1) % n] += g_pair[1]
        assert np.allclose(h_row, system.H[k], atol=1e-14)
        assert np.allclose(g_row, system.G[k], atol=1e-14)


def test_row_identity_against_the_free_term(system30):
    # constant potential data must be reproduced: c + sum_j H[k, j] ~ 0
    residual = np.abs(system30.c + np.sum(system30.H, axis=1))
    assert np.max(residual) <= 5e-3


def test_row_identity_tightens_under_refinement(row_identity_errors):
    for n, worst in row_identity_errors.items():
        assert worst <= 5e-3 * (30.0 / n), f"row identity too loose at n = {n}"


def test_full_system_against_composite_quadrature(rule8):
    mesh = discretize_circle(8)
    system = assemble(mesh, get_problem(1), rule8)
    n = mesh.n
    H = np.zeros((n, n))
    G = np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            adjacent = i == k or i == (k - 1) % n
            if adjacent:
                h_pair = (0.0, 0.0)
                length = 2.0 * mesh.jacobians[i]
                g_near, g_far = singular_g_pair(length)
                g_pair = (g_near, g_far) if i == k else (g_far, g_near)
            else:
                brute = brute_element_contributions(mesh.nodes, i, mesh.nodes[k])
                h_pair = brute[:2]
                g_pair = brute[2:]
            H[k, i] += h_pair[0]
            H[k, (i + 1) % n] += h_pair[1]
            G[k, i] += g_pair[0]
            G[k, (i + 1) % n] += g_pair[1]
    assert np.max(np.abs(system.H - H)) <= 1e-9
    assert np.max(np.abs(system.G - G)) <= 1e-9


def test_assemble_rejects_non_circle_meshes():
    # a mesh is defined by its node count alone, so neither a general polygon
    # nor unevenly spaced circle nodes can reach assembly
    with pytest.raises(TypeError):
        BoundaryMesh(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
    angles = np.array([0.3, 1.8, 3.1, 4.0, 5.5])
    with pytest.raises(TypeError):
        BoundaryMesh(np.column_stack([np.cos(angles), np.sin(angles)]))


def test_assemble_at_other_quadrature_orders(mesh30, problem1):
    # the singular entries never touch the rule, so diagonals agree exactly
    low = assemble(mesh30, problem1, gauss_legendre(2))
    high = assemble(mesh30, problem1, gauss_legendre(16))
    assert np.array_equal(np.diag(low.G), np.diag(high.G))
    assert np.all(np.diag(low.H) == 0.0)
    # regular entries converge toward each other as the order grows
    mid = assemble(mesh30, problem1, gauss_legendre(8))
    assert np.max(np.abs(mid.G - high.G)) <= 1e-10
    assert np.max(np.abs(mid.H - high.H)) <= 1e-10
