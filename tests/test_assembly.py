"""Influence-matrix assembly: free term, element integrals, singular handling."""

import tracemalloc

import numpy as np
import pytest

from diskbem import (
    BemSystem,
    BoundaryMesh,
    assemble,
    discretize_circle,
    gauss_legendre,
    get_problem,
    singular_g_pair,
)
from tests.oracles import brute_element_contributions, gauss_rule_rows


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
# row 0 against the same rule
# ----------------------------------------------------------------------

ORDERS = [1, 2, 8, 64]


@pytest.mark.parametrize("order", ORDERS)
def test_rows_are_bitwise_mirror_symmetric(order):
    # node 0 sees element n-1-j as element j mirrored, so entries j and n-j
    # sum the same two values
    rule = gauss_legendre(order)
    for n in range(3, 65):
        system = assemble(discretize_circle(n), get_problem(1), rule)
        for row in (system.h_row, system.g_row):
            assert np.array_equal(row[1:], row[:0:-1]), f"row 0 is not mirror-symmetric at n = {n}"


@pytest.mark.parametrize("order", ORDERS)
def test_rows_match_the_same_rule_at_absolute_gauss_points(order):
    # the closed-form offsets against the kernels at midpoint + t * half-chord:
    # measured at most 3.2e-13 of the row's largest entry, at n = 480
    rule = gauss_legendre(order)
    for n in [*range(3, 65), 120, 480]:
        mesh = discretize_circle(n)
        system = assemble(mesh, get_problem(1), rule)
        for row, expected in zip((system.h_row, system.g_row), gauss_rule_rows(mesh.nodes, rule)):
            bound = 5e-13 * np.max(np.abs(expected))
            assert np.max(np.abs(row - expected)) <= bound, f"n = {n}"


# ----------------------------------------------------------------------
# element integrals against closed forms and composite quadrature
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


def test_g_contributions_sign_follows_distance(system30):
    # -ln(r) is positive inside unit separation and negative beyond it: the
    # elements around node 2 lie within 0.62 of node 0, those around node 15
    # beyond 1.9
    assert system30.g_row[2] > 0.0
    assert system30.g_row[15] < 0.0


def _brute_row(mesh, k):
    """Row k of H and G from composite-quadrature element integrals, singular elements in closed form."""
    n = mesh.n
    h_row = np.zeros(n)
    g_row = np.zeros(n)
    for i in range(n):
        if i == k or i == (k - 1) % n:
            h_pair = (0.0, 0.0)
            g_near, g_far = singular_g_pair(2.0 * mesh.jacobians[i])
            g_pair = (g_near, g_far) if i == k else (g_far, g_near)
        else:
            brute = brute_element_contributions(mesh.nodes, i, mesh.nodes[k])
            h_pair = brute[:2]
            g_pair = brute[2:]
        h_row[i] += h_pair[0]
        h_row[(i + 1) % n] += h_pair[1]
        g_row[i] += g_pair[0]
        g_row[(i + 1) % n] += g_pair[1]
    return h_row, g_row


@pytest.mark.parametrize("source_node", [2, 5])
def test_regular_element_integrals_match_composite_quadrature(rule8, source_node):
    # odd n: element 4 lies across from node 0 and is its own mirror image
    mesh = discretize_circle(9)
    system = assemble(mesh, get_problem(1), rule8)
    h_row, g_row = _brute_row(mesh, source_node)
    assert np.allclose(system.H[source_node], h_row, rtol=0.0, atol=1e-9)
    assert np.allclose(system.G[source_node], g_row, rtol=0.0, atol=1e-9)


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


def test_system_refuses_mis_sized_nodal_data(system30, mesh30):
    with pytest.raises(ValueError, match="u_nodes"):
        BemSystem(mesh30, system30.h_row, system30.g_row, np.zeros(31))
    with pytest.raises(ValueError):
        system30.u_nodes[0] = 1.0


def test_assemble_integrates_a_single_row(problem1, rule8):
    # a few (K, n) arrays at most, never an n-by-n matrix: measured 3.9*K*n
    # floats at n = 2000
    mesh = discretize_circle(2000)
    tracemalloc.start()
    try:
        assemble(mesh, problem1, rule8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * rule8.order * mesh.n * 8


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
    # row k is row 0 of the node list that starts at node k
    mesh = discretize_circle(12)
    system = assemble(mesh, get_problem(2), rule8)
    for k in (0, 5):
        h_row, g_row = gauss_rule_rows(np.roll(mesh.nodes, -k, axis=0), rule8)
        assert np.allclose(np.roll(h_row, k), system.H[k], rtol=0.0, atol=1e-14)
        assert np.allclose(np.roll(g_row, k), system.G[k], rtol=0.0, atol=1e-14)


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
    H, G = np.array([_brute_row(mesh, k) for k in range(mesh.n)]).transpose(1, 0, 2)
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
