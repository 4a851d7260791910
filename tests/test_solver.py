"""Flux solve, interior evaluation, and solution-level invariants."""

import functools
import re
import tracemalloc

import numpy as np
import pytest

import diskbem.solver
from diskbem import (
    BemSystem,
    BoundarySolution,
    FieldReport,
    InteriorGrid,
    SolveError,
    assemble,
    constant_problem,
    discretize_circle,
    evaluate_field,
    evaluate_interior,
    gauss_legendre,
    get_problem,
    interior_grid,
    solve_flux,
)
from diskbem.solver import REL_EXCLUSION_THRESHOLD, _block_values
from tests.oracles import composite_element_rows


# ----------------------------------------------------------------------
# solve_flux
# ----------------------------------------------------------------------


def test_flux_at_angle_zero_node(solution30):
    # the last node sits at (1, 0) where the exact flux of problem 1 is 2
    assert solution30.q_nodes[-1] == pytest.approx(2.0, abs=0.05)


def test_solution_carries_its_inputs(solution30, system30):
    assert solution30.mesh is system30.mesh
    assert np.array_equal(solution30.u_nodes, system30.u_nodes)
    assert solution30.q_nodes.shape == (30,)


def test_solve_satisfies_the_linear_system(solution30, system30):
    rhs = system30.c * system30.u_nodes + system30.H @ system30.u_nodes
    residual = np.max(np.abs(system30.G @ solution30.q_nodes - rhs))
    assert residual <= 1e-10 * np.max(np.abs(rhs))


def test_solved_fluxes_are_read_only(system30):
    # like every other array of the records: a caller writing into q would
    # change every later evaluation of the solution
    solution = solve_flux(system30)
    assert not solution.q_nodes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        solution.q_nodes[0] = 0.0


def test_singular_matrix_raises_with_pivot_diagnostic(mesh30):
    # an all-zero G, and a nonzero circulant G whose rows sum to zero, so its
    # constant mode has eigenvalue zero
    n = mesh30.n
    u = np.ones(n)
    zero_sum = np.zeros(n)
    zero_sum[:2] = (1.0, -1.0)
    for g_row in (np.zeros(n), zero_sum):
        degenerate = BemSystem(mesh30, np.zeros(n), g_row, u)
        with pytest.raises(SolveError, match="singular") as excinfo:
            solve_flux(degenerate)
        assert excinfo.value.smallest_pivot is not None
        assert excinfo.value.smallest_pivot < 1e-12


def test_non_finite_data_is_refused(system30):
    u = system30.u_nodes.copy()
    u[3] = np.nan
    with pytest.raises(SolveError, match="residual"):
        solve_flux(BemSystem(system30.mesh, system30.h_row, system30.g_row, u))
    g_row = system30.g_row.copy()
    g_row[3] = np.nan
    with pytest.raises(SolveError, match="singular"):
        solve_flux(BemSystem(system30.mesh, system30.h_row, g_row, system30.u_nodes))


@pytest.mark.parametrize("pid, n", [(1, 30), (2, 30), (3, 30), (4, 30), (5, 30), (1, 480)])
def test_fft_solve_matches_a_dense_solve(pid, n, rule8):
    # the dense bordered system [G 1; L^T 0]: G q + mu = (c + H) u with
    # Gauss's law sum_j q_j L = 0 in place of G's constant mode
    system = assemble(discretize_circle(n), get_problem(pid), rule8)
    u = system.u_nodes
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = system.G
    bordered[:n, n] = 1.0
    nodes = system.mesh.nodes
    bordered[n, :n] = np.hypot(*(np.roll(nodes, -1, axis=0) - nodes).T)
    rhs = np.append(system.c * u + system.H @ u, 0.0)
    dense = np.linalg.solve(bordered, rhs)[:n]
    q = solve_flux(system).q_nodes
    assert np.max(np.abs(q - dense)) <= 1e-10 * np.max(np.abs(q))


def test_flux_stays_accurate_where_g_constant_mode_vanishes(problem1, rule8):
    # G's constant-mode eigenvalue is about pi^2/(6 n^2), 1.8e-9 at n = 30000;
    # dividing by it put a 1.1e-5 relative error into the flux
    mesh = discretize_circle(30000)
    q = solve_flux(assemble(mesh, problem1, rule8)).q_nodes
    exact = problem1.q(mesh.nodes)
    assert np.max(np.abs(q - exact)) <= 1e-7 * np.max(np.abs(exact))


def test_constant_data_gives_zero_flux(mesh30, rule8):
    system = assemble(mesh30, constant_problem(), rule8)
    solution = solve_flux(system)
    assert np.max(np.abs(solution.q_nodes)) <= 1e-2


def test_flux_tracks_the_exact_trace(problem1, rule8):
    previous = None
    for n in (15, 30, 60):
        mesh = discretize_circle(n)
        solution = solve_flux(assemble(mesh, problem1, rule8))
        worst = np.max(np.abs(solution.q_nodes - problem1.q(mesh.nodes)))
        if previous is not None:
            assert worst < previous
        previous = worst
    assert previous < 5e-3  # n = 60


def test_solve_is_linear_in_the_data(mesh30, rule8):
    p1, p2 = get_problem(1), get_problem(2)
    s1 = assemble(mesh30, p1, rule8)
    s2 = assemble(mesh30, p2, rule8)
    q1 = solve_flux(s1).q_nodes
    q2 = solve_flux(s2).q_nodes
    combined = BemSystem(mesh30, s1.h_row, s1.g_row, 2.0 * s1.u_nodes - 3.0 * s2.u_nodes)
    q = solve_flux(combined).q_nodes
    assert np.allclose(q, 2.0 * q1 - 3.0 * q2, atol=1e-12 * np.max(np.abs(q)))


# ----------------------------------------------------------------------
# interior evaluation
# ----------------------------------------------------------------------


def test_interior_value_at_the_origin(solution30, rule8):
    # u1(0, 0) = 1 and the origin is maximally far from all singularities
    value = evaluate_interior(solution30, (0.0, 0.0), rule8)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_interior_value_off_center(solution30, rule8, problem1):
    point = (-0.4, -0.4)
    value = evaluate_interior(solution30, point, rule8)
    assert value == pytest.approx(float(problem1.u(point)), abs=1e-6)


def test_interior_value_near_the_boundary_band(solution30, rule8):
    value = evaluate_interior(solution30, (0.0, -0.8), rule8)
    assert 0.356 <= value <= 0.366  # exact value is 0.36


@pytest.mark.parametrize(
    "point",
    [
        (1.0, 0.0), (0.0, -1.0), (0.8, 0.7), (2.0, 0.0), (np.nan, 0.0), (0.0, np.nan),
        (0.6, 0.8), (np.inf, 0.0), (1e300, 0.0),
    ],
)
def test_interior_evaluation_rejects_outside_points(solution30, rule8, point):
    # 0.6^2 + 0.8^2 rounds to 1.0, so (0.6, 0.8) is on the circle for
    # interior_grid's test too; inf and 1e300 are refused without an overflow
    # or invalid-value warning
    with pytest.raises(ValueError, match="not strictly inside the unit circle"):
        evaluate_interior(solution30, point, rule8)


def test_lattice_points_are_evaluated_exactly_when_interior_grid_keeps_them(solution30, rule8):
    # one predicate: every point the 41-point lattice drops is refused, and
    # every point it keeps is evaluated
    coords = np.arange(41) * (2.0 / 40) - 1.0
    lattice = np.column_stack([np.tile(coords, 41), np.repeat(coords, 41)])
    kept = {tuple(point) for point in interior_grid(41).points.tolist()}
    dropped = [point for point in lattice.tolist() if tuple(point) not in kept]
    assert len(kept) + len(dropped) == len(lattice)
    for point in dropped:
        with pytest.raises(ValueError, match="not strictly inside the unit circle"):
            evaluate_interior(solution30, point, rule8)
    evaluate_field(solution30, interior_grid(41), get_problem(1), rule8)


def test_a_mesh_node_is_refused(solution30, rule8):
    # node 1 has a computed x^2 + y^2 < 1, so only the node check refuses it;
    # ln r^2 would be -inf there
    node = solution30.mesh.nodes[1]
    assert node[0] ** 2 + node[1] ** 2 < 1.0
    with pytest.raises(ValueError, match="is a node of the boundary mesh"):
        evaluate_interior(solution30, node, rule8)


def test_a_mesh_node_among_other_points_is_refused_by_its_coordinates(solution30, problem1, rule8):
    # the node's row is recovered from the flat buffer it is found in
    node = solution30.mesh.nodes[1]
    grid = InteriorGrid([(0.0, 0.0), (0.5, 0.1), node, (-0.3, 0.2)])
    with pytest.raises(ValueError, match=re.escape(f"point {node.tolist()} is a node")):
        evaluate_field(solution30, grid, problem1, rule8)


def test_points_between_polygon_and_circle_get_finite_flagged_values(problem1, rule8):
    # on the ray through the midpoint of element n-1, r = 0.9999 lies beyond
    # the chord of the 120-gon (apothem 0.99966) but inside the unit circle
    solution = solve_flux(assemble(discretize_circle(120), problem1, rule8))
    angle = np.pi / 120
    point = (0.9999 * np.cos(angle), 0.9999 * np.sin(angle))
    value = evaluate_interior(solution, point, rule8)
    assert np.isfinite(value)
    grid = InteriorGrid([(0.0, 0.0), (0.5, 0.5), point, (-0.3, 0.2)])
    report = evaluate_field(solution, grid, problem1, rule8)
    assert np.all(np.isfinite(report.u_bem))
    assert report.u_bem[2] == value
    assert report.near_boundary.tolist() == [False, False, True, False]


def test_a_point_on_a_vertical_chord_gets_its_limit(rule8):
    # n = 15 is odd, so nodes 6 and 7 share x bitwise and the chord between
    # them is vertical: on it the cross product is -0.0, where arctan2 gives
    # -pi instead of pi
    mesh = discretize_circle(15)
    assert mesh.nodes[6, 0] == mesh.nodes[7, 0]
    solution = solve_flux(assemble(mesh, get_problem(1), rule8))
    x = mesh.nodes[6, 0]
    below, on, above = (evaluate_interior(solution, (x + d, 0.0), rule8) for d in (-1e-9, 0.0, 1e-9))
    assert on == pytest.approx(0.5 * (below + above), abs=1e-8)


def test_evaluate_field_runs_in_blocks(monkeypatch, problem1, rule8):
    # n = 60: the 1245 points of the 41-point lattice span many blocks
    solution = solve_flux(assemble(discretize_circle(60), problem1, rule8))
    grid = interior_grid(41)
    blocks = []

    def counting(layers, sources, work):
        blocks.append(len(sources))
        return _block_values(layers, sources, work)

    monkeypatch.setattr(diskbem.solver, "_block_values", counting)
    evaluate_field(solution, grid, problem1, rule8)
    assert sum(blocks) == len(grid) == 1245
    assert len(blocks) < len(grid) // 10


@pytest.mark.parametrize("n, m", [(120, 101), (1500, 11)])
def test_evaluate_field_traced_peak_is_at_most_one_mebibyte(n, m, problem1, rule8):
    # a memory bound, not a timing: the blocks share one workspace, and the
    # coefficients are built from (n,) vectors
    solution = solve_flux(assemble(discretize_circle(n), problem1, rule8))
    grid = interior_grid(m)
    tracemalloc.start()
    try:
        evaluate_field(solution, grid, problem1, rule8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_evaluation_does_not_depend_on_the_quadrature_order(solution30, grid11, problem1):
    # the chord integrals are exact: K is the order of assembly only
    reports = [evaluate_field(solution30, grid11, problem1, gauss_legendre(k)) for k in (2, 8, 64)]
    for report in reports[1:]:
        np.testing.assert_array_equal(report.u_bem, reports[0].u_bem)


def _layer_potentials(rows, solution):
    """The single layer of q minus the double layer of u from (P, 4, n) element rows."""
    h_start, h_end, g_start, g_end = np.moveaxis(rows, 1, 0)
    u, q = solution.u_nodes, solution.q_nodes
    return (g_start @ q + g_end @ np.roll(q, -1)) - (h_start @ u + h_end @ np.roll(u, -1))


@functools.cache
def _lattice_rows(n, m):
    # composite-Gauss element rows at every lattice point, shared by the five problems
    nodes = discretize_circle(n).nodes
    return np.array([composite_element_rows(nodes, point) for point in interior_grid(m).points])


@pytest.mark.parametrize("n, m", [(30, 11), (60, 41)])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_layer_potentials_equal_the_row_form(pid, n, m, rule8):
    # the representation with the element rows of each point, integrated by
    # composite Gauss: sum(g_start q + g_end q_next) - sum(h_start u + h_end u_next).
    # Measured: at most 3.3e-15 max|u| at n = 30 and 1.2e-14 at n = 60, both
    # for problem 4, whose max|q| is about 7 max|u|: the rounding of the layer sums
    problem = get_problem(pid)
    solution = solve_flux(assemble(discretize_circle(n), problem, rule8))
    report = evaluate_field(solution, interior_grid(m), problem, rule8)
    reference = _layer_potentials(_lattice_rows(n, m), solution)
    assert np.max(np.abs(report.u_bem - reference)) <= 2.5e-14 * np.max(np.abs(solution.u_nodes))


def _chord_frames(mesh):
    """Each chord's midpoint, half-chord vector and unit inward normal, from its
    two nodes as the oracles take them; and the chord length."""
    first, second = mesh.nodes, np.roll(mesh.nodes, -1, axis=0)
    mid, half = 0.5 * (first + second), 0.5 * (second - first)
    half_length = np.hypot(half[:, 0], half[:, 1])
    inward = np.column_stack([-half[:, 1], half[:, 0]]) / half_length[:, np.newaxis]
    return mid, half, inward, 2.0 * half_length[0]


@functools.cache
def _near_chord_case(n):
    """40 points at each depth h/2, h/10 and h/50 below random chords of the
    n-gon (h the chord length), within 90% of the half-length, then 40 with
    |p| < 0.9; and the composite-Gauss element rows at each, taken with the
    point as the origin as in ``_lens_case``."""
    mesh = discretize_circle(n)
    rng = np.random.default_rng(n)
    mid, half, inward, length = _chord_frames(mesh)
    groups = []
    for depth in (length / 2, length / 10, length / 50):
        chord = rng.integers(0, n, 40)
        along = rng.uniform(-0.9, 0.9, (40, 1))
        groups.append(mid[chord] + along * half[chord] + depth * inward[chord])
    radius, angle = 0.9 * np.sqrt(rng.uniform(size=40)), rng.uniform(0.0, 2.0 * np.pi, 40)
    groups.append(np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]))
    points = np.concatenate(groups)
    rows = [composite_element_rows(mesh.nodes - point, (0.0, 0.0)) for point in points]
    return points, np.array(rows)


@pytest.mark.parametrize("n", [7, 30, 120, 480])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_values_near_a_chord_match_a_composite_reference(pid, n, rule8):
    # measured: at most 6.5e-16, 6.9e-15, 8.3e-15 and 1.0e-14 max|u| at n = 7,
    # 30, 120 and 480; Gauss-8 was off by up to 0.88 max|u| at depth h/50.
    # n = 7 is odd, so its nodes do not come in antipodal pairs
    problem = get_problem(pid)
    solution = solve_flux(assemble(discretize_circle(n), problem, rule8))
    points, rows = _near_chord_case(n)
    report = evaluate_field(solution, InteriorGrid(points), problem, rule8)
    error = np.abs(report.u_bem - _layer_potentials(rows, solution))
    assert np.max(error) <= 5e-14 * np.max(np.abs(solution.u_nodes))


@functools.cache
def _lens_case(n):
    """10 points at each of 0.9, 0.5 and 0.1 of the sagitta beyond random
    chords of the n-gon, within 90% of the half-length: the chord index, the
    foot point's parameter t in [0, 1] from the chord's start node, the
    distance beyond the chord, the points, and the composite-Gauss element
    rows at each, with panels near the chord fine enough for that distance.

    The rows are taken with the point as the origin, so that their Gauss points
    carry rounding relative to their distance from the point, not to the
    circle.  With the centre as the origin that rounding put errors of up to
    1.1e-13 max|u| into the reference at n = 120, where the evaluation was
    within 2.6e-15 of a 30-digit quadrature."""
    mesh = discretize_circle(n)
    rng = np.random.default_rng(n + 1)
    mid, half, inward, length = _chord_frames(mesh)
    chord = rng.integers(0, n, 30)
    along = rng.uniform(-0.9, 0.9, 30)
    # the circle lies sqrt(1 - a^2) - cos(pi/n) beyond the chord at offset a from its midpoint
    sagitta = np.sqrt(1.0 - (along * 0.5 * length) ** 2) - np.cos(np.pi / n)
    beyond = np.repeat([0.9, 0.5, 0.1], 10) * sagitta
    points = mid[chord] + along[:, np.newaxis] * half[chord] - beyond[:, np.newaxis] * inward[chord]
    panels = 2 ** np.ceil(np.log2(3.0 * length / beyond)).astype(int)
    rows = np.array([
        composite_element_rows(mesh.nodes - point, (0.0, 0.0), near_panels=count)
        for point, count in zip(points, panels)
    ])
    return chord, 0.5 * (1.0 + along), beyond, points, rows


@pytest.mark.parametrize("n", [7, 30, 120])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_lens_values_continue_the_layer_potentials_across_the_chord(pid, n, rule8):
    # beyond chord e the harmonic continuation of the polygon's field is the
    # layer potentials there plus the chord's jumps: the double layer's,
    # u_lin(t), and the single layer's, q_lin(t) times the distance beyond
    # the chord.  Measured: at most 7.6e-16, 2.0e-14 and 7.0e-15 max|u| at
    # n = 7, 30 and 120; with the q jump's sign flipped the error is 0.21,
    # 0.059 and 2.0e-3.  The panels follow the distance because at the
    # default 256 the reference itself was off by 7.5e-7 and 3.8e-4 max|u|
    # at n = 30 and 120.  n = 480 (1.4e-14) is left out for time: its
    # reference rows take 3.8 s
    problem = get_problem(pid)
    solution = solve_flux(assemble(discretize_circle(n), problem, rule8))
    chord, t, beyond, points, rows = _lens_case(n)
    u, q = solution.u_nodes, solution.q_nodes
    following = (chord + 1) % n
    u_lin = (1.0 - t) * u[chord] + t * u[following]
    q_lin = (1.0 - t) * q[chord] + t * q[following]
    reference = _layer_potentials(rows, solution) + u_lin + q_lin * beyond
    report = evaluate_field(solution, InteriorGrid(points), problem, rule8)
    assert np.all(report.near_boundary)
    error = np.abs(report.u_bem - reference)
    assert np.max(error) <= 5e-14 * np.max(np.abs(solution.u_nodes))


@pytest.mark.parametrize("n", [15, 30])
@pytest.mark.parametrize("m", [41, 101])
def test_lens_errors_stay_at_the_polygon_level(m, n, rule8):
    # the worst error between the polygon and the circle over the worst
    # error inside the polygon, problems 1-5: measured 1.39 and 1.54 at
    # m = 41, 1.17 and 1.14 at m = 101, for n = 15 and 30
    # p lies beyond the chord with midpoint c when p . c >= |c|^2 = cos(pi/n)^2
    mid, _, _, _ = _chord_frames(discretize_circle(n))
    points = interior_grid(m).points
    lens = np.any(points @ mid.T >= np.cos(np.pi / n) ** 2, axis=1)
    assert np.any(lens)
    for pid in (1, 2, 3, 4, 5):
        problem = get_problem(pid)
        solution = solve_flux(assemble(discretize_circle(n), problem, rule8))
        report = evaluate_field(solution, interior_grid(m), problem, rule8)
        assert np.max(report.abs_err[lens]) <= 2.0 * np.max(report.abs_err[~lens])


def test_a_point_gets_the_same_value_in_any_block(problem1, rule8):
    # at n = 60 the 1245 points of the 41-point lattice span many blocks
    solution = solve_flux(assemble(discretize_circle(60), problem1, rule8))
    report = evaluate_field(solution, interior_grid(41), problem1, rule8)
    for k, point in enumerate(report.points):
        assert evaluate_interior(solution, point, rule8) == report.u_bem[k]


@pytest.mark.parametrize("n, m", [(15, 41), (60, 41), (120, 101), (1500, 11)])
def test_u_bem_is_bitwise_equal_for_any_block_size(monkeypatch, n, m, problem1, rule8):
    # one point per block and one block of every point sum in the same order;
    # the pair that straddles two rows, weighted zero, ends every row but a
    # block's last, at odd n = 15 as at even n, and in the 5-point blocks of n = 1500
    solution = solve_flux(assemble(discretize_circle(n), problem1, rule8))
    grid = interior_grid(m)
    reference = evaluate_field(solution, grid, problem1, rule8).u_bem
    for pairs in (n, len(grid) * n):
        monkeypatch.setattr(diskbem.solver, "_BLOCK_PAIRS", pairs)
        u_bem = evaluate_field(solution, grid, problem1, rule8).u_bem
        np.testing.assert_array_equal(u_bem, reference)


def test_symmetry_of_the_discrete_field(solution30, rule8):
    # problem 1 data and the mesh share the symmetry (x, y) -> (-x, y) up to
    # node relabeling, so symmetric interior points agree to rounding
    pairs = [
        ((0.4, 0.8), (-0.4, 0.8)),
        ((0.4, -0.8), (-0.4, -0.8)),
    ]
    for a, b in pairs:
        va = evaluate_interior(solution30, a, rule8)
        vb = evaluate_interior(solution30, b, rule8)
        assert abs(va - vb) <= 1e-12


def test_constant_field_is_reproduced_inside(mesh30, rule8):
    solution = solve_flux(assemble(mesh30, constant_problem(), rule8))
    for point in [(0.0, 0.0), (0.5, 0.1), (-0.2, -0.6)]:
        value = evaluate_interior(solution, point, rule8)
        assert value == pytest.approx(1.0, abs=5e-3)


def test_near_boundary_predicate(solution30, problem1, rule8):
    # flagged when within half an element length (0.1045 at n = 30) of the
    # circle; (0, 0.99) is still inside the 30-gon, whose apothem is 0.9945
    grid = InteriorGrid([(0.0, 0.0), (0.8, 0.0), (0.95, 0.0), (0.0, 0.99)])
    report = evaluate_field(solution30, grid, problem1, rule8)
    assert report.near_boundary.tolist() == [False, False, True, True]


# ----------------------------------------------------------------------
# field reports
# ----------------------------------------------------------------------


def test_field_report_shapes_and_flags(report30, grid11):
    assert len(report30) == len(grid11) == 69
    assert report30.points.shape == (69, 2)
    assert report30.u_bem.shape == (69,)
    assert report30.near_boundary.dtype == np.bool_
    # the 11-point lattice keeps a margin of 0.1056 from the circle, just
    # beyond the n = 30 half-element length of 0.1045: nothing is flagged
    assert not np.any(report30.near_boundary)


def test_field_report_flags_points_close_to_a_coarse_boundary(grid11, rule8):
    # with only 8 elements the half-length grows to sin(pi/8) ~ 0.38 and the
    # outer ring of the lattice falls inside the flagging band
    mesh = discretize_circle(8)
    solution = solve_flux(assemble(mesh, get_problem(1), rule8))
    report = evaluate_field(solution, grid11, get_problem(1), rule8)
    radii = np.hypot(report.points[:, 0], report.points[:, 1])
    expected = 1.0 - radii < np.sin(np.pi / 8.0)
    assert np.array_equal(report.near_boundary, expected)
    assert np.any(report.near_boundary)
    assert not np.all(report.near_boundary)


def test_field_report_derives_errors(report30):
    assert np.array_equal(report30.abs_err, np.abs(report30.u_bem - report30.u_exact))
    defined = np.abs(report30.u_exact) >= REL_EXCLUSION_THRESHOLD
    assert np.all(np.isfinite(report30.rel_err[defined]))
    expected = report30.abs_err[defined] / np.abs(report30.u_exact[defined])
    assert np.array_equal(report30.rel_err[defined], expected)


def test_field_report_marks_undefined_relative_errors():
    points = np.array([[0.0, 0.0], [0.1, 0.0]])
    report = FieldReport(
        points=points,
        u_bem=np.array([1e-5, 0.5]),
        u_exact=np.array([0.0, 0.5]),
        near_boundary=np.array([False, False]),
    )
    assert np.isnan(report.rel_err[0])
    assert report.rel_err[1] == 0.0
    assert report.abs_err[0] == 1e-5


def test_field_report_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="matching lengths"):
        FieldReport(
            points=np.zeros((3, 2)),
            u_bem=np.zeros(2),
            u_exact=np.zeros(3),
            near_boundary=np.zeros(3, dtype=bool),
        )


def test_field_report_arrays_are_frozen(report30):
    with pytest.raises(ValueError):
        report30.u_bem[0] = 0.0
    with pytest.raises(ValueError):
        report30.abs_err[0] = 0.0


# ----------------------------------------------------------------------
# physics invariants across all benchmark problems
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_interior_maximum_principle(pid, mesh30, grid11, rule8):
    # a harmonic function attains its extremes on the boundary, so interior
    # values may not overshoot the nodal data range by more than the scheme's
    # accuracy
    problem = get_problem(pid)
    solution = solve_flux(assemble(mesh30, problem, rule8))
    report = evaluate_field(solution, grid11, problem, rule8)
    lo, hi = np.min(solution.u_nodes), np.max(solution.u_nodes)
    slack = 5e-3 * max(hi - lo, 1.0)
    assert np.all(report.u_bem <= hi + slack)
    assert np.all(report.u_bem >= lo - slack)


@pytest.mark.parametrize("pid", [2, 3, 4, 5])
def test_all_problems_produce_finite_fields(pid, mesh30, grid11, rule8):
    problem = get_problem(pid)
    solution = solve_flux(assemble(mesh30, problem, rule8))
    report = evaluate_field(solution, grid11, problem, rule8)
    assert np.all(np.isfinite(report.u_bem))
    assert np.all(np.isfinite(report.abs_err))


def test_interior_error_decreases_under_refinement(refinement_errors):
    errors = [refinement_errors[n] for n in (15, 30, 60, 120)]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_interior_error_is_second_order(refinement_errors):
    # halving the element size should cut the error by about four
    for coarse, fine in ((15, 30), (30, 60), (60, 120)):
        ratio = refinement_errors[coarse] / refinement_errors[fine]
        order = np.log2(ratio)
        assert 1.8 <= order <= 2.6


def test_evaluate_field_with_synthetic_boundary_data(mesh30, rule8):
    # manufactured solution with zero exact values on a grid line exercises
    # the NaN convention end to end: u = x vanishes on the y axis
    grid = interior_grid(5)
    from diskbem.problems import TestProblem

    def u(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0]

    def grad(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape)
        out[..., 0] = 1.0
        return out

    problem = TestProblem(99, u, grad)
    solution = solve_flux(assemble(mesh30, problem, rule8))
    report = evaluate_field(solution, grid, problem, rule8)
    on_axis = np.abs(report.points[:, 0]) < 1e-12
    assert np.any(on_axis)
    assert np.all(np.isnan(report.rel_err[on_axis]))
    assert np.all(np.isfinite(report.rel_err[~on_axis]))
    assert np.max(report.abs_err) <= 5e-3
