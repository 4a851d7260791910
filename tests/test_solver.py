"""Flux solve, interior evaluation, and solution-level invariants."""

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
    get_problem,
    interior_grid,
    solve_flux,
)
from diskbem.assembly import _regular_rows
from diskbem.solver import REL_EXCLUSION_THRESHOLD


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
    system = assemble(discretize_circle(n), get_problem(pid), rule8)
    u = system.u_nodes
    dense = np.linalg.solve(system.G, system.c * u + system.H @ u)
    q = solve_flux(system).q_nodes
    assert np.max(np.abs(q - dense)) <= 1e-10 * np.max(np.abs(q))


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
    [(1.0, 0.0), (0.0, -1.0), (0.8, 0.7), (2.0, 0.0), (np.nan, 0.0), (0.0, np.nan), (0.0, 0.999)],
)
def test_interior_evaluation_rejects_outside_points(solution30, rule8, point):
    # (0, 0.999) is inside the circle but outside the 30-gon (apothem 0.9945)
    with pytest.raises(ValueError, match="inside"):
        evaluate_interior(solution30, point, rule8)


def test_points_between_polygon_and_circle_are_refused(problem1, rule8):
    # on the ray through the midpoint of element n-1, r = 0.9999 lies beyond
    # the chord of the 120-gon (apothem 0.99966) but inside the unit circle
    solution = solve_flux(assemble(discretize_circle(120), problem1, rule8))
    angle = np.pi / 120
    point = (0.9999 * np.cos(angle), 0.9999 * np.sin(angle))
    with pytest.raises(ValueError, match="not strictly inside the boundary polygon"):
        evaluate_interior(solution, point, rule8)
    grid = InteriorGrid([(0.0, 0.0), (0.5, 0.5), point, (-0.3, 0.2)])
    with pytest.raises(ValueError, match="not strictly inside the boundary polygon"):
        evaluate_field(solution, grid, problem1, rule8)


def test_evaluate_field_runs_in_blocks(monkeypatch, problem1, rule8):
    # n = 60: four points of the 41-point lattice lie outside the 30-gon
    solution = solve_flux(assemble(discretize_circle(60), problem1, rule8))
    grid = interior_grid(41)
    blocks = []

    def counting(mesh, sources, rule):
        blocks.append(len(sources))
        return _regular_rows(mesh, sources, rule)

    monkeypatch.setattr(diskbem.solver, "_regular_rows", counting)
    evaluate_field(solution, grid, problem1, rule8)
    assert sum(blocks) == len(grid) == 1245
    assert len(blocks) < len(grid) // 10


def test_a_point_gets_the_same_value_in_any_block(problem1, rule8):
    # at n = 60 the 1245 points of the 41-point lattice span many blocks
    solution = solve_flux(assemble(discretize_circle(60), problem1, rule8))
    report = evaluate_field(solution, interior_grid(41), problem1, rule8)
    for k, point in enumerate(report.points):
        assert evaluate_interior(solution, point, rule8) == report.u_bem[k]


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
