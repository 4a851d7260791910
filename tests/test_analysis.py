"""Error statistics and refinement studies."""

import numpy as np
import pytest

import diskbem.analysis
from diskbem import (
    ConvergenceRow,
    ErrorStats,
    FieldReport,
    assemble,
    constant_problem,
    convergence_study,
    discretize_circle,
    empirical_orders,
    error_stats,
    flux_error_stats,
    get_problem,
    solve_flux,
)


def _report(u_bem, u_exact):
    n = len(u_bem)
    return FieldReport(
        points=np.zeros((n, 2)),
        u_bem=np.asarray(u_bem, dtype=float),
        u_exact=np.asarray(u_exact, dtype=float),
        near_boundary=np.zeros(n, dtype=bool),
    )


# ----------------------------------------------------------------------
# error_stats on synthetic data
# ----------------------------------------------------------------------


def test_stats_hand_computed():
    stats = error_stats(_report([1.1, 2.0, 3.4], [1.0, 2.0, 4.0]))
    assert stats.max_abs == pytest.approx(0.6, rel=1e-15)
    assert stats.mean_abs == pytest.approx((0.1 + 0.0 + 0.6) / 3.0, rel=1e-12)
    assert stats.max_rel == pytest.approx(0.15, rel=1e-12)
    assert stats.mean_rel == pytest.approx((0.1 + 0.0 + 0.15) / 3.0, rel=1e-12)
    assert stats.n_points == 3
    assert stats.n_rel_excluded == 0


def test_stats_single_point():
    stats = error_stats(_report([2.5], [2.0]))
    assert stats.max_abs == stats.mean_abs == 0.5
    assert stats.max_rel == stats.mean_rel == 0.25
    assert stats.n_points == 1


def test_stats_exclude_vanishing_exact_values():
    stats = error_stats(_report([0.1, 1.5], [0.0, 1.0]))
    assert stats.n_rel_excluded == 1
    assert stats.max_abs == pytest.approx(0.5, rel=1e-15)
    assert stats.mean_abs == pytest.approx(0.3, rel=1e-12)
    assert stats.max_rel == pytest.approx(0.5, rel=1e-15)
    assert stats.mean_rel == pytest.approx(0.5, rel=1e-15)  # mean over included only


def test_stats_when_every_point_is_excluded():
    stats = error_stats(_report([0.25, -0.5], [0.0, 0.0]))
    assert stats.n_rel_excluded == 2
    assert stats.max_rel == 0.0
    assert stats.mean_rel == 0.0
    assert stats.max_abs == 0.5


def test_stats_reject_empty_reports():
    with pytest.raises(ValueError, match="empty"):
        error_stats(_report([], []))


def test_stats_are_permutation_invariant():
    rng = np.random.default_rng(3)
    u_exact = rng.uniform(1.0, 2.0, size=20)
    u_bem = u_exact + rng.uniform(-0.1, 0.1, size=20)
    base = error_stats(_report(u_bem, u_exact))
    perm = rng.permutation(20)
    shuffled = error_stats(_report(u_bem[perm], u_exact[perm]))
    assert shuffled.max_abs == base.max_abs
    assert shuffled.max_rel == base.max_rel
    assert shuffled.mean_abs == pytest.approx(base.mean_abs, rel=1e-14)
    assert shuffled.mean_rel == pytest.approx(base.mean_rel, rel=1e-14)


def test_absolute_stats_scale_with_the_error():
    u_exact = np.array([1.0, 2.0, 3.0])
    small = error_stats(_report(u_exact + [0.01, -0.02, 0.03], u_exact))
    large = error_stats(_report(u_exact + [0.1, -0.2, 0.3], u_exact))
    assert large.max_abs == pytest.approx(10.0 * small.max_abs, rel=1e-12)
    assert large.mean_abs == pytest.approx(10.0 * small.mean_abs, rel=1e-12)


def test_mean_never_exceeds_max(report30):
    stats = error_stats(report30)
    assert stats.mean_abs <= stats.max_abs
    assert stats.mean_rel <= stats.max_rel


def test_as_dict_round_trip():
    stats = ErrorStats(1.0, 2.0, 0.5, 0.25, 10, 3)
    d = stats.as_dict()
    assert d == {
        "max_abs": 1.0,
        "max_rel": 2.0,
        "mean_abs": 0.5,
        "mean_rel": 0.25,
        "n_points": 10,
        "n_rel_excluded": 3,
    }


# ----------------------------------------------------------------------
# flux statistics
# ----------------------------------------------------------------------


def test_flux_stats_for_problem_one(solution30, problem1):
    stats = flux_error_stats(solution30, problem1)
    assert stats.n_points == 30
    assert stats.max_abs < 2e-2
    # the flux 2*cos(2*theta) never vanishes at the n = 30 node angles
    assert stats.n_rel_excluded == 0


def test_flux_stats_exclude_all_points_for_constant_data(mesh30, rule8):
    solution = solve_flux(assemble(mesh30, constant_problem(), rule8))
    stats = flux_error_stats(solution, constant_problem())
    assert stats.n_rel_excluded == 30
    assert stats.max_rel == 0.0
    assert stats.mean_rel == 0.0
    assert stats.max_abs <= 1e-2


# ----------------------------------------------------------------------
# convergence studies
# ----------------------------------------------------------------------


def test_convergence_rows_are_sorted_and_improving(problem1, rule8):
    rows = convergence_study(problem1, [60, 15, 30], m=11, rule=rule8)
    assert [row.n for row in rows] == [15, 30, 60]
    for row in rows:
        assert row.error is None
        assert row.wall_time_s >= 0.0
        assert row.stats is not None
    maxima = [row.stats.max_abs for row in rows]
    assert maxima[0] > maxima[1] > maxima[2]


def test_convergence_row_matches_a_direct_solve(problem1, rule8, report30):
    rows = convergence_study(problem1, [30], m=11, rule=rule8)
    direct = error_stats(report30)
    assert rows[0].stats == direct


def test_convergence_study_requires_resolutions(problem1, rule8):
    with pytest.raises(ValueError, match="at least one"):
        convergence_study(problem1, [], m=11, rule=rule8)


def test_convergence_study_records_failures(problem1, rule8):
    rows = convergence_study(problem1, [2, 15], m=11, rule=rule8)
    assert rows[0].n == 2
    assert rows[0].stats is None
    assert rows[0].error  # discretize_circle rejects n = 2
    assert rows[1].stats is not None


def test_convergence_study_lets_programming_errors_propagate(monkeypatch, problem1, rule8):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed resolution")

    monkeypatch.setattr(diskbem.analysis, "solve_flux", broken)
    with pytest.raises(TypeError, match="a bug"):
        convergence_study(problem1, [15, 30], m=11, rule=rule8)


def test_empirical_orders_near_two(problem1, rule8):
    rows = convergence_study(problem1, [15, 30, 60], m=11, rule=rule8)
    orders = empirical_orders(rows)
    assert len(orders) == 2
    for order in orders:
        assert 1.8 <= order <= 2.6


def test_empirical_orders_skip_failed_rows():
    stats_a = ErrorStats(0.4, 0.0, 0.0, 0.0, 1, 0)
    stats_b = ErrorStats(0.1, 0.0, 0.0, 0.0, 1, 0)
    rows = [
        ConvergenceRow(10, stats_a, 0.0),
        ConvergenceRow(20, None, 0.0, error="boom"),
        ConvergenceRow(40, stats_b, 0.0),
    ]
    orders = empirical_orders(rows)
    assert len(orders) == 1
    assert orders[0] == pytest.approx(1.0, rel=1e-12)  # log(4)/log(4)
