"""Gauss-Legendre rules, shape functions, and exact singular moments."""

import numpy as np
import pytest

from diskbem import (
    MAX_ORDER,
    QuadratureRule,
    basis_end,
    basis_start,
    gauss_legendre,
    singular_g_pair,
    singular_log_moments,
)
from tests.oracles import brute_g_pair, brute_log_moments

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# Gauss-Legendre rules
# ----------------------------------------------------------------------


def test_one_point_rule_is_the_midpoint_rule():
    rule = gauss_legendre(1)
    assert np.array_equal(rule.points, [0.0])
    assert np.array_equal(rule.weights, [2.0])


def test_two_point_rule():
    rule = gauss_legendre(2)
    assert np.allclose(rule.points, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 64])
def test_weights_sum_to_two_and_points_are_interior_increasing(order):
    rule = gauss_legendre(order)
    assert rule.order == order
    assert len(rule.points) == order
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-13)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.points) > 0.0)
    assert np.all(np.abs(rule.points) < 1.0)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 12])
def test_monomial_exactness_through_degree_2k_minus_1(order):
    rule = gauss_legendre(order)
    for degree in range(2 * order):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        value = rule.weights @ rule.points**degree
        assert value == pytest.approx(exact, abs=1e-13)


def test_five_point_rule_on_degrees_just_past_exactness():
    rule = gauss_legendre(5)
    assert rule.weights @ rule.points**9 == pytest.approx(0.0, abs=1e-14)
    assert rule.weights @ rule.points**8 == pytest.approx(2.0 / 9.0, abs=1e-14)


@pytest.mark.parametrize("order", [0, -1, MAX_ORDER + 1])
def test_order_outside_supported_range(order):
    with pytest.raises(ValueError, match="order"):
        gauss_legendre(order)


def test_rule_arrays_are_frozen():
    rule = gauss_legendre(4)
    with pytest.raises(ValueError):
        rule.points[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


# ----------------------------------------------------------------------
# shape functions
# ----------------------------------------------------------------------


def test_basis_endpoint_values():
    assert basis_start(-1.0) == 1.0
    assert basis_start(1.0) == 0.0
    assert basis_end(-1.0) == 0.0
    assert basis_end(1.0) == 1.0
    assert basis_start(0.0) == 0.5
    assert basis_end(0.0) == 0.5


def test_basis_partition_of_unity():
    t = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(basis_start(t) + basis_end(t) - 1.0)) <= 1e-15


# ----------------------------------------------------------------------
# applying a rule
# ----------------------------------------------------------------------


def test_integrate_simple_functions():
    rule = gauss_legendre(8)
    assert rule.weights @ np.ones(8) == pytest.approx(2.0, rel=1e-14)
    assert rule.weights @ basis_start(rule.points) == pytest.approx(1.0, rel=1e-14)
    assert rule.weights @ rule.points**2 == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_quadrature_rule_accepts_custom_nodes():
    rule = QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, 1.0]))
    assert rule.weights @ rule.points**2 == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize(
    "points, weights",
    [
        ([-0.5, 0.5], [1.0]),  # one weight short
        ([], []),
        ([[-0.5, 0.5]], [[1.0, 1.0]]),  # 2-D
        (0.0, 2.0),  # scalars
    ],
)
def test_quadrature_rule_rejects_malformed_nodes_and_weights(points, weights):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        QuadratureRule(np.array(points), np.array(weights))


# ----------------------------------------------------------------------
# singular moments
# ----------------------------------------------------------------------


def test_log_moments_frozen_values():
    moment0, moment1 = singular_log_moments(1.0)
    assert moment0 == pytest.approx(-1.0, rel=1e-15)
    assert moment1 == pytest.approx(-0.25, rel=1e-15)
    # int_0^e ln s ds = e*(1 - 1) = 0
    moment0_e, _ = singular_log_moments(np.e)
    assert moment0_e == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("length", [-1.0, 0.0])
def test_log_moments_reject_nonpositive_length(length):
    with pytest.raises(ValueError, match="positive"):
        singular_log_moments(length)
    with pytest.raises(ValueError, match="positive"):
        singular_g_pair(length)


@pytest.mark.parametrize("length", [0.01, 0.1, 2.0 * np.sin(np.pi / 30.0), 1.0, 2.0])
def test_log_moments_match_graded_subdivision(length):
    brute0, brute1 = brute_log_moments(length)
    moment0, moment1 = singular_log_moments(length)
    assert moment0 == pytest.approx(brute0, abs=1e-12)
    assert moment1 == pytest.approx(brute1, abs=1e-12)


def test_g_pair_frozen_values_for_unit_element():
    g_near, g_far = singular_g_pair(1.0)
    assert g_near == pytest.approx(3.0 / (8.0 * np.pi), rel=1e-14)
    assert g_far == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-14)


@pytest.mark.parametrize("length", [0.01, 0.1, 2.0 * np.sin(np.pi / 30.0), 1.0, 2.0])
def test_g_pair_matches_graded_subdivision(length):
    brute_near, brute_far = brute_g_pair(length)
    g_near, g_far = singular_g_pair(length)
    assert g_near == pytest.approx(brute_near, abs=1e-12)
    assert g_far == pytest.approx(brute_far, abs=1e-12)


@pytest.mark.parametrize("length", [0.05, 0.5, 1.0, 1.9])
def test_g_pair_sum_is_the_unweighted_element_integral(length):
    g_near, g_far = singular_g_pair(length)
    expected = (length / TWO_PI) * (1.0 - np.log(length))
    assert g_near + g_far == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("length", [0.05, 0.5, 1.9])
def test_g_pair_is_consistent_with_the_moments(length):
    moment0, moment1 = singular_log_moments(length)
    g_near, g_far = singular_g_pair(length)
    assert g_near == pytest.approx(-(moment0 - moment1 / length) / TWO_PI, rel=1e-14)
    assert g_far == pytest.approx(-(moment1 / length) / TWO_PI, rel=1e-14)
