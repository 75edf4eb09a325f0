import math

import numpy as np
import pytest

from tdglfem.quadrature import DEGREE4, TriangleRule, physical_points

# The library ships only DEGREE4; a one-point and a three-point rule built here
# exercise TriangleRule and physical_points at other point counts.
CENTROID = TriangleRule(np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0]), degree=1)
MIDPOINT = TriangleRule(
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.full(3, 1 / 3),
    degree=2,
)
RULES = [CENTROID, MIDPOINT, DEGREE4]


@pytest.mark.parametrize("rule", RULES)
def test_weights_sum_to_one(rule):
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert (rule.weights > 0).all()


@pytest.mark.parametrize("rule", RULES)
def test_barycentric_points(rule):
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert (rule.points >= 0).all()


def exact_monomial(p, q):
    # int over reference triangle of x^p y^q = p! q! / (p+q+2)!
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


@pytest.mark.parametrize("rule", RULES)
def test_exact_to_declared_degree(rule):
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = physical_points(rule, tri)
    area = 0.5
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            approx = area * np.sum(rule.weights * pts[:, 0] ** p * pts[:, 1] ** q)
            assert approx == pytest.approx(exact_monomial(p, q), rel=1e-13, abs=1e-16)


def test_degree4_not_exact_beyond():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = physical_points(DEGREE4, tri)
    approx = 0.5 * np.sum(DEGREE4.weights * pts[:, 0] ** 5)
    assert abs(approx - exact_monomial(5, 0)) > 1e-9


def test_physical_points_affine_map():
    # each point is its barycentric combination of the vertices, and the
    # symmetric rule keeps the centroid
    tri = np.array([[2.0, 1.0], [4.0, 1.0], [2.0, 5.0]])
    pts = physical_points(DEGREE4, tri)
    np.testing.assert_allclose(pts, DEGREE4.points @ tri, atol=1e-14)
    np.testing.assert_allclose(DEGREE4.weights @ pts, tri.mean(axis=0), atol=1e-14)


def test_physical_points_batched():
    tris = np.array(
        [
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[2.0, 1.0], [4.0, 1.0], [2.0, 5.0]],
        ]
    )
    pts = physical_points(DEGREE4, tris)
    assert pts.shape == (2, 6, 2)
    np.testing.assert_allclose(pts[1].mean(axis=0), tris[1].mean(axis=0), atol=1e-13)
