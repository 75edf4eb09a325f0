import math

import numpy as np
import pytest

from tdglfem.fem import at_quad
from tdglfem.quadrature import POINTS, WEIGHTS


def test_weights_sum_to_one():
    assert WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    assert (WEIGHTS > 0).all()


def test_barycentric_points():
    np.testing.assert_allclose(POINTS.sum(axis=1), 1.0, atol=1e-14)
    assert (POINTS >= 0).all()


def exact_monomial(p, q):
    # int over reference triangle of x^p y^q = p! q! / (p+q+2)!
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


# on the reference triangle (0,0), (1,0), (0,1) the point x_q is (lam_1, lam_2)
X, Y = POINTS[:, 1], POINTS[:, 2]


def test_exact_to_degree_4():
    for p in range(5):
        for q in range(5 - p):
            approx = 0.5 * np.sum(WEIGHTS * X**p * Y**q)
            assert approx == pytest.approx(exact_monomial(p, q), rel=1e-13, abs=1e-16)


def test_degree4_not_exact_beyond():
    approx = 0.5 * np.sum(WEIGHTS * X**5)
    assert abs(approx - exact_monomial(5, 0)) > 1e-9



def test_physical_points_affine_map(square2):
    # each point is its barycentric combination of its cell's vertices, and
    # the symmetric rule keeps the centroid
    qpts = np.moveaxis(at_quad(square2, lambda x, y: (x, y)), 0, -1)  # (nc, nq, 2)
    tri = square2.vertices[square2.cells]
    np.testing.assert_allclose(qpts, POINTS @ tri, atol=1e-14)
    np.testing.assert_allclose(WEIGHTS @ qpts, tri.mean(axis=1), atol=1e-14)
