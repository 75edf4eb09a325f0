"""Symmetric degree-4 quadrature on the reference triangle.

Points are stored in barycentric coordinates and weights sum to one, so the
integral of ``f`` over a physical cell ``K`` is ``area(K) * sum_q w_q f(x_q)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule in barycentric form.

    Attributes
    ----------
    points : ndarray, shape (nq, 3)
        Barycentric coordinates of the quadrature points.
    weights : ndarray, shape (nq,)
        Reference weights, normalized to sum to one.
    degree : int
        Highest polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


# Six-point degree-4 rule (two symmetric orbits).
_A1 = 0.445948490915965
_W1 = 0.223381589678011
_A2 = 0.091576213509771
_W2 = 0.109951743655322
DEGREE4 = TriangleRule(
    np.array([
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]),
    np.array([_W1, _W1, _W1, _W2, _W2, _W2]),
    degree=4,
)


def physical_points(rule: TriangleRule, triangle_xy: np.ndarray) -> np.ndarray:
    """Map rule points onto physical triangles.

    Parameters
    ----------
    rule : TriangleRule
    triangle_xy : ndarray, shape (..., 3, 2)
        Vertex coordinates of one or more triangles.

    Returns
    -------
    ndarray, shape (..., nq, 2)
    """
    return np.einsum("qv,...vx->...qx", rule.points, triangle_xy)
