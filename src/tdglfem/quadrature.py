"""Symmetric six-point degree-4 quadrature on the reference triangle.

``POINTS`` holds the barycentric coordinates of the points (two symmetric
orbits) and ``WEIGHTS`` their weights, which sum to one, so the integral of
``f`` over a physical cell ``K`` is ``area(K) * sum_q WEIGHTS[q] f(x_q)``.
Both arrays are read-only.
"""

import numpy as np

_A1 = 0.445948490915965
_W1 = 0.223381589678011
_A2 = 0.091576213509771
_W2 = 0.109951743655322
POINTS = np.array([
    [_A1, _A1, 1.0 - 2.0 * _A1],
    [_A1, 1.0 - 2.0 * _A1, _A1],
    [1.0 - 2.0 * _A1, _A1, _A1],
    [_A2, _A2, 1.0 - 2.0 * _A2],
    [_A2, 1.0 - 2.0 * _A2, _A2],
    [1.0 - 2.0 * _A2, _A2, _A2],
])
WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])
POINTS.setflags(write=False)
WEIGHTS.setflags(write=False)
