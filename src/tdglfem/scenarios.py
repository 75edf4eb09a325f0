"""Built-in scenarios: one record each, and the manufactured exact solution.

Each named scenario is a :class:`Scenario` in ``SCENARIOS``; the config
layer merges a run config onto it and the CLI lists it.

* ``manufactured``: a smooth exact solution on the unit square with the
  forcing terms that make it solve the driven system; used for convergence
  studies. It sets its own applied field, initial data and mesh. The applied
  field is time dependent here, so the energy decay check does not apply.
* ``lshape``: relaxation from a constant order parameter on an L-shaped
  domain under a moderate applied field; a single vortex migrates to the
  reentrant corner and the state settles.
* ``square_with_holes``: a 10 x 10 square with four unit holes, weak
  applied field, long horizon; exercises multiply connected domains.
* ``custom``: user-supplied constants on a user-supplied mesh; ``kappa``,
  ``T`` and ``M`` (or ``mesh_file``) have no default.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .mesh import Mesh, generate_uniform_square

__all__ = [
    "ExactSolution",
    "manufactured_fields",
    "unit_square_mesh",
    "lshape_mesh",
    "holed_square_mesh",
    "Scenario",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "DEFAULT_SCENARIO",
    "SCENARIO_KEYS",
]


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference fields, all callables of ``(x, y, t)``.

    ``grad_psi`` and ``A`` return component pairs.
    """

    psi: Callable
    grad_psi: Callable
    A: Callable
    curl_A: Callable
    H: Callable


def manufactured_fields(kappa: float = 1.0, sigma: float = 1.0):
    """Exact solution plus matching forcings for the driven system.

    The pair

    ``psi = exp(-t) (cos 2 pi x + i cos pi y)``,
    ``A = (exp(t - y) sin pi x, exp(t - x) sin 2 pi y)``

    satisfies the natural boundary conditions on the unit square exactly,
    and its curl coincides with the applied field ``H = curl A``, so the
    magnetic load and the curl-curl term cancel identically. The returned
    forcings are what remains of the strong equations:

    ``forcing_A = (sigma + |psi|^2) A + supercurrent(psi)``
    ``forcing_psi = (|psi|^2 + |A|^2 - 2) psi - (1/kappa^2) lap psi
    + (i/kappa) ((div A) psi + 2 A . grad psi)``

    Returns ``(exact, forcing_A, forcing_psi)``.
    """
    pi = np.pi

    def psi(x, y, t):
        return np.exp(-t) * (np.cos(2 * pi * x) + 1j * np.cos(pi * y))

    def grad_psi(x, y, t):
        gx = -2 * pi * np.exp(-t) * np.sin(2 * pi * x) + 0j * y
        gy = -1j * pi * np.exp(-t) * np.sin(pi * y) + 0j * x
        return gx, gy

    def A(x, y, t):
        return np.exp(t - y) * np.sin(pi * x), np.exp(t - x) * np.sin(2 * pi * y)

    def curl_A(x, y, t):
        return -np.exp(t - x) * np.sin(2 * pi * y) + np.exp(t - y) * np.sin(pi * x)

    exact = ExactSolution(psi=psi, grad_psi=grad_psi, A=A, curl_A=curl_A, H=curl_A)

    def forcing_A(x, y, t):
        ax, ay = A(x, y, t)
        mod2 = np.exp(-2 * t) * (np.cos(2 * pi * x) ** 2 + np.cos(pi * y) ** 2)
        # supercurrent -(1/kappa) Im(conj(psi) grad psi)
        gx = -(1.0 / kappa) * np.exp(-2 * t) * 2 * pi * np.sin(2 * pi * x) * np.cos(pi * y)
        gy = (1.0 / kappa) * np.exp(-2 * t) * pi * np.sin(pi * y) * np.cos(2 * pi * x)
        return (sigma + mod2) * ax + gx, (sigma + mod2) * ay + gy

    def forcing_psi(x, y, t):
        val = psi(x, y, t)
        ax, ay = A(x, y, t)
        mod2 = np.exp(-2 * t) * (np.cos(2 * pi * x) ** 2 + np.cos(pi * y) ** 2)
        a2 = ax * ax + ay * ay
        lap = -np.exp(-t) * (4 * pi**2 * np.cos(2 * pi * x) + 1j * pi**2 * np.cos(pi * y))
        div_A = pi * np.exp(t - y) * np.cos(pi * x) + 2 * pi * np.exp(t - x) * np.cos(2 * pi * y)
        gx, gy = grad_psi(x, y, t)
        a_dot_grad = ax * gx + ay * gy
        return (
            (mod2 + a2 - 2.0) * val
            - lap / kappa**2
            + (1j / kappa) * (div_A * val + 2.0 * a_dot_grad)
        )

    return exact, forcing_A, forcing_psi


# ---------------------------------------------------------------------------
# meshes


def unit_square_mesh(M: int) -> Mesh:
    return generate_uniform_square(M)


def lshape_mesh(M: int) -> Mesh:
    """L-shaped domain ``(-0.5, 0.5)^2`` minus ``[0, 0.5] x [-0.5, 0]``.

    ``M`` must be even so the reentrant corner lies on grid lines.
    """
    if int(M) % 2:
        raise ValueError("lshape needs even M so the corner lies on grid lines")
    return generate_uniform_square(
        M, domain=(-0.5, -0.5, 0.5, 0.5), mask=lambda cx, cy: (cx > 0.0) & (cy < 0.0)
    )


def _hole_band(v):
    return ((v > 2.0) & (v < 3.0)) | ((v > 7.0) & (v < 8.0))


def holed_square_mesh(M: int) -> Mesh:
    """``[0, 10]^2`` with four unit holes at ``x, y in [2,3] u [7,8]``.

    ``M`` counts subdivisions per unit length; hole boundaries lie on
    integer coordinates, so every positive ``M`` aligns.
    """
    return generate_uniform_square(
        M, domain=(0.0, 0.0, 10.0, 10.0), mask=lambda cx, cy: _hole_band(cx) & _hole_band(cy)
    )


# ---------------------------------------------------------------------------
# the named scenarios (merged onto by the config layer, listed by the CLI)

#: config keys a scenario may default, in the order the CLI lists them
SCENARIO_KEYS = ("M", "kappa", "sigma", "T", "mu", "tau", "H", "psi0")


@dataclass(frozen=True)
class Scenario:
    """One named setup, as the config layer merges a run config onto it.

    ``defaults`` maps config keys to their values in config terms (``tau``
    may also be ``"1/M"``, one step per mesh width). A key of
    ``SCENARIO_KEYS`` that is neither defaulted nor in ``fixed`` must be
    configured; ``fixed`` names the config keys the scenario sets itself,
    which a config may not set. ``mesh`` names this module's builder of the
    mesh at ``M``, looked up when called. ``solution``, when given, maps
    ``(kappa, sigma)`` to the exact solution and the ``SchemeParams`` fields
    it determines.
    """

    description: str
    mesh: str
    defaults: Mapping
    fixed: tuple = ()
    solution: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))

    def build_mesh(self, M: int) -> Mesh:
        return globals()[self.mesh](M)


def _manufactured_solution(kappa, sigma):
    """The exact solution, and the applied field, initial data and forcings it fixes.

    ``psi0`` is the exact ``psi`` at ``t = 0`` and ``A0`` the Ritz
    projection of the exact ``A`` there.
    """
    exact, forcing_A, forcing_psi = manufactured_fields(kappa, sigma)
    return exact, dict(
        H=exact.H,
        psi0=lambda x, y: exact.psi(x, y, 0.0),
        A0=(lambda x, y: exact.A(x, y, 0.0), lambda x, y: exact.curl_A(x, y, 0.0)),
        forcing_A=forcing_A,
        forcing_psi=forcing_psi,
    )


SCENARIOS = {
    "manufactured": Scenario(
        "unit square, smooth exact solution with matching forcing",
        "unit_square_mesh",
        dict(M=16, kappa=1.0, sigma=1.0, T=1.0, mu=2.0, tau="1/M"),
        fixed=("H", "psi0", "mesh_file"),
        solution=_manufactured_solution,
    ),
    "lshape": Scenario(
        "L-shaped domain, vortex settles into the reentrant corner",
        "lshape_mesh",
        dict(M=16, kappa=10.0, sigma=1.0, T=20.0, mu=2.0, tau="adaptive", psi0=0.6 + 0.8j, H=5.0),
    ),
    "square_with_holes": Scenario(
        "10x10 square with four unit holes, weak applied field",
        "holed_square_mesh",
        dict(M=8, kappa=4.0, sigma=1.0, T=100.0, mu=2.0, tau="adaptive", psi0=1.0 + 0.0j, H=1.1),
    ),
    "custom": Scenario(
        "user-supplied mesh and constants",
        "unit_square_mesh",
        dict(sigma=1.0, mu=2.0, tau=0.1, psi0=1.0 + 0.0j, H=0.0),
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)

#: the scenario of a config that names none
DEFAULT_SCENARIO = "lshape"
