"""Ready-made problem setups and the manufactured-solution benchmark.

Three named scenarios cover the solver's test surface:

* ``manufactured``: a smooth exact solution on the unit square with the
  forcing terms that make it solve the driven system; used for convergence
  studies. The applied field is time dependent here, so the energy decay
  check does not apply.
* ``lshape``: relaxation from a constant order parameter on an L-shaped
  domain under a moderate applied field; a single vortex migrates to the
  reentrant corner and the state settles.
* ``square_with_holes``: a 10 x 10 square with four unit holes, weak
  applied field, long horizon; exercises multiply connected domains.

``custom`` runs user-supplied constants on a user-supplied mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .mesh import Mesh, generate_uniform_square
from .stepper import AdaptiveTau, SchemeParams

__all__ = [
    "ExactSolution",
    "manufactured_fields",
    "manufactured_params",
    "unit_square_mesh",
    "lshape_mesh",
    "holed_square_mesh",
    "SCENARIO_NAMES",
    "scenario_defaults",
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


def manufactured_params(kappa: float, sigma: float, T: float,
                        tau) -> tuple[SchemeParams, ExactSolution]:
    """Scheme parameters of the manufactured problem, and its exact solution.

    The applied field and the forcings are those of
    :func:`manufactured_fields`; ``psi0`` is the exact ``psi`` at ``t = 0``
    and ``A0`` the Ritz projection of the exact ``A`` there. Every other
    parameter keeps its default. Returns ``(params, exact)``.
    """
    exact, forcing_A, forcing_psi = manufactured_fields(kappa, sigma)
    params = SchemeParams(
        kappa=kappa,
        sigma=sigma,
        T=T,
        tau=tau,
        H=exact.H,
        psi0=lambda x, y: exact.psi(x, y, 0.0),
        A0=(lambda x, y: exact.A(x, y, 0.0), lambda x, y: exact.curl_A(x, y, 0.0)),
        forcing_A=forcing_A,
        forcing_psi=forcing_psi,
    )
    return params, exact


# ---------------------------------------------------------------------------
# meshes


def unit_square_mesh(M: int) -> Mesh:
    return generate_uniform_square(M, domain="unit")


def lshape_mesh(M: int) -> Mesh:
    """L-shaped domain ``(-0.5, 0.5)^2`` minus ``[0, 0.5] x [-0.5, 0]``."""
    return generate_uniform_square(M, domain="lshape")


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
# scenario defaults (consumed by the config layer and the CLI listing)

SCENARIO_NAMES = ("manufactured", "lshape", "square_with_holes", "custom")

_DEFAULTS = {
    "manufactured": dict(
        description="unit square, smooth exact solution with matching forcing",
        M=16,
        kappa=1.0,
        sigma=1.0,
        T=1.0,
        mu=2.0,
        tau="1/M",
        psi0="from exact solution",
        H="from exact solution",
    ),
    "lshape": dict(
        description="L-shaped domain, vortex settles into the reentrant corner",
        M=16,
        kappa=10.0,
        sigma=1.0,
        T=20.0,
        mu=2.0,
        tau=AdaptiveTau(),
        psi0=0.6 + 0.8j,
        H=5.0,
    ),
    "square_with_holes": dict(
        description="10x10 square with four unit holes, weak applied field",
        M=8,
        kappa=4.0,
        sigma=1.0,
        T=100.0,
        mu=2.0,
        tau=AdaptiveTau(),
        psi0=1.0 + 0.0j,
        H=1.1,
    ),
    "custom": dict(
        description="user-supplied mesh and constants",
        M=None,
        kappa=None,
        sigma=1.0,
        T=None,
        mu=2.0,
        tau=0.1,
        psi0=1.0 + 0.0j,
        H=0.0,
    ),
}


def scenario_defaults(name: str) -> dict:
    if name not in _DEFAULTS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    return dict(_DEFAULTS[name])


# ---------------------------------------------------------------------------
# refinement study against the manufactured solution


def run_manufactured_convergence(resolutions=(8, 16, 32, 64), cfg=None):
    """Solve the manufactured problem on a halving mesh family with tau = 1/M.

    Each level is ``cfg`` (a manufactured ``config.RunConfig``; every
    scenario default when ``None``) at ``M`` = its resolution, built by
    ``config.materialize``, and every level is built before the first
    solve. ``cfg`` may not set the keys the study sets itself or never
    reads: ``M``, ``tau``, ``mesh_file``, ``snapshots`` and
    ``series_cadence``; ``config.ConfigError`` says which.

    Returns ``(reports, rates)`` where ``reports`` is one error report per
    resolution (coarse to fine) and ``rates`` maps field name to observed
    orders between consecutive resolutions.
    """
    from .config import ConfigError, RunConfig, materialize
    from .diagnostics import convergence_rates, error_norms
    from .stepper import run

    cfg = RunConfig(scenario="manufactured") if cfg is None else cfg
    if cfg.scenario != "manufactured":
        raise ConfigError("convergence study requires scenario = manufactured", key="scenario")
    for key in ("M", "tau", "mesh_file", "snapshots", "series_cadence"):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"{key} cannot be set for the convergence study", key=key)
    levels = [materialize(replace(cfg, M=int(m))) for m in resolutions]

    reports = []
    for m in resolutions:
        level = levels.pop(0)  # no solved level outlives the next one's run
        state = run(level.mesh, level.params)
        reports.append(error_norms(level.mesh, state.A, state.psi, level.exact, state.t,
                                   h=1.0 / m, tau=level.params.tau))
    hs = [rep.h for rep in reports]
    rates = {
        name: convergence_rates(hs, [getattr(rep, "err_" + name) for rep in reports])
        for name in ("A", "curl_A", "psi", "grad_psi")
    }
    return reports, rates
