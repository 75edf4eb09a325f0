"""Runtime verification quantities: energy, modulus bound, errors, rates.

The discrete free energy

``G = 1/2 ||((i/kappa) grad + A) psi||^2 + 1/2 ||curl A - H||^2
+ 1/4 sum_i d_i (|psi_i|^2 - 1)^2``

is the quantity the scheme dissipates step by step (for stationary applied
field and no forcing); the stepper records it after every accepted step and
the monotonicity check compares consecutive values. Its covariant part is
read off the step's own nodal operator, ``1/2 ||((i/kappa) grad + A) psi||^2
= -1/2 Re(psi^H Lhat(A) psi)``, the quadratic form of the operator the
exponential step uses. At a uniform state with ``A = 0`` that form rounds to
within about 1e-14 of zero and can be slightly negative. The modulus bound says
``max_i |psi_i| <= 1`` whenever the initial data satisfies it and the
stabilization shift is large enough; it is checked at every step as well.
The magnetic term and the errors against a reference solution are squared L2
norms at the quadrature points, by ``fem.at_quad`` and ``fem.squared_l2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import fem
from .mesh import Mesh

__all__ = [
    "discrete_energy",
    "mbp_stats",
    "ERROR_FIELDS",
    "ErrorReport",
    "error_norms",
    "convergence_rates",
]


def discrete_energy(mesh: Mesh, Lhat, A, psi, H, t: float) -> tuple[float, float, float]:
    """The discrete free energy of the pair ``(psi, A)`` at time ``t``, split
    as ``(covariant, magnetic, potential)``; the energy is their sum in that order.

    ``Lhat`` must be :func:`fem.assemble_Lhat` at ``A`` (and the run's
    ``kappa``); the covariant part is ``-1/2 Re(psi^H Lhat psi)``, which the
    quadrature of the seminorm equals up to rounding.
    """
    psi = np.asarray(psi, dtype=complex)
    covariant = -0.5 * float(np.vdot(psi, Lhat @ psi).real)

    curls = fem.curl_values(mesh, A)[:, None]
    magnetic = 0.5 * fem.squared_l2(mesh, curls - fem.at_quad(mesh, H, t))

    d = fem.lumped_mass(mesh)
    moduli2 = np.abs(psi) ** 2
    potential = 0.25 * float(np.sum(d * (moduli2 - 1.0) ** 2))
    return covariant, magnetic, potential


def mbp_stats(psi) -> tuple[float, int]:
    """Largest nodal modulus and the vertex index attaining it."""
    moduli = np.abs(np.asarray(psi, dtype=complex))
    idx = int(np.argmax(moduli))
    return float(moduli[idx]), idx


# ---------------------------------------------------------------------------
# errors against a known solution


#: the fields a convergence study measures, in report and table order
ERROR_FIELDS = ("A", "curl_A", "psi", "grad_psi")


@dataclass(frozen=True)
class ErrorReport:
    """L2 errors of one run against a reference solution, plus the reference
    norms so relative errors can be formed, each a read-only mapping keyed by
    :data:`ERROR_FIELDS`. ``h`` is the mesh size parameter the study varies
    (the reciprocal of the subdivisions per unit)."""

    h: float
    tau: float
    err: MappingProxyType[str, float]
    norm: MappingProxyType[str, float]

    def relative(self, name: str) -> float:
        return self.err[name] / self.norm[name]


def error_norms(mesh: Mesh, A, psi, exact, t: float, *, h: float, tau: float) -> ErrorReport:
    """L2 errors of ``(psi, A)`` against callables bundled in ``exact``.

    ``exact`` provides one callable of ``(x, y, t)`` per name in
    :data:`ERROR_FIELDS`: ``A`` and ``grad_psi`` return component pairs.
    """
    A_q, curl = fem.evaluate_edge(mesh, A)
    psi_q, grad = fem.evaluate_nodal(mesh, psi)
    err, norm = {}, {}
    for name, discrete in zip(ERROR_FIELDS, (A_q, curl, psi_q, grad)):
        ref = fem.at_quad(mesh, getattr(exact, name), t)
        err[name] = math.sqrt(fem.squared_l2(mesh, discrete - ref))
        norm[name] = math.sqrt(fem.squared_l2(mesh, ref))
    return ErrorReport(h, tau, MappingProxyType(err), MappingProxyType(norm))


def convergence_rates(hs, errors) -> list[float]:
    """Observed orders ``log2(e_k / e_{k+1})`` for a mesh-halving family.

    Requires each ``h`` to be half its predecessor (relative tolerance 1e-8).
    A zero error pair produces ``nan`` for that rate (undefined, flagged to
    the caller rather than raising).
    """
    hs = [float(h) for h in hs]
    errors = [float(e) for e in errors]
    if len(hs) != len(errors) or len(hs) < 2:
        raise ValueError("need matching h and error sequences of length >= 2")
    rates = []
    for k in range(len(hs) - 1):
        if abs(hs[k] / hs[k + 1] - 2.0) > 1e-8:
            raise ValueError(f"h does not halve between entries {k} and {k + 1}")
        if errors[k] == 0.0 or errors[k + 1] == 0.0:
            rates.append(math.nan)
        else:
            rates.append(math.log2(errors[k] / errors[k + 1]))
    return rates
