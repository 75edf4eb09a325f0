"""Runtime verification quantities: energy, modulus bound, errors, rates.

The discrete free energy

``G = 1/2 ||((i/kappa) grad + A) psi||^2 + 1/2 ||curl A - H||^2
+ 1/4 sum_i d_i (|psi_i|^2 - 1)^2``

is the quantity the scheme dissipates step by step (for stationary applied
field and no forcing); the stepper records it after every accepted step and
the monotonicity check compares consecutive values. The modulus bound says
``max_i |psi_i| <= 1`` whenever the initial data satisfies it and the
stabilization shift is large enough; it is checked at every step as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .mesh import Mesh

__all__ = [
    "EnergyBreakdown",
    "discrete_energy",
    "mbp_stats",
    "ErrorReport",
    "error_norms",
    "convergence_rates",
    "ContractionReport",
    "contraction_check",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Free-energy split: covariant kinetic, magnetic, potential, and total."""

    covariant: float
    magnetic: float
    potential: float

    @property
    def total(self) -> float:
        return self.covariant + self.magnetic + self.potential


def discrete_energy(mesh: Mesh, A, psi, H, t: float, kappa: float) -> EnergyBreakdown:
    """Evaluate the discrete free energy of the pair ``(psi, A)`` at time ``t``."""
    psi = np.asarray(psi, dtype=complex)
    covariant = 0.5 * fem.covariant_energy_seminorm(mesh, A, psi, kappa)

    _, wdx = fem.quadrature_info(mesh)
    curls = fem.curl_values(mesh, A)
    dev = curls[:, None] - fem._scalar_at_quad(fem._ops(mesh), H, t)
    magnetic = 0.5 * float(np.sum(wdx * dev * dev))

    d = fem.lumped_mass(mesh)
    moduli2 = np.abs(psi) ** 2
    potential = 0.25 * float(np.sum(d * (moduli2 - 1.0) ** 2))
    return EnergyBreakdown(covariant, magnetic, potential)


def mbp_stats(psi) -> tuple[float, int]:
    """Largest nodal modulus and the vertex index attaining it."""
    moduli = np.abs(np.asarray(psi, dtype=complex))
    idx = int(np.argmax(moduli))
    return float(moduli[idx]), idx


# ---------------------------------------------------------------------------
# errors against a known solution


@dataclass(frozen=True)
class ErrorReport:
    """L2 errors of one run against a reference solution, plus the reference
    norms so relative errors can be formed. ``h`` is the mesh size parameter
    the study varies (the reciprocal of the subdivisions per unit)."""

    h: float
    tau: float
    err_A: float
    err_curl_A: float
    err_psi: float
    err_grad_psi: float
    norm_A: float
    norm_curl_A: float
    norm_psi: float
    norm_grad_psi: float

    def relative(self, name: str) -> float:
        return getattr(self, "err_" + name) / getattr(self, "norm_" + name)


def error_norms(mesh: Mesh, A, psi, exact, t: float, *, h: float, tau: float) -> ErrorReport:
    """L2 errors of ``(psi, A)`` against callables bundled in ``exact``.

    ``exact`` provides ``psi(x, y, t)``, ``grad_psi(x, y, t) -> (gx, gy)``,
    ``A(x, y, t) -> (ax, ay)`` and ``curl_A(x, y, t)``.
    """
    qpts, wdx = fem.quadrature_info(mesh)
    x, y = qpts[:, :, 0], qpts[:, :, 1]

    A_q, curls = fem.evaluate_edge(mesh, A)
    psi_q, grad_psi = fem.evaluate_nodal(mesh, psi)

    ax, ay = exact.A(x, y, t)
    dev = np.stack([A_q[:, :, 0] - ax, A_q[:, :, 1] - ay], axis=2)
    err_A = math.sqrt(np.sum(wdx * np.einsum("cqa,cqa->cq", dev, dev)))
    norm_A = math.sqrt(np.sum(wdx * (np.asarray(ax) ** 2 + np.asarray(ay) ** 2)))

    curl_exact = np.broadcast_to(np.asarray(exact.curl_A(x, y, t), dtype=float), wdx.shape)
    dev_c = curls[:, None] - curl_exact
    err_curl = math.sqrt(np.sum(wdx * dev_c * dev_c))
    norm_curl = math.sqrt(np.sum(wdx * curl_exact * curl_exact))

    psi_exact = np.asarray(exact.psi(x, y, t), dtype=complex)
    dev_p = psi_q - psi_exact
    err_psi = math.sqrt(np.sum(wdx * np.abs(dev_p) ** 2))
    norm_psi = math.sqrt(np.sum(wdx * np.abs(psi_exact) ** 2))

    gx, gy = exact.grad_psi(x, y, t)
    dev_g = np.abs(grad_psi[:, None, 0] - gx) ** 2 + np.abs(grad_psi[:, None, 1] - gy) ** 2
    err_grad = math.sqrt(np.sum(wdx * dev_g))
    norm_grad = math.sqrt(np.sum(wdx * (np.abs(gx) ** 2 + np.abs(gy) ** 2)))

    return ErrorReport(
        h=h,
        tau=tau,
        err_A=err_A,
        err_curl_A=err_curl,
        err_psi=err_psi,
        err_grad_psi=err_grad,
        norm_A=norm_A,
        norm_curl_A=norm_curl,
        norm_psi=norm_psi,
        norm_grad_psi=norm_grad,
    )


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


# ---------------------------------------------------------------------------
# structural checks on the stabilized operator


@dataclass(frozen=True)
class ContractionReport:
    """Random-vector audit of the stabilized operator ``L = D^{-1} Lhat - mu I``.

    ``contraction_violations`` counts vectors whose largest-modulus entry
    fails ``Re(conj(U_i) (L U)_i) < 0``; ``negativedef_violations`` counts
    vectors with ``Re(U^H Lhat U) > slack``. Both must be zero for the
    modulus bound machinery to apply.
    """

    trials: int
    contraction_violations: int
    negativedef_violations: int
    worst_contraction: float
    worst_quadform: float


def contraction_check(
    Lhat, d, mu, *, trials: int = 1000, seed: int = 0, slack: float = 1e-10
) -> ContractionReport:
    d = np.asarray(d, dtype=float)
    n = len(d)
    rng = np.random.default_rng(seed)

    contraction_bad = 0
    negdef_bad = 0
    worst_c = -math.inf
    worst_q = -math.inf
    for _ in range(trials):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        i = int(np.argmax(np.abs(u)))
        Lu = Lhat @ u
        c = float((np.conj(u[i]) * (Lu[i] / d[i] - mu * u[i])).real)
        worst_c = max(worst_c, c)
        if not c < 0.0:
            contraction_bad += 1

        quad = float(np.vdot(u, Lu).real)
        scale = max(1.0, float(np.vdot(u, d * u).real))
        worst_q = max(worst_q, quad / scale)
        if quad > slack * scale:
            negdef_bad += 1
    return ContractionReport(
        trials=trials,
        contraction_violations=contraction_bad,
        negativedef_violations=negdef_bad,
        worst_contraction=worst_c,
        worst_quadform=worst_q,
    )
