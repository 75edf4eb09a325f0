"""Decoupled time integration of the superconductivity system.

Each accepted step advances the pair ``(psi, A)`` from ``t`` to ``t + tau``
in two substeps that never couple implicitly:

1. vector-potential step (backward Euler): solve the SPD system
   ``(sigma/tau) M A + K A + M_{|psi|^2} A = (sigma/tau) M A_n + loads``
   with the order parameter frozen at the previous level, by CG from the
   Galerkin projection onto the last ``RECENT_LEVELS`` potentials;
2. order-parameter step (stabilized exponential Euler): with
   ``L = D^{-1} Lhat(A_new) - mu I`` and ``F = (1 - |psi|^2) psi + mu psi
   + forcing``, the first-order ETD update ``psi_new = exp(tau L) psi -
   tau phi1(tau L) F`` is evaluated as ``psi_new = psi - tau phi1(tau L) r``
   with ``phi1(a) = (1 - exp(a))/a``, one Chebyshev action per step. The
   residual ``r = L psi + F = D^{-1} Lhat psi + (1 - |psi|^2) psi + forcing``
   does not depend on ``mu``. At the ground state (``psi = 1``, ``A = 0``)
   ``r`` vanishes up to the rounding of ``Lhat`` applied to a constant, so
   the step keeps ``psi`` within a few units in the last place of 1.

The recorded energy reads its covariant part off the same ``Lhat`` (see
:func:`discrete_energy`), so each time level, ``t = 0`` included, assembles
``Lhat`` exactly once. At a uniform state with ``A = 0`` that covariant part
rounds to within about 1e-14 of zero and can be slightly negative.

The shift ``mu`` makes ``L`` negative definite; any ``mu >= 1`` gives
energy dissipation for stationary applied field, and a large enough ``mu``
(the auto policy scales with ``||A||_inf^2``) keeps ``max |psi_i| <= 1``
when the initial data satisfies it. Both properties are verified at runtime
on every step rather than assumed, after the step is checked to be finite:
``params.checks`` makes a failed check warn, abort or be skipped.

Step size is either fixed or adapted from the recent energy slope,
``tau = max(tau_min, tau_max / sqrt(1 + alpha |dG/tau_prev|^2))``,
which shrinks steps during fast transients and saturates at ``tau_max``
once the state settles.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fem
from .diagnostics import discrete_energy, mbp_stats
from .linalg import PHI_TOL, RecentSpan, cg_solve, phi_apply
from .mesh import Mesh, audit_mesh

__all__ = [
    "AdaptiveTau",
    "SchemeParams",
    "TimeSeriesRow",
    "SimulationState",
    "ViolationError",
    "NonFiniteStateError",
    "initialize",
    "step_A",
    "step_psi",
    "adaptive_tau",
    "run",
]

#: nodal moduli may exceed 1 by at most this much before counting as a violation
MBP_SLACK = 1e-10

#: relative slack allowed on the per-step energy decrease
ENERGY_SLACK = 1e-9

#: factor on the ``mu = "auto"`` shift ``0.375 ||A||_inf^2``
MU_SAFETY = 2.0

#: relative width of the adaptive controller's saturation window: a proposed
#: step within ``ADAPTIVE_SNAP * tau_max`` of ``tau_max`` becomes ``tau_max``,
#: so a long plateau runs at the nominal maximal step instead of creeping
#: toward it asymptotically
ADAPTIVE_SNAP = 0.02


class ViolationError(RuntimeError):
    """A step broke a guarantee that applied: energy decay or the modulus bound."""


class NonFiniteStateError(RuntimeError):
    """A step produced a non-finite ``psi`` or ``A``."""


def _time_slack(T: float) -> float:
    """Time resolution of a run to ``T``: ``run`` stops within it of ``T``."""
    return 1e-9 * max(1.0, abs(T))


def _warn(message: str):
    """Warn at the first frame outside this module, the caller's own line."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _require_finite(**values):
    """Raise ``ValueError`` naming the first numeric value that is not finite."""
    for name, value in values.items():
        if isinstance(value, numbers.Number) and not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AdaptiveTau:
    """Energy-slope step controller with hard bounds (see :func:`adaptive_tau`)."""

    alpha: float = 1e5
    tau_min: float = 0.02
    tau_max: float = 0.2

    def __post_init__(self):
        _require_finite(alpha=self.alpha, tau_min=self.tau_min, tau_max=self.tau_max)
        if not (0 < self.tau_min <= self.tau_max):
            raise ValueError("need 0 < tau_min <= tau_max")
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")


@dataclass
class SchemeParams:
    """Model constants, policies and initial data for one run.

    ``mu`` is a fixed shift (floored at 2) or ``"auto"``, which takes
    ``max(2, 0.375 * MU_SAFETY * ||A||_inf^2)`` fresh each step. ``H`` is the
    applied field, a constant (stationary) or a callable ``(x, y, t)``
    (treated as time dependent). ``psi0`` is a complex constant or callable
    ``(x, y)``; ``A0`` is ``None`` for zero, a dof vector, or a pair of
    callables ``(A(x, y), curl_A(x, y))`` projected at startup. Optional forcings make a manufactured problem: ``forcing_A(x,
    y, t) -> (fx, fy)`` enters the potential step, ``forcing_psi(x, y, t)``
    the exponential step; their presence disables the energy monotonicity
    check (dissipation is not guaranteed for a driven system). ``checks`` is
    what a failed energy or modulus check does: ``warn``, ``abort`` or
    ``off`` (neither check runs). Every numeric
    value, ``H`` and ``psi0`` included, must be finite, and no step (a fixed
    ``tau`` or an adaptive ``tau_min``) may be shorter than the time loop's
    resolution ``1e-9 max(1, T)``.
    """

    kappa: float
    T: float
    tau: float | AdaptiveTau = 0.1
    sigma: float = 1.0
    mu: float | str = 2.0
    H: float | Callable = 0.0
    psi0: complex | Callable = 1.0 + 0.0j
    A0: object = None
    forcing_A: Callable | None = None
    forcing_psi: Callable | None = None
    strict_acute: bool = False
    checks: str = "warn"  # warn | abort | off

    def __post_init__(self):
        _require_finite(kappa=self.kappa, T=self.T, tau=self.tau, sigma=self.sigma,
                        mu=self.mu, H=self.H, psi0=self.psi0)
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.T >= 0:
            raise ValueError("T must be nonnegative")
        if isinstance(self.mu, str):
            if self.mu != "auto":
                raise ValueError(f"mu must be a number or 'auto', got {self.mu!r}")
        elif not self.mu >= 0:
            raise ValueError("mu must be nonnegative")
        if not isinstance(self.tau, AdaptiveTau) and not self.tau > 0:
            raise ValueError("tau must be positive or an AdaptiveTau policy")
        shortest = self.tau.tau_min if isinstance(self.tau, AdaptiveTau) else self.tau
        if shortest < _time_slack(self.T):
            raise ValueError(
                f"step {shortest!r} is below the time resolution 1e-9 max(1, T) of the run"
            )
        if self.checks not in ("warn", "abort", "off"):
            raise ValueError("checks must be one of warn, abort, off")

    @property
    def dissipation_guaranteed(self) -> bool:
        """True when the scheme's energy-decay guarantee applies."""
        return (
            not callable(self.H)
            and self.forcing_A is None
            and self.forcing_psi is None
        )


@dataclass(frozen=True)
class TimeSeriesRow:
    """One accepted step (or the initial state, with ``tau = 0``)."""

    t: float
    tau: float
    covariant: float
    magnetic: float
    potential: float
    max_psi: float

    @property
    def total(self) -> float:
        return self.covariant + self.magnetic + self.potential

    @property
    def bounded(self) -> bool:
        """``max_psi <= 1 + MBP_SLACK``, the modulus check; false for NaN."""
        return self.max_psi <= 1.0 + MBP_SLACK


@dataclass
class SimulationState:
    """Full solver state after ``n`` accepted steps at time ``t``.

    ``t`` and ``n`` are read off ``history``: the ``t = 0`` row, then one per step.
    ``violations`` holds one ``(t, check, value)`` per failed check, with
    ``check`` ``"energy"`` (``value`` the new energy) or ``"modulus"``
    (``value`` the largest nodal modulus).
    """

    mesh: Mesh
    A: np.ndarray
    psi: np.ndarray
    history: list[TimeSeriesRow] = field(default_factory=list)
    violations: list[tuple[float, str, float]] = field(default_factory=list)
    recent: RecentSpan = field(init=False, repr=False)

    def __post_init__(self):
        self.recent = RecentSpan(len(self.A))
        self.recent.push(self.A)

    t = property(lambda self: self.history[-1].t)
    n = property(lambda self: len(self.history) - 1)


def initialize(mesh: Mesh, A0, psi0, params: SchemeParams) -> SimulationState:
    """Audit the mesh, interpolate/project initial data, record ``t = 0``.

    A mesh that :meth:`mesh.MeshAudit.refusal` refuses under
    ``params.strict_acute`` raises ``ValueError`` with its reason; a weakly
    acute mesh it accepts runs with a warning. Finite data whose energy
    overflows is refused with ``ValueError`` naming the energy term. A ``t = 0``
    row that is not :attr:`~TimeSeriesRow.bounded` warns: :func:`run` leaves
    the modulus check unarmed.
    """
    audit = audit_mesh(mesh)
    refusal = audit.refusal(params.strict_acute)
    if refusal is not None:
        raise ValueError(f"{refusal}; refusing to run")
    if not audit.strictly_acute:
        _warn("mesh is weakly acute (right angles present): the modulus bound "
              "is verified at runtime rather than guaranteed a priori")

    if callable(psi0):
        psi = fem.interpolate_nodal(mesh, psi0)
    else:
        psi = np.full(mesh.num_vertices, complex(psi0), dtype=complex)
    if not np.isfinite(psi).all():
        raise ValueError("psi0 is not finite at every vertex")

    if A0 is None:
        A = np.zeros(fem.num_edge_dofs(mesh))
    elif isinstance(A0, np.ndarray):
        if A0.shape != (fem.num_edge_dofs(mesh),):
            raise ValueError("A0 dof vector has the wrong length")
        A = A0.astype(float)
    else:
        A_func, curl_func = A0
        A = fem.ritz_projection(mesh, A_func, curl_func)
    if not np.isfinite(A).all():
        raise ValueError("A0 is not finite at every edge dof")

    state = SimulationState(mesh=mesh, A=A, psi=psi)
    max_mod, idx = mbp_stats(psi)
    Lhat = fem.assemble_Lhat(mesh, A, params.kappa)
    row = TimeSeriesRow(0.0, 0.0, *discrete_energy(mesh, Lhat, A, psi, params.H, 0.0), max_mod)
    # a non-finite energy would also void the budget of every later energy check
    for term in ("covariant", "magnetic", "potential"):
        if not math.isfinite(getattr(row, term)):
            raise ValueError(f"initial {term} energy is not finite: {getattr(row, term)!r}")
    if not row.bounded:
        _warn(f"initial order parameter has modulus {max_mod!r} > 1 at vertex "
              f"{idx}; the unit modulus bound will be tracked but not enforced")
    state.history.append(row)
    return state


def step_A(state: SimulationState, params: SchemeParams, tau: float, t_new: float) -> np.ndarray:
    """Backward-Euler vector-potential substep to ``t_new``, with the loads
    (``H``, ``forcing_A``) taken at that new level; returns the new dof vector.

    CG starts from ``state.recent.start``: in the system's energy norm, the
    best point in the span of the last ``RECENT_LEVELS`` accepted potentials,
    so never worse than extrapolating ``A_n`` and ``A_{n-1}``. It stops at
    ``CG_TOL`` whatever the start. The preconditioner is the one
    :func:`fem.A_system_preconditioner` picks.
    """
    mesh = state.mesh
    system = fem.assemble_A_system(mesh, state.psi, params.sigma, tau)
    rhs = fem.assemble_A_rhs(
        mesh,
        state.psi,
        state.A,
        params.H,
        params.kappa,
        params.sigma,
        tau,
        t_new,
        forcing=params.forcing_A,
    )
    precond = fem.A_system_preconditioner(mesh, params.sigma, tau)
    x0 = state.recent.start(system, rhs)
    return cg_solve(system, rhs, x0=x0, precond=precond).x


def _mu_for(mesh: Mesh, A, params: SchemeParams) -> float:
    """Stabilization shift of the order-parameter substep against potential ``A``.

    Fixed policy: the configured value floored at 2. Auto policy:
    ``max(2, 0.375 * MU_SAFETY * ||A||_inf^2)``.
    """
    if params.mu == "auto":
        a_inf = fem.edge_max_norm(mesh, A)
        return max(2.0, 0.375 * MU_SAFETY * a_inf**2)
    return max(float(params.mu), 2.0)


def step_psi(state: SimulationState, params: SchemeParams, A_new, Lhat, tau: float) -> np.ndarray:
    """Exponential Euler order-parameter substep against the fresh potential.

    Uses ``state.psi`` and ``state.t`` as the previous level; ``A_new``
    must be the potential already advanced to the new level and ``Lhat``
    its :func:`fem.assemble_Lhat`. Returns ``psi - tau phi1(tau L) r`` with
    the ``mu``-free residual ``r = D^{-1} Lhat psi + (1 - |psi|^2) psi +
    forcing``. The action is asked for ``PHI_TOL min(||r||_D, ||psi||_D / tau)``
    in the ``D``-norm, so the step errs by at most ``PHI_TOL ||psi||_D``, and by
    no more than a target relative to ``r`` alone would allow.
    """
    mesh = state.mesh
    d = fem.lumped_mass(mesh)
    mu = _mu_for(mesh, A_new, params)
    psi = state.psi
    r = (Lhat @ psi) / d + (1.0 - np.abs(psi) ** 2) * psi
    if params.forcing_psi is not None:
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        r = r + np.asarray(params.forcing_psi(x, y, state.t), dtype=complex)
    r_norm, psi_norm = (math.sqrt(d @ np.abs(x) ** 2) for x in (r, psi))
    return psi - tau * phi_apply(Lhat, d, mu, tau, r, atol=PHI_TOL * min(r_norm, psi_norm / tau))


def adaptive_tau(energies, tau_prev: float, policy: AdaptiveTau) -> float:
    """Next step size from the last recorded energy slope.

    ``energies`` holds the energies after the latest accepted steps, oldest
    first, and ``tau_prev`` the last step; only the last two energies are
    read. With fewer than two the controller is still starting up and
    returns ``tau_min``.
    """
    if len(energies) < 2:
        return policy.tau_min
    slope = (energies[-1] - energies[-2]) / tau_prev
    tau = policy.tau_max / math.sqrt(1.0 + policy.alpha * slope * slope)
    if tau >= (1.0 - ADAPTIVE_SNAP) * policy.tau_max:
        tau = policy.tau_max
    return max(policy.tau_min, tau)


def run(mesh: Mesh, params: SchemeParams, *, on_step: Callable | None = None) -> SimulationState:
    """Integrate from ``t = 0`` until ``t >= T``; returns the final state.

    ``on_step(state)`` is called on the ``t = 0`` state and after each accepted
    step. The returned state carries the full per-step time series and any
    recorded violations; whether violations warn or abort is set by
    ``params.checks``. A step that is not finite raises
    :class:`NonFiniteStateError` before any check runs. Whatever stops the
    loop (a solver error, an aborting check, a non-finite value, an
    interrupt, an observer's error after a step) propagates with ``state``,
    the accepted steps, attached.
    """
    on_step = on_step or (lambda state: None)
    state = initialize(mesh, params.A0, params.psi0, params)
    on_step(state)

    g0 = state.history[0].total
    energy_budget = ENERGY_SLACK * max(1.0, abs(g0))
    check_energy = params.checks != "off" and params.dissipation_guaranteed
    check_mbp = params.checks != "off" and state.history[0].bounded

    try:
        while state.t < params.T - _time_slack(params.T):
            if isinstance(params.tau, AdaptiveTau):
                # the energies after the last two accepted steps; the t = 0 row is not a step
                last_two = state.history[max(1, len(state.history) - 2):]
                tau = adaptive_tau([row.total for row in last_two], state.history[-1].tau,
                                   params.tau)
            else:
                tau = float(params.tau)
            t_new = state.t + tau

            A_new = step_A(state, params, tau, t_new)
            Lhat = fem.assemble_Lhat(mesh, A_new, params.kappa)
            psi_new = step_psi(state, params, A_new, Lhat, tau)
            for name, value in (("A", A_new), ("psi", psi_new)):
                if not np.isfinite(value).all():
                    raise NonFiniteStateError(f"{name} is not finite at t={t_new!r}")
            energy = discrete_energy(mesh, Lhat, A_new, psi_new, params.H, t_new)
            row = TimeSeriesRow(t_new, tau, *energy, mbp_stats(psi_new)[0])
            g_prev = state.history[-1].total

            # written as ``not <=`` so that NaN counts as a violation
            messages = []
            if check_energy and not (row.total <= g_prev + energy_budget):
                state.violations.append((t_new, "energy", row.total))
                messages.append(f"energy grew from {g_prev!r} to {row.total!r} at t={t_new!r}")
            if check_mbp and not row.bounded:
                state.violations.append((t_new, "modulus", row.max_psi))
                messages.append(f"nodal modulus reached {row.max_psi!r} > 1 at t={t_new!r}")
            if messages:
                if params.checks == "abort":
                    raise ViolationError("; ".join(messages))
                _warn("; ".join(messages))
            state.A, state.psi = A_new, psi_new
            state.history.append(row)
            state.recent.push(A_new)
            on_step(state)
    except BaseException as exc:
        exc.state = state  # the accepted steps, for the caller to keep
        raise

    return state
