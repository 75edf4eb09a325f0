"""Sparse solvers for the two implicit substeps.

The vector-potential step needs one SPD solve per step; a hand-rolled
preconditioned conjugate gradient keeps the stopping rule explicit
(relative residual, and a zero right-hand side returns zero in zero
iterations). The preconditioner is the caller's: Jacobi by default, or the
curl-exact ``P_c = c diag(M) + K`` that ``fem.A_system_preconditioner``
builds. Since ``|psi| <= 1`` bounds the ``|psi|^2``-weighted mass by the
mass matrix, ``P_c`` bounds the condition number by ``15.4 (1 + tau/sigma)``
on the built-in meshes, whatever ``h``: about 50 iterations to ``1e-12``.
A fixed cost rule keeps Jacobi where its cheaper iterations win: when
``sqrt(1 + rho) <= 1 + 4 n_cells (bw + 1) / nnz``, with ``rho = (tau/sigma)
tr(K) / tr(M)`` and ``bw`` the band width of the cell-space factor.

The order-parameter step needs ``phi0(tau L) v`` and ``phi1(tau L) v`` where
``L = D^{-1} Lhat - mu I`` is similar to the Hermitian (negative definite)
matrix ``S = D^{-1/2} Lhat D^{-1/2} - mu I``. The similarity is exploited:
a Lanczos iteration on ``S`` with full reorthogonalization builds a small
tridiagonal ``T``, the phi function is evaluated on ``T`` by dense
tridiagonal eigendecomposition, and a Saad-style generalized residual
(last subdiagonal times the last entry of ``phi(tau T) e1``) decides
convergence. Each check costs an eigensolve, so checks run on a schedule:
the first where the estimate becomes trustworthy, then after a failing check
a jump to where ``log`` of the estimate, extrapolated linearly through an
earlier failing check with a larger estimate, meets the tolerance (at most a
quarter of the dimension), and after a passing check the next dimension.
Convergence needs passing estimates at two adjacent dimensions (or a
breakdown), so the run never stops earlier than checking every dimension
would; the estimate falls superlinearly past ``sqrt(tau rho)`` (Hochbruck &
Lubich, SINUM 1997), which keeps the overshoot small.

Sign conventions: ``phi0(a) = exp(a)`` and ``phi1(a) = (1 - exp(a)) / a``
with ``phi1(0) = -1``, so the update reads ``psi_new = phi0(tau L) psi -
tau phi1(tau L) F``.

``dense_phi_oracle`` is an independent small-size reference path (full
eigendecomposition, different phi1 evaluation) used to cross-check the
Krylov code; the two routes share no nontrivial helpers by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "ConvergenceError",
    "CgResult",
    "cg_solve",
    "KrylovConfig",
    "phi0",
    "phi1",
    "phi_apply",
    "dense_phi_oracle",
]


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before its tolerance."""

    def __init__(self, message, *, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float


def cg_solve(
    matrix, rhs, *, tol: float = 1e-12, max_iter: int | None = None, x0=None, precond=None
) -> CgResult:
    """Preconditioned conjugate gradient for SPD systems.

    ``precond(r)`` applies an SPD approximation of ``matrix^{-1}``; without
    one the iteration is Jacobi-preconditioned. Stops when ``||rhs - matrix
    @ x|| <= tol * ||rhs||``. A zero ``rhs`` returns the zero vector
    immediately. Raises :class:`ConvergenceError` after ``max_iter``
    iterations (default ``10 * n``), or as soon as the residual is not
    finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)

    diag = matrix.diagonal() if hasattr(matrix, "diagonal") else np.diagonal(matrix)
    if np.any(diag <= 0):
        raise ValueError("matrix has a nonpositive diagonal entry; not SPD")
    if precond is None:
        inv_diag = 1.0 / diag

        def precond(r):
            return inv_diag * r

    def fail(message, iterations, resid):
        return ConvergenceError(
            f"cg {message} (relative residual {resid / bnorm:.3e})",
            iterations=iterations,
            residual=resid,
        )

    if x0 is None:
        x = np.zeros(n)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=float)
        r = rhs - matrix @ x
    resid = float(np.linalg.norm(r))
    target = tol * bnorm

    it = 0
    while not resid <= target:  # a NaN residual enters the loop and fails there
        if not math.isfinite(resid):
            raise fail(f"residual is not finite after {it} iterations", it, resid)
        if it == max_iter:
            raise fail(f"did not reach tol={tol:g} in {max_iter} iterations", it, resid)
        z = precond(r)
        rz_new = float(r @ z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        resid = float(np.linalg.norm(r))
        it += 1
    return CgResult(x, it, resid)


# ---------------------------------------------------------------------------
# phi functions


def phi0(a):
    """``exp(a)``, elementwise."""
    return np.exp(a)


#: below this magnitude phi1 switches to its Taylor series
PHI1_SERIES_CUTOFF = 1e-5


def phi1(a):
    """``(1 - exp(a)) / a`` with the removable singularity filled by series.

    Note the sign: ``phi1(0) = -1`` and ``phi1(a) -> 0-`` as ``a -> -inf``.
    """
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < PHI1_SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    formula = (1.0 - np.exp(safe)) / safe
    series = -(1.0 + a / 2.0 + a * a / 6.0 + a * a * a / 24.0)
    out = np.where(small, series, formula)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KrylovConfig:
    """Lanczos controls for the phi evaluations.

    ``tol`` bounds the generalized-residual estimate relative to the input
    norm; the default keeps the evaluation error well below the time
    discretization error. ``max_dim`` caps the Krylov dimension. The basis
    is always fully reorthogonalized: the plain three-term recurrence loses
    orthogonality on stiff problems.
    """

    tol: float = 1e-10
    max_dim: int = 100

    def __post_init__(self):
        if not (self.tol > 0 and self.max_dim >= 1):
            raise ValueError("need tol > 0 and max_dim >= 1")


def _phi_on_tridiag(alphas, betas, tau, which):
    """``phi(tau T) e1`` for the Lanczos tridiagonal ``T``."""
    lam, q = eigh_tridiagonal(alphas, betas)
    f = phi0(tau * lam) if which == "phi0" else phi1(tau * lam)
    return q @ (f * q[0, :])


#: a jump between two residual checks spans at most ``m // CHECK_JUMP_DIVISOR``
#: Krylov dimensions, ``m`` the dimension of the failing check
CHECK_JUMP_DIVISOR = 4


def _check_jump(failed, m, est, tol):
    """Dimensions from a failing check at ``m`` to the next check.

    ``log est`` is extrapolated linearly to ``log tol`` through the latest
    earlier failing check with a larger estimate; without one the next check
    is at ``m + 1``. The jump lies in ``[1, max(1, m // CHECK_JUMP_DIVISOR)]``.
    """
    for m_prev, est_prev in reversed(failed):
        if est_prev > est:
            jump = math.ceil(
                (math.log(est) - math.log(tol)) * (m - m_prev)
                / (math.log(est_prev) - math.log(est))
            )
            return min(max(jump, 1), max(1, m // CHECK_JUMP_DIVISOR))
    return 1


def phi_apply(Lhat, d, mu, tau, v, which="phi0", config: KrylovConfig | None = None) -> np.ndarray:
    """Krylov evaluation of ``phi(tau (D^{-1} Lhat - mu I)) v``.

    ``Lhat`` must be Hermitian (sparse or dense), ``d`` the positive lumped
    weights, ``mu >= 0`` the stabilization shift and ``tau > 0`` the step.
    ``which`` selects ``"phi0"`` or ``"phi1"``.

    The residual estimate is only consulted once the Krylov dimension passes
    ``sqrt(tau * rho)`` (``rho`` a Gershgorin radius of the scaled operator)
    and has to pass at two adjacent dimensions. Below that dimension the
    projected phi value can underflow to zero before any Ritz value has
    reached the upper end of the spectrum, faking convergence with an answer
    of zero. Past it, a failing check at ``m`` schedules the next one
    :func:`_check_jump` dimensions later, a passing one at ``m + 1``; no
    check is scheduled past ``max_dim - 1``, so the last two checks under
    the cap are adjacent. The answer is the one of the last check.
    """
    if which not in ("phi0", "phi1"):
        raise ValueError(f"unknown phi selector {which!r}")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    cfg = config if config is not None else KrylovConfig()

    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("lumped weights must be strictly positive")
    v = np.asarray(v, dtype=complex)
    n = len(v)
    dh = np.sqrt(d)

    w = dh * v
    beta0 = float(np.linalg.norm(w))
    if beta0 == 0.0:
        return np.zeros(n, dtype=complex)

    def s_matvec(x):
        return (Lhat @ (x / dh)) / dh - mu * x

    mdim = min(cfg.max_dim, n)
    # basis vectors are rows, so only the rows in use are ever touched
    V = np.empty((mdim, n), dtype=complex)
    alphas = np.empty(mdim)
    betas = np.empty(max(mdim - 1, 0))
    V[0] = w / beta0

    rho = tau * (float((abs(Lhat) @ (1.0 / dh) / dh).max()) + mu)
    m_trust = min(mdim, math.ceil(math.sqrt(max(rho, 0.0))) + 2)

    y = None
    used = 0
    est = math.inf
    passed = False
    failed = []  # (dimension, estimate) of every failing check so far
    next_check = m_trust
    converged = False
    for m in range(mdim):
        u = s_matvec(V[m])
        if m > 0:
            u -= betas[m - 1] * V[m - 1]
        a = float(np.vdot(V[m], u).real)
        u -= a * V[m]
        alphas[m] = a
        coeffs = (V[: m + 1] @ u.conj()).conj()
        u -= coeffs @ V[: m + 1]
        b = float(np.linalg.norm(u))
        scale = max(1.0, float(np.abs(alphas[: m + 1]).max()))
        breakdown = b <= 1e-14 * scale  # invariant subspace, result exact

        if m + 1 == next_check or breakdown:
            y = _phi_on_tridiag(alphas[: m + 1], betas[:m], tau, which)
            used = m + 1
            est = b * abs(y[-1])
            # a passing check is always followed by one at the next
            # dimension, so ``passed`` means the previous dimension passed
            if breakdown or (est <= cfg.tol and passed):
                converged = True
                break
            passed = est <= cfg.tol
            jump = 1 if passed else _check_jump(failed, used, est, cfg.tol)
            next_check = max(used + 1, min(used + jump, mdim - 1))
            if not passed:
                failed.append((used, est))
        if m + 1 < mdim:
            betas[m] = b
            V[m + 1] = u / b

    if not converged:
        raise ConvergenceError(
            f"phi_apply did not converge within a Krylov dimension of {mdim}",
            iterations=mdim,
            residual=float(est),
        )
    return ((beta0 * y) @ V[:used]) / dh


# ---------------------------------------------------------------------------
# dense reference path


def _oracle_phi1(a):
    # deliberately a different evaluation than phi1(): expm1 is accurate
    # uniformly, no series branch
    a = np.asarray(a, dtype=float)
    out = np.full_like(a, -1.0)
    nz = a != 0
    out[nz] = -np.expm1(a[nz]) / a[nz]
    return out


DENSE_ORACLE_MAX_SIZE = 500


def dense_phi_oracle(Lhat, d, mu, tau, v, which="phi0") -> np.ndarray:
    """Reference ``phi(tau (D^{-1} Lhat - mu I)) v`` by full eigendecomposition.

    Capped at 500 unknowns; this is a verification oracle, not a solver.
    """
    if which not in ("phi0", "phi1"):
        raise ValueError(f"unknown phi selector {which!r}")
    v = np.asarray(v, dtype=complex)
    n = len(v)
    if n > DENSE_ORACLE_MAX_SIZE:
        raise ValueError(f"oracle limited to {DENSE_ORACLE_MAX_SIZE} unknowns, got {n}")
    dense = Lhat.toarray() if hasattr(Lhat, "toarray") else np.asarray(Lhat, dtype=complex)
    d = np.asarray(d, dtype=float)
    dh = np.sqrt(d)
    S = dense / dh[:, None] / dh[None, :] - mu * np.eye(n)
    S = 0.5 * (S + S.conj().T)
    lam, U = np.linalg.eigh(S)
    f = np.exp(tau * lam) if which == "phi0" else _oracle_phi1(tau * lam)
    w = U.conj().T @ (dh * v)
    return (U @ (f * w)) / dh
