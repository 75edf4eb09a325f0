"""Sparse solvers for the two implicit substeps.

The vector-potential step needs one SPD solve per step; a hand-rolled
preconditioned conjugate gradient keeps the stopping rule explicit
(relative residual, and a zero right-hand side returns zero in zero
iterations). The preconditioner is the caller's: the one
``fem.A_system_preconditioner`` builds, the curl-exact ``P_c = c diag(M) +
K``. Since ``|psi| <= 1`` bounds the ``|psi|^2``-weighted mass by the mass
matrix, ``P_c`` bounds the condition number by ``15.4 (1 + tau/sigma)``
on the built-in meshes, whatever ``h``: about 50 iterations to ``1e-12``.
A fixed cost rule takes vertex-block Jacobi instead (the blocks of ``c M +
K`` over the dofs at each vertex) where its cheaper iterations win: when
``sqrt(1 + rho) <= 1 + 4 n_cells (bw + 1) / nnz``, with ``rho = (tau/sigma)
tr(K) / tr(M)`` and ``bw`` the band width of the cell-space factor.

The order-parameter step needs one action ``phi1(tau L) r`` per step, where
``L = D^{-1} Lhat - mu I`` is similar to the Hermitian (negative definite)
matrix ``S = D^{-1/2} Lhat D^{-1/2} - mu I``. The similarity is exploited:
a Lanczos iteration on ``S`` with full reorthogonalization builds a small
tridiagonal ``T``, ``phi1`` is evaluated on ``T`` by dense tridiagonal
eigendecomposition, and a Saad-style generalized residual (last subdiagonal
times the last entry of ``phi1(tau T) e1``) decides convergence. Each check
costs an eigensolve, so checks run on a schedule: the first where the
estimate becomes trustworthy, then after a failing check a jump to where
``log`` of the estimate, extrapolated linearly through an earlier failing
check with a larger estimate, meets the tolerance (at most a quarter of the
dimension), and after a passing check the next dimension. Convergence needs
passing estimates at two adjacent dimensions (or a breakdown), so the run
never stops earlier than checking every dimension would; the estimate falls
superlinearly past ``sqrt(tau rho)`` (Hochbruck & Lubich, SINUM 1997), which
keeps the overshoot small. The tolerance and the dimension cap are the
module constants ``KRYLOV_TOL`` and ``KRYLOV_MAX_DIM``.

Sign convention: ``phi1(a) = (1 - exp(a)) / a`` with ``phi1(0) = -1``, so
``exp(a) = 1 - a phi1(a)`` and the exponential Euler update
``psi_new = exp(tau L) psi - tau phi1(tau L) F`` reads
``psi_new = psi - tau phi1(tau L) (L psi + F)``.
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
    "CG_TOL",
    "KRYLOV_TOL",
    "KRYLOV_MAX_DIM",
    "phi1",
    "phi_apply",
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


#: relative residual at which the conjugate gradient stops
CG_TOL = 1e-12


def cg_solve(matrix, rhs, *, precond, x0=None) -> CgResult:
    """Preconditioned conjugate gradient for SPD systems.

    ``precond(r)`` applies an SPD approximation of ``matrix^{-1}``. Stops
    when ``||rhs - matrix @ x|| <= CG_TOL * ||rhs||``. A zero ``rhs`` returns
    the zero vector immediately. Raises :class:`ConvergenceError` after
    ``10 * n`` iterations, or as soon as the residual is not finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    max_iter = 10 * n
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)

    if np.any(matrix.diagonal() <= 0):
        raise ValueError("matrix has a nonpositive diagonal entry; not SPD")

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
    target = CG_TOL * bnorm

    it = 0
    while not resid <= target:  # a NaN residual enters the loop and fails there
        if not math.isfinite(resid):
            raise fail(f"residual is not finite after {it} iterations", it, resid)
        if it == max_iter:
            raise fail(f"did not reach tol={CG_TOL:g} in {max_iter} iterations", it, resid)
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


#: Lanczos stops once the generalized-residual estimate, relative to the
#: input norm, is below this at two adjacent Krylov dimensions
KRYLOV_TOL = 1e-12

#: cap on the Krylov dimension of one phi action; the basis is always fully
#: reorthogonalized, since the plain three-term recurrence loses
#: orthogonality on stiff problems
KRYLOV_MAX_DIM = 200


def _phi_on_tridiag(alphas, betas, tau):
    """``phi1(tau T) e1`` for the Lanczos tridiagonal ``T``."""
    lam, q = eigh_tridiagonal(alphas, betas)
    return q @ (phi1(tau * lam) * q[0, :])


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


def phi_apply(Lhat, d, mu, tau, v) -> np.ndarray:
    """Krylov evaluation of ``phi1(tau (D^{-1} Lhat - mu I)) v``.

    ``Lhat`` must be Hermitian (sparse or dense), ``d`` the positive lumped
    weights, ``mu >= 0`` the stabilization shift and ``tau > 0`` the step.

    The residual estimate is only consulted once the Krylov dimension passes
    ``m_trust = ceil(sqrt(tau * rho)) + 2`` (``rho`` a Gershgorin radius of
    the scaled operator) and has to pass at two adjacent dimensions. Below that
    dimension the projected phi value can underflow to zero before any Ritz
    value has reached the upper end of the spectrum, faking convergence with
    an answer of zero. Past it, a failing check at ``m`` schedules the next
    one :func:`_check_jump` dimensions later, a passing one at ``m + 1``; no
    check is scheduled past ``KRYLOV_MAX_DIM - 1``, so the last two checks
    under the cap are adjacent. The answer is the one of the last check.
    Reaching the cap raises :class:`ConvergenceError` naming ``tau``, the
    cap, the last estimate and ``m_trust``.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")

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

    mdim = min(KRYLOV_MAX_DIM, n)
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
            y = _phi_on_tridiag(alphas[: m + 1], betas[:m], tau)
            used = m + 1
            est = b * abs(y[-1])
            # a passing check is always followed by one at the next
            # dimension, so ``passed`` means the previous dimension passed
            if breakdown or (est <= KRYLOV_TOL and passed):
                converged = True
                break
            passed = est <= KRYLOV_TOL
            jump = 1 if passed else _check_jump(failed, used, est, KRYLOV_TOL)
            next_check = max(used + 1, min(used + jump, mdim - 1))
            if not passed:
                failed.append((used, est))
        if m + 1 < mdim:
            betas[m] = b
            V[m + 1] = u / b

    if not converged:
        raise ConvergenceError(
            f"phi_apply did not converge at tau={tau!r} within the Krylov dimension "
            f"cap {mdim}: last residual estimate {est:.3e} (tolerance {KRYLOV_TOL:g}), "
            f"estimates trusted from dimension m_trust={m_trust}",
            iterations=mdim,
            residual=float(est),
        )
    return ((beta0 * y) @ V[:used]) / dh
