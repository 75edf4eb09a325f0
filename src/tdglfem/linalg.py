"""Sparse solvers for the two implicit substeps.

The vector-potential step needs one SPD solve per step; a hand-rolled
preconditioned conjugate gradient keeps the stopping rule explicit
(relative residual, and a zero right-hand side returns zero in zero
iterations). The preconditioner is the caller's: the one
``fem.A_system_preconditioner`` builds, the curl-exact ``P_c = c diag(M) +
K``. Since ``|psi| <= 1`` bounds the ``|psi|^2``-weighted mass by the mass
matrix, ``P_c`` bounds the condition number by ``15.4 (1 + tau/sigma)``
on the built-in meshes, whatever ``h``: about 50 iterations from zero to ``1e-12``, and
about 25 on ``holed8`` from :meth:`RecentSpan.start`, the energy-norm best point in the
span of the last ``RECENT_LEVELS`` solutions (Fischer, CMAME 1998).
A fixed cost rule takes vertex-block Jacobi instead (the blocks of ``c M +
K`` over the dofs at each vertex) where its cheaper iterations win: when
``sqrt(1 + rho) <= 1 + 4 n_cells (bw + 1) / nnz``, with ``rho = (tau/sigma)
tr(K) / tr(M)`` and ``bw`` the band width of the cell-space factor.

The order-parameter step needs one action ``phi1(tau L) r`` per step, where
``L = D^{-1} Lhat - mu I`` is similar to the Hermitian matrix ``S = D^{-1/2}
Lhat D^{-1/2} - mu I``. ``Lhat`` is negative semidefinite (its form is minus
the covariant seminorm), so the spectrum of ``S`` lies in ``[-(g + mu), -mu]``,
``g`` a Gershgorin radius. ``phi1(tau x)`` is entire, and its Chebyshev
expansion on that interval, truncated where the dropped coefficients' moduli
sum below the requested accuracy, bounds the error in the ``D``-norm a priori
(Tal-Ezer & Kosloff, J. Chem. Phys. 1984). Clenshaw's recurrence evaluates it
with one ``Lhat`` product per degree and three vectors; the degree depends only
on ``tau (g + mu)`` and the accuracy, and grows like ``sqrt(tau (g + mu))``.

Sign convention: ``phi1(a) = (1 - exp(a)) / a`` with ``phi1(0) = -1``, so
``exp(a) = 1 - a phi1(a)`` and the exponential Euler update
``psi_new = exp(tau L) psi - tau phi1(tau L) F`` reads
``psi_new = psi - tau phi1(tau L) (L psi + F)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "CgResult",
    "cg_solve",
    "CG_TOL",
    "RECENT_LEVELS",
    "RecentSpan",
    "PHI_TOL",
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


#: accepted solutions whose span the A-solve's start value is projected onto
RECENT_LEVELS = 8

#: a pushed vector with no part outside the span above this fraction of its norm is skipped
NEW_DIRECTION_TOL = 1e-12


class RecentSpan:
    """Orthonormal rows ``Q[:k]`` spanning the last ``RECENT_LEVELS`` pushed vectors.

    They are ``Q[:k].T @ R[:k, :k]``, ``R`` upper triangular; the oldest leaves by a QR of
    ``R[:, 1:]`` whose rotation updates ``Q`` in 4096-column chunks, with no ``k x n`` temporary.
    """

    def __init__(self, n: int):
        self.Q = np.empty((RECENT_LEVELS, n))
        self.R = np.zeros((RECENT_LEVELS, RECENT_LEVELS))
        self.k = 0

    def push(self, x) -> None:
        """Append ``x`` by two Gram-Schmidt passes, dropping the oldest of a full window first."""
        if self.k == RECENT_LEVELS:
            G, H = np.linalg.qr(self.R[:, 1:], mode="complete")
            for j in range(0, self.Q.shape[1], 4096):
                block = self.Q[:, j : j + 4096]
                block[:-1] = G[:, :-1].T @ block
            self.R[:] = np.pad(H[:-1], ((0, 1), (0, 1)))
            self.k -= 1
        k = self.k
        Q, w, h = self.Q[:k], np.array(x, dtype=float), np.zeros(k)
        for _ in range(2):
            c = Q @ w
            w -= c @ Q
            h += c
        norm = float(np.linalg.norm(w))
        if norm > NEW_DIRECTION_TOL * np.linalg.norm(x):
            self.Q[k], self.R[:k, k], self.R[k, k] = w / norm, h, norm
            self.k += 1

    def start(self, matrix, rhs) -> np.ndarray:
        """Galerkin start ``Q^T (Q S Q^T)^{-1} Q rhs`` for SPD ``S x = rhs``, best in ``S``-norm."""
        Q = self.Q[: self.k]
        if not self.k:
            return np.zeros(Q.shape[1])
        return np.linalg.solve(np.array([Q @ (matrix @ q) for q in Q]), Q @ rhs) @ Q


# ---------------------------------------------------------------------------
# phi functions


def phi1(a):
    """``(1 - exp(a)) / a``, evaluated as ``-expm1(a) / a`` with ``phi1(0) = -1``.

    Note the sign: ``phi1(a) -> 0-`` as ``a -> -inf``. ``expm1`` keeps the
    relative error at rounding level for every ``a``, small ``|a|`` included.
    """
    a = np.asarray(a, dtype=float)
    zero = a == 0.0
    out = np.where(zero, -1.0, -np.expm1(a) / np.where(zero, 1.0, a))
    return out if out.ndim else float(out)


#: a phi action is accurate to this fraction of the norm the caller scales ``atol`` by
PHI_TOL = 1e-12


def _phi1_chebyshev(tau, lo, hi, tol):
    """Chebyshev coefficients of ``phi1(tau x)`` on ``[lo, hi]``, dropped moduli summing ``<= tol / 2``.

    ``phi1`` is sampled at ``N + 1`` Chebyshev-Lobatto points, ``N = 64, 128, ...``; the
    type-1 DCT is the real FFT of the even extension. ``N`` doubles until the upper half's
    tail of moduli is at most ``tol / 4``, or below ``sqrt(PHI_TOL)`` and no longer halving:
    that tail is then the rounding floor, and the dropped moduli may sum to twice it.
    """
    n, prev = 64, math.inf
    while True:
        x = np.cos(np.pi * np.arange(n + 1) / n)
        f = phi1(tau * (0.5 * (hi + lo) + 0.5 * (hi - lo) * x))
        a = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / n
        a[[0, n]] /= 2.0
        tails = np.cumsum(np.abs(a[::-1]))[::-1]
        tail = tails[n // 2]
        if tail <= tol / 4 or (tail < math.sqrt(PHI_TOL) and tail > prev / 2):
            break
        n, prev = 2 * n, tail
    m = int(np.argmax(tails <= max(tol / 2, 2 * tail)))
    return a[: max(m, 1)]


def phi_apply(Lhat, d, mu, tau, v, *, atol) -> np.ndarray:
    """``phi1(tau L) v`` for ``L = D^{-1} Lhat - mu I``, within ``atol`` in the ``D``-norm.

    ``Lhat`` must be Hermitian and negative semidefinite (sparse or dense), ``d`` the
    positive lumped weights, ``mu >= 0`` the stabilization shift and ``tau > 0`` the step.
    ``L`` is then similar to a Hermitian matrix with its spectrum in ``[-(g + mu), -mu]``,
    ``g`` the Gershgorin radius of ``D^{-1/2} Lhat D^{-1/2}``, so the Chebyshev expansion of
    ``phi1(tau x)`` on that interval, truncated where the dropped coefficients' moduli sum to
    at most ``atol / (2 ||v||_D)``, meets ``||result - phi1(tau L) v||_D <= atol``. Clenshaw's
    recurrence evaluates it with one ``Lhat`` product per degree. Raises ``ValueError`` on a
    non-finite ``v`` or ``Lhat``.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if not 0 <= mu < math.inf:
        raise ValueError("mu must be nonnegative and finite")
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("lumped weights must be strictly positive")
    v = np.asarray(v, dtype=complex)
    dh = np.sqrt(d)
    vnorm = math.sqrt(float(d @ np.abs(v) ** 2))
    if not math.isfinite(vnorm):
        raise ValueError("v is not finite")
    g = float((abs(Lhat) @ (1.0 / dh) / dh).max())
    if not math.isfinite(g):
        raise ValueError("Lhat is not finite")
    if not atol >= 0:
        raise ValueError("atol must be nonnegative")
    if vnorm == 0.0:
        return np.zeros(len(v), dtype=complex)
    if g == 0.0:
        return phi1(-tau * mu) * v

    a = _phi1_chebyshev(tau, -(g + mu), -mu, atol / vnorm)
    # X = I + (2 / g) D^{-1} Lhat is L with [-(g + mu), -mu] mapped onto [-1, 1]
    scale = 2.0 / (g * d)
    b1, b2 = np.zeros_like(v), np.zeros_like(v)
    for ak in a[:0:-1]:
        b1, b2 = 2.0 * (b1 + scale * (Lhat @ b1)) - b2 + ak * v, b1
    return a[0] * v + b1 + scale * (Lhat @ b1) - b2
