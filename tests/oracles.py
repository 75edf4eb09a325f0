"""Reference paths that only the tests use: the dense ``phi`` oracle, the
random-vector audit of ``L = D^{-1} Lhat - mu I`` and the edge interpolant.

Not collected by pytest; the tests import it as ``from oracles import ...``.
"""

import math
from dataclasses import dataclass

import numpy as np


def _oracle_phi1(a):
    # deliberately a different evaluation than linalg.phi1(): expm1 is
    # accurate uniformly, no series branch
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


def interpolate_edge(mesh, A_func) -> np.ndarray:
    """Edge interpolant: tangential components of ``A_func`` at edge endpoints.

    Exact for fields that are globally linear.
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    ax, ay = A_func(x, y)
    vert_vals = np.column_stack([np.broadcast_to(ax, x.shape), np.broadcast_to(ay, y.shape)])
    t = mesh.edge_tangents
    u = np.empty(2 * mesh.num_edges)
    u[0::2] = np.einsum("ex,ex->e", vert_vals[mesh.edges[:, 0]], t)
    u[1::2] = np.einsum("ex,ex->e", vert_vals[mesh.edges[:, 1]], t)
    return u
