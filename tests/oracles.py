"""Reference paths that only the tests use: the dense ``phi`` oracle, the
random-vector audit of ``L = D^{-1} Lhat - mu I``, the edge interpolant,
the quadrature form of every assembly kernel, the sparsity patterns and
scatters built by sorting every cell entry, and the mesh audit taken over
every angle.

Not collected by pytest; the tests import it as ``from oracles import ...``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tdglfem.fem import CsrPattern
from tdglfem.mesh import ANGLE_TOL, MeshAudit
from tdglfem.quadrature import POINTS, WEIGHTS


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


# ---------------------------------------------------------------------------
# quadrature references of the assembly kernels
#
# Each kernel the direct way: fields at the six points of the degree-4 rule
# through a dense per-cell dof-to-corner map, integrated point by point, and
# summed into a sparse matrix by scipy.


def _geometry(mesh):
    """Barycentric gradients (nc, 3, 2), edge dofs (nc, 6), the dense dof-to-corner
    map (nc, 6, 6) with rows (corner, component), the quadrature points
    (nc, nq, 2) and ``area * weight`` (nc, nq)."""
    cells, nc = mesh.cells, mesh.num_cells
    p = mesh.vertices[cells]
    area = mesh.cell_areas
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    grads = np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]

    eid = mesh.cell_edges
    tang = mesh.edge_tangents[eid]
    lo = mesh.edges[eid, 0]
    dofs = np.empty((nc, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * eid
    dofs[:, 1::2] = 2 * eid + 1
    cmap = np.zeros((nc, 6, 6))
    idx = np.arange(nc)
    for v, (j1, j2) in enumerate(((0, 2), (0, 1), (1, 2))):
        t1, t2 = tang[:, j1], tang[:, j2]
        det = t1[:, 0] * t2[:, 1] - t1[:, 1] * t2[:, 0]
        d1 = 2 * j1 + (cells[:, v] != lo[:, j1])
        d2 = 2 * j2 + (cells[:, v] != lo[:, j2])
        cmap[idx, 2 * v, d1] = t2[:, 1] / det
        cmap[idx, 2 * v, d2] = -t1[:, 1] / det
        cmap[idx, 2 * v + 1, d1] = -t2[:, 0] / det
        cmap[idx, 2 * v + 1, d2] = t1[:, 0] / det
    qpts = np.einsum("qv,cvx->cqx", POINTS, p)
    return grads, dofs, cmap, qpts, area[:, None] * WEIGHTS


def _assemble(index, local, n):
    rows = np.broadcast_to(index[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(index[:, None, :], local.shape).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _load(index, local, n):
    return np.bincount(index.ravel(), weights=local.ravel(), minlength=n)


def _eval_q(cmap):
    """Test fields at the quadrature points: ``[c, q, a, i]``."""
    return np.einsum("qv,cvai->cqai", POINTS, cmap.reshape(len(cmap), 3, 2, 6))


def _curl_coeff(mesh):
    """Per-cell rows ``curl = curl_coeff[c] @ u[dofs[c]]``, (nc, 6)."""
    grads, dofs, cmap, _, _ = _geometry(mesh)
    r = np.empty((len(dofs), 6))
    r[:, 0::2] = -grads[:, :, 1]
    r[:, 1::2] = grads[:, :, 0]
    return np.einsum("ck,cki->ci", r, cmap)


def edge_at_quad(mesh, u):
    """Edge field at the quadrature points (nc, nq, 2) and its per-cell curls."""
    _, dofs, cmap, _, _ = _geometry(mesh)
    uloc = np.asarray(u, dtype=float)[dofs]
    curls = np.einsum("ci,ci->c", _curl_coeff(mesh), uloc)
    return np.einsum("cqai,ci->cqa", _eval_q(cmap), uloc), curls


def nodal_at_quad(mesh, psi):
    """Nodal field at the quadrature points (nc, nq) and its per-cell gradients (nc, 2)."""
    grads = _geometry(mesh)[0]
    ploc = np.asarray(psi, dtype=complex)[mesh.cells]
    return np.einsum("qv,cv->cq", POINTS, ploc), np.einsum("cvx,cv->cx", grads, ploc)


def quadrature_Lhat(mesh, A, kappa):
    grads, _, _, _, wdx = _geometry(mesh)
    A_q, _ = edge_at_quad(mesh, A)
    stiff = np.einsum("c,cvx,cwx->cvw", mesh.cell_areas, grads, grads)
    mass = np.einsum("cq,qv,qw->cvw", wdx * np.einsum("cqa,cqa->cq", A_q, A_q), POINTS, POINTS)
    ivals = np.einsum("cq,qv,cqa->cva", wdx, POINTS, A_q)
    flow = np.einsum("cwa,cva->cvw", ivals, grads)
    local = -stiff / kappa**2 - mass + (1j / kappa) * (flow - flow.transpose(0, 2, 1))
    return _assemble(mesh.cells, local, mesh.num_vertices)


def quadrature_edge_mass(mesh, w_q):
    """``(w field, testfield)`` on the edge space for a scalar ``w`` at the quadrature points."""
    _, dofs, cmap, _, wdx = _geometry(mesh)
    ev = _eval_q(cmap)
    local = np.einsum("cq,cqai,cqaj->cij", wdx * w_q, ev, ev)
    return _assemble(dofs, local, 2 * mesh.num_edges)


def quadrature_curl_curl(mesh):
    cc = _curl_coeff(mesh)
    local = mesh.cell_areas[:, None, None] * cc[:, :, None] * cc[:, None, :]
    return _assemble(_geometry(mesh)[1], local, 2 * mesh.num_edges)


def quadrature_A_system(mesh, psi, sigma, tau):
    psi_q, _ = nodal_at_quad(mesh, psi)
    return (
        (sigma / tau) * quadrature_edge_mass(mesh, 1.0)
        + quadrature_curl_curl(mesh)
        + quadrature_edge_mass(mesh, np.abs(psi_q) ** 2)
    )


def _vector_load(mesh, F_q):
    _, dofs, cmap, _, wdx = _geometry(mesh)
    local = np.einsum("cqa,cqai->ci", wdx[:, :, None] * F_q, _eval_q(cmap))
    return _load(dofs, local, 2 * mesh.num_edges)


def _curl_load(mesh, h):
    _, dofs, _, qpts, wdx = _geometry(mesh)
    h_q = h(qpts[..., 0], qpts[..., 1]) if callable(h) else np.full_like(wdx, h)
    return _load(dofs, (wdx * h_q).sum(axis=1)[:, None] * _curl_coeff(mesh), 2 * mesh.num_edges)


def _at_quad(mesh, func):
    x, y = _geometry(mesh)[3].transpose(2, 0, 1)
    fx, fy, _ = np.broadcast_arrays(*func(x, y), x)
    return np.stack([fx, fy], axis=-1)


def quadrature_A_rhs(mesh, psi, A_prev, H, kappa, sigma, tau, t, forcing=None):
    vals, grad = nodal_at_quad(mesh, psi)
    supercurrent = (-1.0 / kappa) * (np.conj(vals)[:, :, None] * grad[:, None, :]).imag
    rhs = (sigma / tau) * (quadrature_edge_mass(mesh, 1.0) @ A_prev)
    rhs = rhs + _curl_load(mesh, (lambda x, y: H(x, y, t)) if callable(H) else H)
    rhs = rhs - _vector_load(mesh, supercurrent)
    if forcing is not None:
        rhs = rhs + _vector_load(mesh, _at_quad(mesh, lambda x, y: forcing(x, y, t)))
    return rhs


def quadrature_ritz_load(mesh, A_func, curl_func):
    """Right-hand side of the Ritz projection: ``(curl_func, curl B) + (A_func, B)``."""
    return _vector_load(mesh, _at_quad(mesh, A_func)) + _curl_load(mesh, curl_func)


# ---------------------------------------------------------------------------
# sparsity patterns and scatters by sorting every cell entry


def csr_pattern_of_entries(rows, cols, n):
    """The CSR pattern of per-cell entry arrays, and each entry's slot in its
    sorted storage: ``np.unique(keys, return_inverse=True)`` by one stable
    sort and a cumsum."""
    keys = np.ravel(rows).astype(np.int64) * n + np.ravel(cols)
    order = np.argsort(keys, kind="stable")
    first = np.r_[True, np.diff(keys[order]) != 0]
    slots = np.empty_like(order)
    slots[order] = np.cumsum(first) - 1
    ukeys = keys[order[first]]
    indices = (ukeys % n).astype(np.int32)
    indptr = np.searchsorted(ukeys, np.arange(n + 1) * n).astype(np.int32)
    return CsrPattern(indices, indptr, n), slots


def entry_sorted_layout(mesh, ops):
    """The nodal and edge patterns, the nodal and mass scatters and the
    curl-curl data of ``ops = fem._MeshOps(mesh)``, with every slot found by
    :func:`csr_pattern_of_entries`. The per-entry values are ``ops``'s own
    (the scatters' data, the per-cell curl rows), so this checks the slots."""
    cells, nc = mesh.cells, mesh.num_cells
    nodal, slots = csr_pattern_of_entries(np.repeat(cells, 3, axis=1), np.tile(cells, 3),
                                          mesh.num_vertices)
    nodal_scatter = sp.csc_matrix(
        (ops._nodal_scatter.data, slots.reshape(nc, 9).T.ravel(), ops._nodal_scatter.indptr),
        shape=(nodal.nnz, 9 * nc),
    )

    eid, lo = mesh.cell_edges, mesh.edges[mesh.cell_edges, 0]
    dofs = np.stack([2 * eid, 2 * eid + 1], axis=2).reshape(-1, 6)
    edge, slots = csr_pattern_of_entries(np.repeat(dofs, 6, axis=1), np.tile(dofs, 6),
                                         2 * mesh.num_edges)
    slots = slots.reshape(nc, 6, 6)
    # the local dof of each (corner, side), (3, nc, 2); the scatter's layout is (v, w, c, s, r)
    at = np.stack([np.stack([2 * j + (cells[:, v] != lo[:, j]) for j in pair], axis=1)
                   for v, pair in enumerate(((0, 2), (0, 1), (1, 2)))])
    cell = np.arange(nc)[None, None, :, None, None]
    mass_slots = slots[cell, at[:, None, :, :, None], at[None, :, :, None, :]]
    mass_scatter = sp.csc_matrix(
        (ops._mass_scatter.data, mass_slots.ravel(), ops._mass_scatter.indptr),
        shape=(edge.nnz, 9 * nc),
    )
    rows = ops.curl.data.reshape(nc, 6)  # each cell's curl row, in its local dof order
    local = mesh.cell_areas[:, None, None] * rows[:, :, None] * rows[:, None, :]
    curl_data = np.bincount(slots.ravel(), weights=local.ravel(), minlength=edge.nnz)
    return nodal, nodal_scatter, edge, mass_scatter, curl_data


# ---------------------------------------------------------------------------
# the mesh audit over every angle


def triangle_angles(mesh):
    """Interior angles in radians, shape (nc, 3), ordered as the cell vertices."""
    p = mesh.vertices[mesh.cells]  # (nc, 3, 2)
    angles = np.empty((mesh.num_cells, 3))
    for v in range(3):
        u1 = p[:, (v + 1) % 3] - p[:, v]
        u2 = p[:, (v + 2) % 3] - p[:, v]
        cosv = np.einsum("cx,cx->c", u1, u2)
        cosv /= np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1)
        angles[:, v] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return angles


def audit_every_angle(mesh):
    """``mesh.audit_mesh`` with every angle taken to its arccos."""
    angles = triangle_angles(mesh)
    amin = float(angles.min())
    amax = float(angles.max())
    right = np.pi / 2
    p = mesh.vertices[mesh.cells]
    sides = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)
    diam = sides.max(axis=1)
    return MeshAudit(
        min_angle_deg=float(np.degrees(amin)),
        max_angle_deg=float(np.degrees(amax)),
        strictly_acute=bool(amax < right - ANGLE_TOL),
        weakly_acute=bool(amax <= right + ANGLE_TOL),
        quasi_uniformity_ratio=float(diam.max() / diam.min()),
    )
