"""Discrete spaces and assembly on a fixed triangulation.

Two spaces are used throughout:

* the nodal space: complex piecewise-linear scalars, one dof per vertex,
  with the *lumped* inner product ``(V, W) = sum_i d_i V_i conj(W_i)`` where
  ``d_i`` collects one third of the area of each cell touching vertex ``i``;
* the edge space: vector fields that are full linears inside every cell and
  tangentially continuous across edges, with two dofs per edge, namely the
  tangential component at each endpoint (tangent oriented from the lower to
  the higher vertex index, dof order ``[2e] = lo``, ``[2e+1] = hi``).

Inside a cell an edge-space field is reconstructed from its six dofs by
solving, at each corner, the 2x2 system formed by the two incident edge
tangents; the curl is constant per cell.

Assembly is vectorized over cells, with the cell index last in every
per-cell array. The quadrature is exact for every form, so each local
matrix is a fixed linear map of a few products of a cell's corner values
(the tensor representation of Kirby & Logg, ACM TOMS 2006), and a time
level assembles each form in four fixed operations: one sparse
dof-to-corner product; per-cell products of corner values (``a_k . a_l``
for the field, ``Re(psi_k conj(psi_l))``, ``Im(conj(psi_k) grad psi)``);
one GEMM against a reference tensor of the unit cell, ``M2 =
integral(lam_k lam_l)`` or ``T4 = integral(lam_k lam_l lam_v lam_w)``; and
one fixed sparse scatter into the CSR data. Each edge dof sits at one
corner, so a weighted edge mass has the entries ``W[v(i), v(j)] (t_i .
t_j)``, with ``W`` the cell's 3x3 nodal weights and ``t`` the dual basis of
the edge tangents at the corner. The maps, scatters and sparsity patterns
are built once per mesh and cached (keyed on mesh identity).

The edge-space solves (the vector-potential step and the Ritz projection)
are preconditioned with ``P_c = c diag(M) + K``. The curl-curl matrix
``K = C^T D C`` has rank at most ``n_cells`` (``C`` holds the per-cell curl
rows, ``D`` the cell areas), so the Woodbury identity reduces ``P_c^{-1}``
to one SPD solve with ``G_c = D^{-1} + (1/c) C diag(M)^{-1} C^T`` on the
cells. ``G_c`` couples only cells that share an edge; numbered by
Cuthill-McKee it is banded and is factored with LAPACK's banded Cholesky.
Where a cost rule finds them too dear, vertex-block Jacobi is used: the
blocks of ``c M + K`` over the dofs at each vertex (each dof sits at one),
inverted once per ``c`` into one block-diagonal CSR matrix.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .mesh import Mesh
from .quadrature import POINTS, WEIGHTS

__all__ = [
    "CsrPattern",
    "lumped_mass",
    "assemble_Lhat",
    "assemble_A_system",
    "assemble_A_rhs",
    "ritz_projection",
    "A_system_preconditioner",
    "interpolate_nodal",
    "curl_values",
    "corner_values",
    "edge_max_norm",
    "evaluate_edge",
    "evaluate_nodal",
    "quadrature_info",
    "scalar_at_quad",
    "num_edge_dofs",
]


class CsrPattern:
    """Frozen CSR sparsity of per-cell entry arrays.

    ``_inv`` maps each entry, in the order handed to ``__init__``, to its
    slot in the canonical sorted CSR storage; ``sum_duplicates`` reduces
    values with equal (row, col) through ``np.bincount``, which is
    deterministic.
    """

    def __init__(self, rows, cols, n):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        keys = rows * n + cols
        ukeys, inv = np.unique(keys, return_inverse=True)
        self._inv = inv
        self.nnz = len(ukeys)
        self.shape = (n, n)
        self.indices = (ukeys % n).astype(np.int32)
        counts = np.bincount((ukeys // n).astype(np.int64), minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr

    def sum_duplicates(self, values) -> np.ndarray:
        return np.bincount(self._inv, weights=np.ravel(values), minlength=self.nnz)

    def csr_from_data(self, data) -> sp.csr_matrix:
        """Wrap already-reduced data (length ``nnz``) without copying."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


#: reference tensors of a unit-area cell, from the one quadrature rule:
#: ``_M2[k, l] = integral(lam_k lam_l)`` and ``_T4[kl, vw] = integral(lam_k lam_l lam_v lam_w)``
_M2 = np.einsum("q,qk,ql->kl", WEIGHTS, POINTS, POINTS)
_T4 = np.einsum("q,qk,ql,qv,qw->klvw", WEIGHTS, POINTS, POINTS, POINTS, POINTS).reshape(9, 9)


def _gram(x, y) -> np.ndarray:
    """Products ``x_k x_l + y_k y_l`` of two (3, nc) rows of corner values, as (9, nc)."""
    return (x[:, None] * x[None, :] + y[:, None] * y[None, :]).reshape(9, -1)


class _MeshOps:
    """Per-mesh precomputed geometry, dof-to-corner map and CSR scatters.

    Per-cell arrays keep the cell index last, so that the per-step products
    run over long contiguous rows: corner values are (component, corner,
    cell), and the scatters read per-cell 3x3 entries as (row, column, cell).
    """

    #: local edges meeting at each local vertex
    _INCIDENT = ((0, 2), (0, 1), (1, 2))

    #: ``(c, banded Cholesky factor of G_c)`` for the latest ``c``
    _cell_factor = None

    #: ``(c, block-diagonal CSR inverse of the vertex blocks of c M + K)`` for the latest ``c``
    _block_inverse = None

    def __init__(self, mesh: Mesh):
        # arrays only: a reference to the mesh would keep it alive as a cache key
        cells = mesh.cells
        self.corner_vertices = np.ascontiguousarray(cells.T)  # (3, nc)
        self.cell_edges = mesh.cell_edges
        nc = mesh.num_cells
        p = mesh.vertices[cells]  # (nc, 3, 2)
        self.area = np.asarray(mesh.cell_areas)

        # gradients of the barycentric basis, (2, 3, nc)
        b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
        c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
        self.grads = np.stack([b.T, c.T]) / (2.0 * self.area)

        self.qpts = np.tensordot(p, POINTS, axes=(1, 1)).transpose(0, 2, 1)  # (nc, nq, 2)
        self.wdx = self.area[:, None] * WEIGHTS[None, :]  # (nc, nq)

        # nodal space ----------------------------------------------------
        nv = mesh.num_vertices
        self.d = np.bincount(
            cells.ravel(), weights=np.repeat(self.area / 3.0, 3), minlength=nv
        )
        rows3 = np.broadcast_to(cells[:, :, None], (nc, 3, 3))
        cols3 = np.broadcast_to(cells[:, None, :], (nc, 3, 3))
        self.nodal_pattern = CsrPattern(rows3, cols3, nv)
        # per-cell 3x3 entries per unit area, (3, 3, nc), -> CSR data
        slots = self.nodal_pattern._inv.reshape(nc, 9).T.ravel()
        self._nodal_scatter = sp.csc_matrix(
            (np.tile(self.area, 9), slots, np.arange(9 * nc + 1)), shape=(self.nodal_pattern.nnz, 9 * nc)
        )
        self._stiff_data = self._nodal_scatter @ _gram(*self.grads).ravel()

        # edge space -------------------------------------------------------
        eid = mesh.cell_edges  # (nc, 3)
        tang = mesh.edge_tangents[eid]  # (nc, 3, 2)
        lo_vertex = mesh.edges[eid, 0].T  # (3, nc)

        dofs = np.empty((nc, 6), dtype=np.int64)
        dofs[:, 0::2] = 2 * eid
        dofs[:, 1::2] = 2 * eid + 1
        self.cell_dofs = dofs

        # each local dof sits at one corner: ``at[v]`` holds the two local dofs at
        # corner v, (3, 2, nc), and the field's vector there is
        # sum_s u[at[v, s]] dual[:, v, s], with ``dual`` (2, 3, 2, nc) the dual
        # basis of the two edge tangents meeting at v
        tx, ty = tang.T  # (3, nc) each
        at = np.empty((3, 2, nc), dtype=np.int64)
        dual = np.empty((2, 3, 2, nc))
        for v, (j1, j2) in enumerate(self._INCIDENT):
            det = tx[j1] * ty[j2] - ty[j1] * tx[j2]
            at[v, 0] = 2 * j1 + (self.corner_vertices[v] != lo_vertex[j1])
            at[v, 1] = 2 * j2 + (self.corner_vertices[v] != lo_vertex[j2])
            dual[:, v] = np.array([[ty[j2], -ty[j1]], [-tx[j2], tx[j1]]]) / det

        self.n_edge_dofs = n = 2 * mesh.num_edges
        cell = np.arange(nc)
        # dof -> corner vectors, rows ordered (component, corner, cell)
        self.cmap = sp.csr_matrix(
            (
                dual.transpose(0, 1, 3, 2).ravel(),
                np.broadcast_to(dofs[cell, at].transpose(0, 2, 1), (2, 3, nc, 2)).ravel(),
                np.arange(0, 12 * nc + 1, 2),
            ),
            shape=(6 * nc, n),
        )

        # curl is constant per cell: sum_v grad(lam_v) x (corner vector v)
        gx, gy = self.grads[:, :, None]
        self.curl_coeff = np.empty((nc, 6))
        self.curl_coeff[cell, at] = gx * dual[1] - gy * dual[0]
        self.curl = sp.csr_matrix(
            (self.curl_coeff.ravel(), dofs.ravel(), np.arange(0, 6 * nc + 1, 6)), shape=(nc, n)
        )

        self.dof_vertex = mesh.edges.ravel()  # dof 2e sits at edges[e, 0], 2e+1 at edges[e, 1]
        rows6 = np.broadcast_to(dofs[:, :, None], (nc, 6, 6))
        cols6 = np.broadcast_to(dofs[:, None, :], (nc, 6, 6))
        self.edge_pattern = CsrPattern(rows6, cols6, n)
        # weighted edge mass: entry (i, j) of a cell is W[v(i), v(j)] (dual_i . dual_j)
        # for its nodal weights W, so the scatter's column (v, w, c) feeds the
        # four dof pairs (s, r) at corners v and w
        slots = np.empty((3, 3, nc, 2, 2), dtype=np.int32)
        dots = np.empty((3, 3, nc, 2, 2))
        for s, r in np.ndindex(2, 2):
            local = 36 * cell + 6 * at[:, None, s] + at[None, :, r]
            slots[..., s, r] = self.edge_pattern._inv[local]
            dots[..., s, r] = self.area * sum(d[:, None, s] * d[None, :, r] for d in dual)
        self._mass_scatter = sp.csc_matrix(
            (dots.ravel(), slots.ravel(), np.arange(0, 36 * nc + 1, 4, dtype=np.int32)),
            shape=(self.edge_pattern.nnz, 9 * nc),
        )
        self._edge_mass_data = self._mass_scatter @ np.repeat(_M2.ravel(), nc)
        self.mass = self.edge_pattern.csr_from_data(self._edge_mass_data)
        curl_local = (
            self.area[:, None, None]
            * self.curl_coeff[:, :, None]
            * self.curl_coeff[:, None, :]
        )
        self._curl_data = self.edge_pattern.sum_duplicates(curl_local)

    # -- per-cell evaluation ---------------------------------------------------

    def corners(self, u) -> np.ndarray:
        """Edge-space field at the cell corners, (2, 3, nc)."""
        return (self.cmap @ u).reshape(2, 3, -1)

    def gradients(self, p) -> np.ndarray:
        """Per-cell gradients, (2, nc), of nodal fields with corner values ``p``, (3, nc)."""
        return (self.grads * p).sum(axis=1)

    def moments(self, F_q) -> np.ndarray:
        """``integral(F_a lam_v)``, (2, 3, nc), of a vector field given at the
        quadrature points as (2, nc, nq); ``cmap.T`` takes them to the load."""
        m = ((self.wdx * F_q).reshape(-1, len(WEIGHTS)) @ POINTS).reshape(2, -1, 3)
        return m.transpose(0, 2, 1)

    def curl_load(self, h_q) -> np.ndarray:
        """``integral(h curl(testfield))`` for every dof, for a scalar at the quadrature points."""
        return self.curl.T @ (self.area * (h_q @ WEIGHTS))

    # -- curl-exact preconditioner -------------------------------------------

    @cached_property
    def _mass_diag(self) -> np.ndarray:
        return self.mass.diagonal()

    @cached_property
    def _curl_mass_trace_ratio(self) -> float:
        curl_trace = self.edge_pattern.csr_from_data(self._curl_data).diagonal().sum()
        return float(curl_trace / self._mass_diag.sum())

    @cached_property
    def _cell_numbering(self):
        """Cuthill-McKee position of every cell, and the bandwidth of ``G_c``."""
        a, b, *_ = _shared_edges(self.cell_edges)
        pos = _cuthill_mckee(len(self.area), a, b)
        return pos, int(np.abs(pos[a] - pos[b]).max(initial=0))

    def cell_space_pays(self, s: float) -> bool:
        """Whether the cell-space solve beats Jacobi on ``s M + K (+ M_w)``.

        Jacobi-CG needs about ``sqrt(1 + rho)`` times the iterations of the
        cell-space PCG, ``rho = tr(K) / (s tr(M))``; each PCG iteration costs
        about ``1 + 4 n_cells (bw + 1) / nnz`` Jacobi iterations (two banded
        triangular solves against one matrix product).
        """
        rho = self._curl_mass_trace_ratio / s
        bw = self._cell_numbering[1]
        work = 1.0 + 4.0 * len(self.area) * (bw + 1) / self.edge_pattern.nnz
        return math.sqrt(1.0 + rho) > work

    @cached_property
    def _cell_band(self):
        """Cells in Cuthill-McKee order, and ``C diag(M)^{-1} C^T`` in band layout."""
        pos, bw = self._cell_numbering
        order = np.argsort(pos)
        coeff, dofs = self.curl_coeff[order], self.cell_dofs[order]
        inv_m = 1.0 / self._mass_diag
        diag = np.einsum("ci,ci->c", coeff * coeff, inv_m[dofs])
        a, b, e, la, lb = _shared_edges(self.cell_edges)
        off = sum(
            self.curl_coeff[a, 2 * la + k] * self.curl_coeff[b, 2 * lb + k] * inv_m[2 * e + k]
            for k in (0, 1)
        )
        pa, pb = pos[a], pos[b]
        band_index = (np.abs(pa - pb), np.minimum(pa, pb))
        return coeff, dofs, 1.0 / self.area[order], diag, off, band_index, bw

    def cell_space_preconditioner(self, c: float):
        """``r -> P_c^{-1} r`` for ``P_c = c diag(M) + K``, through ``G_c``.

        The banded factor of the latest ``c`` is kept; another ``c`` refactors.
        """
        coeff, dofs, inv_area, diag, off, band_index, bw = self._cell_band
        if self._cell_factor is None or self._cell_factor[0] != c:
            ab = np.zeros((bw + 1, len(inv_area)))
            ab[0] = inv_area + diag / c
            ab[band_index] = off / c
            factor, info = _pbtrf(ab, lower=1, overwrite_ab=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"banded Cholesky of G_c failed (info={info})")
            self._cell_factor = (c, factor)
        factor = self._cell_factor[1]
        inv_cm = 1.0 / (c * self._mass_diag)
        n = self.n_edge_dofs
        flat_dofs = dofs.ravel()

        def apply(r):
            y = r * inv_cm
            w, _ = _pbtrs(factor, np.einsum("ci,ci->c", coeff, y[dofs]), lower=1)
            back = np.bincount(flat_dofs, weights=(coeff * w[:, None]).ravel(), minlength=n)
            return (r - back) * inv_cm

        return apply

    @cached_property
    def _vertex_blocks(self):
        """CSR positions of the vertex-block entries of ``c M + K`` and their flat
        slots in an identity-padded ``(n_vertices, b, b)`` stack; the int32 CSR
        layout of the inverse with the stack slot of each entry. Each row holds
        its whole block, as the inverse fills in dof pairs that share no cell."""
        vertex, n = self.dof_vertex, self.n_edge_dofs
        order = np.argsort(vertex, kind="stable")
        count = np.bincount(vertex)
        start = np.cumsum(count) - count
        slot = np.empty(n, dtype=np.int64)
        slot[order] = np.arange(n) - start[vertex[order]]
        b = int(count.max())

        at = vertex[self.cell_dofs]
        same = at[:, :, None] == at[:, None, :]  # local dof pairs at one corner
        rows = np.broadcast_to(self.cell_dofs[:, :, None], same.shape)[same]
        cols = np.broadcast_to(self.cell_dofs[:, None, :], same.shape)[same]
        pos = self.edge_pattern._inv.reshape(same.shape)[same].astype(np.int32)
        fill = ((vertex[rows] * b + slot[rows]) * b + slot[cols]).astype(np.int32)

        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(count[vertex], out=indptr[1:])
        row = np.repeat(np.arange(n), count[vertex])
        k = np.arange(indptr[-1]) - indptr[row]
        indices = order[start[vertex[row]] + k].astype(np.int32)
        take = ((vertex[row] * b + slot[row]) * b + k).astype(np.int32)
        return pos, fill, take, indices, indptr, b

    def vertex_block_preconditioner(self, c: float):
        """``r -> B_c^{-1} r`` for ``B_c`` the vertex-block diagonal of ``c M + K``.

        The inverse of the latest ``c`` is kept; another ``c`` rebuilds it.
        """
        if self._block_inverse is None or self._block_inverse[0] != c:
            pos, fill, take, indices, indptr, b = self._vertex_blocks
            blocks = np.tile(np.eye(b), (len(self.d), 1, 1))
            blocks.reshape(-1)[fill] = c * self._edge_mass_data[pos] + self._curl_data[pos]
            data = np.linalg.inv(blocks).reshape(-1)[take]
            n = self.n_edge_dofs
            self._block_inverse = (c, sp.csr_matrix((data, indices, indptr), shape=(n, n)))
        return self._block_inverse[1].dot

    def curl_preconditioner(self, s: float, c: float):
        """``P_c^{-1}`` for a system between ``s M + K`` and ``(2c - s) M + K``,
        or vertex-block Jacobi on ``c M + K`` where :meth:`cell_space_pays`
        finds the cell-space solve too dear."""
        if self.cell_space_pays(s):
            return self.cell_space_preconditioner(c)
        return self.vertex_block_preconditioner(c)


_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"))


def _shared_edges(cell_edges):
    """Cell pairs ``(a, b)`` sharing edge ``e``, and its local index in each."""
    flat = cell_edges.ravel()
    order = np.argsort(flat, kind="stable")
    e = flat[order]
    pair = np.flatnonzero(e[1:] == e[:-1])
    first, second = order[pair], order[pair + 1]
    return first // 3, second // 3, e[pair], first % 3, second % 3


def _cuthill_mckee(n: int, a, b) -> np.ndarray:
    """Cuthill-McKee position of each node of the graph with edges ``(a, b)``.

    Each connected part is numbered breadth first from a pseudo-peripheral
    node (the last node reached from a minimum-degree start). The nodes of
    a level follow their earliest-numbered neighbour in the level before,
    then increasing degree, then index.
    """
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    by_src = np.argsort(src, kind="stable")
    nbrs = dst[by_src]
    degree = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])

    def number_from(start, pos, count):
        pos[start] = count
        count += 1
        level = np.array([start])
        while True:
            counts = degree[level]
            gather = np.repeat(indptr[level] - np.cumsum(counts) + counts, counts)
            cand = nbrs[gather + np.arange(len(gather))]
            parent = np.repeat(np.arange(len(level)), counts)
            fresh = pos[cand] < 0
            cand, parent = cand[fresh], parent[fresh]
            if not len(cand):
                return count, int(level[-1])
            cand = cand[np.lexsort((cand, degree[cand], parent))]
            _, first = np.unique(cand, return_index=True)
            level = cand[np.sort(first)]
            pos[level] = np.arange(count, count + len(level))
            count += len(level)

    pos = np.full(n, -1, dtype=np.int64)
    count = 0
    while count < n:
        free = np.flatnonzero(pos < 0)
        start = int(free[np.argmin(degree[free])])
        _, far = number_from(start, pos.copy(), count)
        count, _ = number_from(far, pos, count)
    return pos


_OPS_CACHE: "weakref.WeakKeyDictionary[Mesh, _MeshOps]" = weakref.WeakKeyDictionary()


def _ops(mesh: Mesh) -> _MeshOps:
    ops = _OPS_CACHE.get(mesh)
    if ops is None:
        ops = _MeshOps(mesh)
        _OPS_CACHE[mesh] = ops
    return ops


# ---------------------------------------------------------------------------
# public assembly surface


def num_edge_dofs(mesh: Mesh) -> int:
    return 2 * mesh.num_edges


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Lumped nodal weights ``d_i`` (one third of the adjacent cell areas)."""
    return _ops(mesh).d.copy()


def assemble_Lhat(mesh: Mesh, A, kappa: float) -> sp.csr_matrix:
    """Hermitian nodal operator of the covariant form, frozen at field ``A``.

    ``Lhat[i, j] = -(1/kappa^2) integral(grad phi_j . grad phi_i)
    - integral(|A|^2 phi_i phi_j)
    + (i/kappa) integral(A . (phi_j grad phi_i - phi_i grad phi_j))``

    so that ``-conj(Psi) @ Lhat @ Psi`` equals the covariant seminorm
    ``||((i/kappa) grad + A) psi||^2`` of the nodal interpolant with values
    ``Psi`` (the quadrature is exact at this polynomial degree). A time step
    assembles it once per level: the exponential step applies it and the
    recorded energy reads its covariant part off it.
    """
    ops = _ops(mesh)
    ax, ay = ops.corners(np.asarray(A, dtype=float))
    gx, gy = ops.grads
    # flow[v, w] = integral((A . grad lam_v) lam_w) per unit area
    flow = _M2 @ (gx[:, None] * ax[None, :] + gy[:, None] * ay[None, :])
    local = np.empty(flow.shape, dtype=complex)
    local.real = -(_T4 @ _gram(ax, ay)).reshape(flow.shape)
    local.imag = (flow - flow.transpose(1, 0, 2)) / kappa
    data = (ops._nodal_scatter @ local.view(float).reshape(-1, 2)).view(complex).ravel()
    return ops.nodal_pattern.csr_from_data(data - ops._stiff_data / kappa**2)


def assemble_A_system(mesh: Mesh, psi, sigma: float, tau: float) -> sp.csr_matrix:
    """SPD matrix of the implicit vector-potential step.

    ``(sigma/tau) mass + curlcurl + mass weighted by |psi|^2`` on the edge
    space, with ``psi`` the nodal order parameter frozen from the previous
    time level.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    ops = _ops(mesh)
    p = np.asarray(psi, dtype=complex)[ops.corner_vertices]
    weights = _T4 @ _gram(p.real, p.imag)  # integral(|psi|^2 lam_v lam_w) per unit area
    data = (
        (sigma / tau) * ops._edge_mass_data
        + ops._curl_data
        + ops._mass_scatter @ weights.ravel()
    )
    return ops.edge_pattern.csr_from_data(data)


def scalar_at_quad(mesh: Mesh, value, *args) -> np.ndarray:
    """Constant or callable ``f(x, y, *args)`` at the quadrature points, (nc, nq)."""
    ops = _ops(mesh)
    if callable(value):
        out = value(ops.qpts[:, :, 0], ops.qpts[:, :, 1], *args)
        return np.broadcast_to(np.asarray(out, dtype=float), ops.wdx.shape)
    return np.full_like(ops.wdx, float(value))


def _vector_at_quad(ops: _MeshOps, func, *args) -> np.ndarray:
    """Callable ``f(x, y, *args) -> (fx, fy)`` at the quadrature points, (2, nc, nq)."""
    x, y = ops.qpts[:, :, 0], ops.qpts[:, :, 1]
    return np.array(np.broadcast_arrays(*func(x, y, *args), x)[:2], dtype=float)


def assemble_A_rhs(
    mesh: Mesh,
    psi,
    A_prev,
    H,
    kappa: float,
    sigma: float,
    tau: float,
    t: float,
    forcing=None,
) -> np.ndarray:
    """Right-hand side of the implicit vector-potential step at time ``t``.

    ``(sigma/tau) mass @ A_prev + integral(H curl(test))
    - integral(supercurrent . test) + integral(forcing . test)``

    with supercurrent ``-(1/kappa) Im(conj(psi) grad psi)`` taken at the
    previous time level. ``H`` is a constant or a callable ``(x, y, t)``;
    ``forcing``, when given, is a callable returning the two components.
    """
    ops = _ops(mesh)
    p = np.asarray(psi, dtype=complex)[ops.corner_vertices]
    # minus the supercurrent's moments: (1/kappa) sum_k M2[v, k] Im(conj(psi_k) grad_a psi)
    pm = (_M2 @ p) * (ops.area / kappa)
    moments = (ops.gradients(p)[:, None] * np.conj(pm)).imag
    if forcing is not None:
        moments += ops.moments(_vector_at_quad(ops, forcing, t))
    rhs = (sigma / tau) * (ops.mass @ np.asarray(A_prev, dtype=float))
    return rhs + ops.curl_load(scalar_at_quad(mesh, H, t)) + ops.cmap.T @ moments.ravel()


def ritz_projection(mesh: Mesh, A_func, curl_func) -> np.ndarray:
    """Edge-space field closest to ``A_func`` in the curl-plus-mass energy.

    Solves ``(curl u, curl B) + (u, B) = (curl_func, curl B) + (A_func, B)``
    for all test fields ``B``. Both callables take ``(x, y)`` arrays.
    """
    from .linalg import cg_solve

    ops = _ops(mesh)
    rhs = ops.cmap.T @ ops.moments(_vector_at_quad(ops, A_func)).ravel()
    rhs = rhs + ops.curl_load(scalar_at_quad(mesh, curl_func))
    system = ops.edge_pattern.csr_from_data(ops._curl_data + ops._edge_mass_data)
    return cg_solve(system, rhs, precond=ops.curl_preconditioner(1.0, 1.0)).x


def A_system_preconditioner(mesh: Mesh, sigma: float, tau: float):
    """Preconditioner ``r -> P^{-1} r`` for :func:`assemble_A_system`.

    With ``|psi| <= 1`` the system lies between ``(sigma/tau) M + K`` and
    ``(sigma/tau + 1) M + K``. On the built-in meshes ``0.179 diag(M) <= M
    <= 2.76 diag(M)`` at every mesh size, so ``P_c = c diag(M) + K`` at the
    midpoint ``c = sigma/tau + 1/2`` bounds the condition number by ``15.4
    (1 + tau/sigma)``, and PCG takes about 50 iterations. Vertex-block
    Jacobi on ``c M + K`` is returned instead where a deterministic estimate
    of the work, from the mesh and ``sigma/tau``, says the banded cell-space
    solves cost more than they save (see ``_MeshOps.cell_space_pays``).
    """
    return _ops(mesh).curl_preconditioner(sigma / tau, sigma / tau + 0.5)


def interpolate_nodal(mesh: Mesh, f) -> np.ndarray:
    """Nodal interpolant: ``f(x, y)`` evaluated at the vertices."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return np.asarray(f(x, y), dtype=complex) + np.zeros(len(x), dtype=complex)


def curl_values(mesh: Mesh, A) -> np.ndarray:
    """Constant per-cell curl of an edge-space field."""
    return _ops(mesh).curl @ np.asarray(A, dtype=float)


def corner_values(mesh: Mesh, A) -> np.ndarray:
    """Edge-space field at the cell corners, shape (nc, 3, 2)."""
    return _ops(mesh).corners(np.asarray(A, dtype=float)).T


def edge_max_norm(mesh: Mesh, A) -> float:
    """Max pointwise Euclidean norm; linear fields attain it at corners."""
    corners = _ops(mesh).corners(np.asarray(A, dtype=float))
    return float(np.sqrt((corners * corners).sum(axis=0).max(initial=0.0)))


def evaluate_edge(mesh: Mesh, A):
    """Edge field at quadrature points, (nc, nq, 2), plus per-cell curls."""
    ops = _ops(mesh)
    A = np.asarray(A, dtype=float)
    return (POINTS @ ops.corners(A)).T, ops.curl @ A


def evaluate_nodal(mesh: Mesh, psi):
    """Nodal field values at quadrature points, (nc, nq), plus per-cell gradients, (nc, 2)."""
    ops = _ops(mesh)
    p = np.asarray(psi, dtype=complex)[ops.corner_vertices]
    return (POINTS @ p).T, ops.gradients(p).T


def quadrature_info(mesh: Mesh):
    """Quadrature points (nc, nq, 2) and weights-times-area (nc, nq)."""
    ops = _ops(mesh)
    return ops.qpts, ops.wdx
