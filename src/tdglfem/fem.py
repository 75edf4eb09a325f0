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
are built once per mesh and cached (keyed on mesh identity). The patterns
and each cell entry's slot in them come in closed form from the edge table,
as a dof map gives them (Logg, Mardal & Wells, 2012), with no sort of the
cell entries: a nodal row holds the diagonal and the edges at its vertex,
and the rows of edge ``e``'s two dofs hold the dofs of every edge of the one
or two cells at ``e``, in edge order.

Closed-form fields reach the quadrature points only through ``at_quad``, as
(nc, nq) or, components first, (2, nc, nq); ``squared_l2`` integrates them.
``evaluate_edge`` and ``evaluate_nodal`` use the same layout, so differences
broadcast.

The edge-space solves (the vector-potential step and the Ritz projection)
are preconditioned with ``P_c = c diag(M) + K``. The curl-curl matrix
``K = C^T D C`` has rank at most ``n_cells`` (``C`` is the sparse matrix of
per-cell curls, ``D`` the cell areas), so the Woodbury identity reduces
``P_c^{-1}`` to one SPD solve with ``G_c = D^{-1} + (1/c) C diag(M)^{-1}
C^T`` on the cells. The product ``C diag(M)^{-1} C^T`` is formed once, as
a sparse matrix: it couples only cells that share an edge, its pattern
numbers the cells by Cuthill-McKee, and its permuted lower triangle over
``c``, plus ``D^{-1}`` on the diagonal, is the band that LAPACK's banded
Cholesky factors once per ``c``. Applying ``P_c^{-1}`` is then two
products with the permuted ``C`` around one banded solve. Where a cost
rule finds them too dear, vertex-block Jacobi is used: the entries of
``c M + K`` whose two dofs sit at one vertex (each dof sits at one), read
off the edge CSR pattern and inverted once per ``c`` into one
block-diagonal CSR matrix. Every mesh keeps the numbering and its band
width, which the rule reads; the band, ``1/area`` in band order, the
permuted ``C`` and the LAPACK binding are built on the first use of the
cell path (so a run that stays on vertex blocks never imports
``scipy.linalg``), and the vertex-block layout on the first use of the
vertex path. One slot keeps the latest preconditioner with its path and ``c``.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .quadrature import POINTS, WEIGHTS

__all__ = [
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
    "at_quad",
    "squared_l2",
    "num_edge_dofs",
]


class CsrPattern:
    """Frozen CSR layout of an ``n x n`` matrix: ``indices``, ``indptr``,
    ``shape`` and ``nnz``."""

    def __init__(self, indices, indptr, n):
        self.indices, self.indptr = indices, indptr
        self.nnz = len(indices)
        self.shape = (n, n)

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


#: local edges meeting at each local vertex
_INCIDENT = ((0, 2), (0, 1), (1, 2))


class _MeshOps:
    """Per-mesh precomputed geometry, dof-to-corner map and CSR scatters.

    Per-cell arrays keep the cell index last, so that the per-step products
    run over long contiguous rows: corner values are (component, corner,
    cell), and the scatters read per-cell 3x3 entries as (row, column, cell).
    """

    def __init__(self, mesh: Mesh):
        # arrays only: a reference to the mesh would keep it alive as a cache key
        cells = mesh.cells
        self.corner_vertices = np.ascontiguousarray(cells.T)  # (3, nc)
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
        self.nodal_pattern, slots = _nodal_layout(mesh)
        # per-cell 3x3 entries per unit area, (3, 3, nc), -> CSR data
        self._nodal_scatter = sp.csc_matrix(
            (np.tile(self.area, 9), slots.ravel(), np.arange(9 * nc + 1)), shape=(self.nodal_pattern.nnz, 9 * nc)
        )
        self._stiff_data = self._nodal_scatter @ _gram(*self.grads).ravel()

        # edge space -------------------------------------------------------
        eid = mesh.cell_edges  # (nc, 3)
        tang = mesh.edge_tangents[eid]  # (nc, 3, 2)
        lo_vertex = mesh.edges[eid, 0].T  # (3, nc)

        dofs = np.empty((nc, 6), dtype=np.int32)
        dofs[:, 0::2] = 2 * eid
        dofs[:, 1::2] = 2 * eid + 1

        # each local dof sits at one corner: ``at[v]`` holds the two local dofs at
        # corner v, (3, 2, nc), and the field's vector there is
        # sum_s u[at[v, s]] dual[:, v, s], with ``dual`` (2, 3, 2, nc) the dual
        # basis of the two edge tangents meeting at v
        tx, ty = tang.T  # (3, nc) each
        at = np.empty((3, 2, nc), dtype=np.int32)
        dual = np.empty((2, 3, 2, nc))
        for v, (j1, j2) in enumerate(_INCIDENT):
            det = tx[j1] * ty[j2] - ty[j1] * tx[j2]
            at[v, 0] = 2 * j1 + (self.corner_vertices[v] != lo_vertex[j1])
            at[v, 1] = 2 * j2 + (self.corner_vertices[v] != lo_vertex[j2])
            dual[:, v] = np.array([[ty[j2], -ty[j1]], [-tx[j2], tx[j1]]]) / det

        self.n_edge_dofs = n = 2 * mesh.num_edges
        cell = np.arange(nc)
        dof_at = dofs[cell, at]  # (3, 2, nc)
        # dof -> corner vectors, rows ordered (component, corner, cell)
        self.cmap = sp.csr_matrix(
            (
                dual.transpose(0, 1, 3, 2).ravel(),
                np.broadcast_to(dof_at.transpose(0, 2, 1), (2, 3, nc, 2)).ravel(),
                np.arange(0, 12 * nc + 1, 2),
            ),
            shape=(6 * nc, n),
        )
        self.cmap_T = self.cmap.T  # CSC views of the same arrays, so no step rebuilds them

        # curl is constant per cell: sum_v grad(lam_v) x (corner vector v)
        gx, gy = self.grads[:, :, None]
        curl_at = gx * dual[1] - gy * dual[0]  # (3, 2, nc)
        curl_coeff = np.empty((nc, 6))
        curl_coeff[cell, at] = curl_at
        self.curl = sp.csr_matrix(
            (curl_coeff.ravel(), dofs.ravel(), np.arange(0, 6 * nc + 1, 6)), shape=(nc, n)
        )
        self.curl_T = self.curl.T

        self.dof_vertex = mesh.edges.ravel()  # dof 2e sits at edges[e, 0], 2e+1 at edges[e, 1]
        self.edge_pattern, slots = _edge_layout(mesh, dof_at)
        # weighted edge mass: entry (i, j) of a cell is W[v(i), v(j)] (dual_i . dual_j)
        # for its nodal weights W, so the scatter's column (v, w, c) feeds the
        # four dof pairs (s, r) at corners v and w; and the curl-curl entries
        # (area k_i) k_j, in the same layout
        dots, curl_local = np.empty((3, 3, nc, 2, 2)), np.empty((3, 3, nc, 2, 2))
        area_curl = self.area * curl_at
        for s, r in np.ndindex(2, 2):
            dots[..., s, r] = self.area * sum(d[:, None, s] * d[None, :, r] for d in dual)
            np.multiply(area_curl[:, None, s], curl_at[None, :, r], out=curl_local[..., s, r])
        self._mass_scatter = sp.csc_matrix(
            (dots.ravel(), slots.ravel(), np.arange(0, 36 * nc + 1, 4, dtype=np.int32)),
            shape=(self.edge_pattern.nnz, 9 * nc),
        )
        self.mass = self.edge_pattern.csr_from_data(self._mass_scatter @ np.repeat(_M2.ravel(), nc))
        # a slot sums at most two cells' entries, so the order of the sum is immaterial
        self._curl_data = sp.csc_matrix(
            (curl_local.ravel(), self._mass_scatter.indices, self._mass_scatter.indptr),
            shape=self._mass_scatter.shape,
        ) @ np.ones(9 * nc)

    # -- per-cell evaluation ---------------------------------------------------

    def corners(self, u) -> np.ndarray:
        """Edge-space field at the cell corners, (2, 3, nc)."""
        return (self.cmap @ u).reshape(2, 3, -1)

    def gradients(self, p) -> np.ndarray:
        """Per-cell gradients, (2, nc), of nodal fields with corner values ``p``, (3, nc)."""
        return (self.grads * p).sum(axis=1)

    def moments(self, F_q) -> np.ndarray:
        """``integral(F_a lam_v)``, (2, 3, nc), of a vector field given at the
        quadrature points as (2, nc, nq); ``cmap_T`` takes them to the load."""
        m = ((self.wdx * F_q).reshape(-1, len(WEIGHTS)) @ POINTS).reshape(2, -1, 3)
        return m.transpose(0, 2, 1)

    def curl_load(self, h_q) -> np.ndarray:
        """``integral(h curl(testfield))`` for every dof, for a scalar at the quadrature points."""
        return self.curl_T @ (self.area * (h_q @ WEIGHTS))

    # -- curl-exact preconditioner -------------------------------------------

    #: ``(path, c, apply)`` of the latest preconditioner; ``path`` is the builder that made it
    _preconditioner = (None, None, None)

    @cached_property
    def _curl_mass_trace_ratio(self) -> float:
        curl_trace = self.edge_pattern.csr_from_data(self._curl_data).diagonal().sum()
        return float(curl_trace / self.mass.diagonal().sum())

    def _cell_coupling(self) -> sp.csr_matrix:
        """``C diag(M)^{-1} C^T``: the cells that share an edge."""
        return (self.curl @ sp.diags(1.0 / self.mass.diagonal()) @ self.curl_T).tocsr()

    @cached_property
    def _cell_numbering(self):
        """The cells' Cuthill-McKee positions in :meth:`_cell_coupling`, and its band width there."""
        coupling = self._cell_coupling()
        pos = _cuthill_mckee(coupling)
        coupling = coupling.tocoo()
        return pos, int((pos[coupling.row] - pos[coupling.col]).max(initial=0))

    def cell_space_pays(self, s: float) -> bool:
        """Whether the cell path is chosen for ``s M + K (+ M_w)``.

        Point Jacobi-CG needs about ``sqrt(1 + rho)`` times the iterations of
        the cell-space PCG, ``rho = tr(K) / (s tr(M))``; each PCG iteration
        costs about ``1 + 4 n_cells (bw + 1) / nnz`` of its iterations (two
        banded triangular solves against one matrix product). Those constants
        were fitted against point Jacobi, before vertex blocks replaced it, and
        are kept so that every mesh keeps its path; so ``holed_square_mesh(8)``
        at ``tau = 0.2`` takes the vertex blocks, although the cell path is
        faster there (CHANGES.md, the ``FOUND:`` on ``cell_space_pays``).
        """
        rho = self._curl_mass_trace_ratio / s
        bw = self._cell_numbering[1]
        work = 1.0 + 4.0 * len(self.area) * (bw + 1) / self.edge_pattern.nnz
        return math.sqrt(1.0 + rho) > work

    @cached_property
    def _cell_path(self):
        """What only the cell path reads, built on its first use: ``diag(M)``;
        the lower band of :meth:`_cell_coupling` in Cuthill-McKee order, as
        LAPACK band positions and values; ``1/area`` in that order; the curl
        matrix with its rows in that order, and its transpose; and LAPACK's
        ``pbtrf`` and ``pbtrs``, bound here so that the vertex path needs none."""
        from scipy.linalg import get_lapack_funcs

        pos, _ = self._cell_numbering
        coupling = self._cell_coupling().tocoo()
        row, col = pos[coupling.row], pos[coupling.col]
        lower = row >= col
        order = np.argsort(pos)
        curl = self.curl[order]
        band_index = (row[lower] - col[lower], col[lower])
        inv_area = 1.0 / self.area[order]
        return (self.mass.diagonal(), band_index, coupling.data[lower], inv_area, curl, curl.T,
                *get_lapack_funcs(("pbtrf", "pbtrs")))

    def cell_space_preconditioner(self, c: float):
        """``r -> P_c^{-1} r`` for ``P_c = c diag(M) + K``, through a banded
        Cholesky factor of ``G_c``."""
        mass_diag, band_index, band, inv_area, curl, curl_t, pbtrf, pbtrs = self._cell_path
        ab = np.zeros((self._cell_numbering[1] + 1, len(inv_area)))
        ab[band_index] = band / c
        ab[0] += inv_area
        factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded Cholesky of G_c failed (info={info})")
        inv_cm = 1.0 / (c * mass_diag)

        def apply(r):
            w, _ = pbtrs(factor, curl @ (r * inv_cm), lower=1)
            return (r - curl_t @ w) * inv_cm

        return apply

    @cached_property
    def _vertex_blocks(self):
        """CSR positions of the vertex-block entries of ``c M + K`` and their flat
        slots in an identity-padded ``(n_vertices, b, b)`` stack; the stack slot
        of each entry of the inverse, and its CSR layout. Each row holds
        its whole block, as the inverse fills in dof pairs that share no cell."""
        vertex, n = self.dof_vertex, self.n_edge_dofs
        order = np.argsort(vertex, kind="stable")
        count = np.bincount(vertex)
        start = np.cumsum(count) - count
        slot = np.empty(n, dtype=np.int64)
        slot[order] = np.arange(n) - start[vertex[order]]
        b = int(count.max())

        pattern = self.edge_pattern
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        pos = np.flatnonzero(vertex[rows] == vertex[pattern.indices])
        rows, cols = rows[pos], pattern.indices[pos]
        fill = ((vertex[rows] * b + slot[rows]) * b + slot[cols]).astype(np.int32)

        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(count[vertex], out=indptr[1:])
        row = np.repeat(np.arange(n), count[vertex])
        k = np.arange(indptr[-1]) - indptr[row]
        indices = order[start[vertex[row]] + k].astype(np.int32)
        take = ((vertex[row] * b + slot[row]) * b + k).astype(np.int32)
        return pos, fill, take, CsrPattern(indices, indptr, n), b

    def vertex_block_preconditioner(self, c: float):
        """``r -> B_c^{-1} r`` for ``B_c`` the vertex-block diagonal of ``c M + K``."""
        pos, fill, take, layout, b = self._vertex_blocks
        blocks = np.tile(np.eye(b), (len(self.d), 1, 1))
        blocks.reshape(-1)[fill] = c * self.mass.data[pos] + self._curl_data[pos]
        return layout.csr_from_data(np.linalg.inv(blocks).reshape(-1)[take]).dot

    def curl_preconditioner(self, s: float, c: float):
        """``P_c^{-1}`` for a system between ``s M + K`` and ``(2c - s) M + K``,
        or vertex-block Jacobi on ``c M + K`` where :meth:`cell_space_pays`
        finds the cell-space solve too dear. The latest path and ``c`` keep
        their preconditioner; another path or ``c`` builds anew."""
        path = (_MeshOps.cell_space_preconditioner if self.cell_space_pays(s)
                else _MeshOps.vertex_block_preconditioner)
        if self._preconditioner[:2] != (path, c):
            self._preconditioner = (path, c, path(self, c))
        return self._preconditioner[2]


def _nodal_layout(mesh: Mesh):
    """The nodal CSR pattern, the diagonal and both directions of every edge,
    and the slot of each cell's entry ``(k, l)``, as (3, 3, nc).

    Row ``i`` holds the edges ``(lo, i)`` left of its diagonal and the edges
    ``(i, hi)`` right of it. The edge table is sorted by ``(lo, hi)``, so the
    right parts run in edge order, and a stable sort by ``hi`` puts the left
    parts in order.
    """
    nv, ne = mesh.num_vertices, mesh.num_edges
    lo, hi = mesh.edges.T
    left, right = np.bincount(hi, minlength=nv), np.bincount(lo, minlength=nv)
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(left + right + 1, out=indptr[1:])
    diag = indptr[:-1] + left
    upper = diag[lo] + 1 + np.arange(ne, dtype=np.int32) - (np.cumsum(right) - right)[lo]
    by_hi = np.argsort(hi, kind="stable")
    lower = np.empty(ne, dtype=np.int32)
    lower[by_hi] = indptr[hi[by_hi]] + np.arange(ne) - (np.cumsum(left) - left)[hi[by_hi]]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diag], indices[upper], indices[lower] = np.arange(nv), hi, lo

    corner, edge = mesh.cells.T, mesh.cell_edges.T
    slots = np.empty((3, 3, mesh.num_cells), dtype=np.int32)
    for k, l in np.ndindex(3, 3):
        if k == l:
            slots[k, k] = diag[corner[k]]
        else:
            e = edge[k if l == (k + 1) % 3 else l]  # local edge j joins corners j and j + 1
            slots[k, l] = np.where(corner[k] < corner[l], upper[e], lower[e])
    return CsrPattern(indices, indptr, nv), slots


def _edge_layout(mesh: Mesh, dof_at):
    """The edge-space CSR pattern, and the slot of each local dof pair in the
    mass scatter's layout (corner v, corner w, cell, side s, side r), for the
    dofs ``dof_at`` (3, 2, nc) at each cell's corners.

    Rows ``2e`` and ``2e + 1`` hold the dofs of every edge of the one or two
    cells at edge ``e``, in edge order. Two cells share at most one edge
    (``Mesh.from_cells`` refuses a repeated triangle), so that union is the
    cell's three edges and the two further edges of the cell across ``e``, and
    a pair's slot is its row's start, plus two places per edge of that union
    below the column's edge, plus the column's side of its edge.
    """
    ne, nc, edge = mesh.num_edges, mesh.num_cells, np.ascontiguousarray(mesh.cell_edges.T)
    # entries ``j * nc + c``; the cell across each is the other entry of its edge in a stable sort
    flat = edge.ravel()
    order = np.argsort(flat, kind="stable")
    second = np.flatnonzero(flat[order[1:]] == flat[order[:-1]]) + 1
    across = np.full(len(flat), len(flat))
    across[order[second - 1]], across[order[second]] = order[second], order[second - 1]
    # that cell's two other edges, or ``ne``, above every edge, at the boundary
    further = [np.append(np.roll(edge, -k, axis=0), ne)[across].reshape(edge.shape) for k in (1, 2)]

    # rank[j, i]: the edges of the rows of local edge j below local edge i
    own = [sum(edge[k] < edge[i] for k in range(3) if k != i) for i in range(3)]
    rank = np.empty((3, 3, nc), dtype=np.int32)
    for j, i in np.ndindex(3, 3):
        rank[j, i] = own[i] + (further[0][j] < edge[i]) + (further[1][j] < edge[i])

    indptr = np.zeros(2 * ne + 1, dtype=np.int32)
    np.cumsum(np.repeat(4 * np.bincount(flat, minlength=ne) + 2, 2), out=indptr[1:])
    js = [j for pair in _INCIDENT for j in pair]  # the local edge of each (corner, side)
    below = rank[js][:, js].reshape(3, 2, 3, 2, nc)
    row_start, side = indptr[dof_at], dof_at & 1
    slots = np.empty((3, 3, nc, 2, 2), dtype=np.int32)
    for s, r in np.ndindex(2, 2):
        slots[..., s, r] = row_start[:, None, s] + 2 * below[:, s, :, r] + side[None, :, r]
    # every entry of the pattern is some cell's pair
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[slots] = dof_at.transpose(0, 2, 1)[None, :, :, None, :]
    return CsrPattern(indices, indptr, 2 * ne), slots


def _cuthill_mckee(graph: sp.csr_matrix) -> np.ndarray:
    """Cuthill-McKee position of each node of a symmetric CSR adjacency.

    Each connected part is numbered breadth first from a pseudo-peripheral
    node (the last node reached from a minimum-degree start). The nodes of
    a level follow their earliest-numbered neighbour in the level before,
    then increasing degree, then index. A self-loop at every node, as on a
    matrix's diagonal, raises each degree by one and leaves the numbering as
    it is.
    """
    degree = np.diff(graph.indptr)
    n, width = len(degree), int(degree.max(initial=0))
    # neighbours as table rows, padded with the extra node n, which counts as numbered
    table = np.full((n, width), n)
    row = np.repeat(np.arange(n), degree)
    table[row, np.arange(len(row)) - graph.indptr[row]] = graph.indices

    def number_from(start, pos, count):
        pos[start] = count
        count += 1
        level = np.array([start])
        while True:
            cand = table[level].ravel()
            fresh = np.flatnonzero(pos[cand] < 0)
            if not len(fresh):
                return count, int(level[-1])
            cand = cand[fresh]  # from table row ``fresh // width``: the parent's place in the level
            cand = cand[np.lexsort((cand, degree[cand], fresh // width))]
            _, first = np.unique(cand, return_index=True)
            level = cand[np.sort(first)]
            pos[level] = np.arange(count, count + len(level))
            count += len(level)

    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[n] = n
    count = 0
    while count < n:
        free = np.flatnonzero(pos < 0)
        start = int(free[np.argmin(degree[free])])
        _, far = number_from(start, pos.copy(), count)
        count, _ = number_from(far, pos, count)
    return pos[:n]


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
    # the scatter is real: on the float view it runs faster than on a complex upcast, same bits
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
    # ``((sigma/tau) M + K) + W`` in that order, in one buffer: the plain sum has the
    # same bits but raised the lshape-adaptive peak RSS by about 0.4 MiB
    data = np.multiply(ops.mass.data, sigma / tau)
    data += ops._curl_data
    data += ops._mass_scatter @ weights.ravel()
    return ops.edge_pattern.csr_from_data(data)


def at_quad(mesh: Mesh, f, *args) -> np.ndarray:
    """A real constant, or a callable ``f(x, y, *args)`` returning a value or a
    pair of components, at the quadrature points: (nc, nq), or (2, nc, nq) for
    a pair, in the dtype the callable returns."""
    ops = _ops(mesh)
    x, y = ops.qpts[:, :, 0], ops.qpts[:, :, 1]
    if not callable(f):
        return np.full_like(ops.wdx, float(f))
    value = f(x, y, *args)
    if isinstance(value, tuple):
        return np.array(np.broadcast_arrays(*value, x)[:2])
    return np.broadcast_to(value, x.shape)


def squared_l2(mesh: Mesh, u) -> float:
    """``integral(|u|^2)`` of a real or complex field at the quadrature points:
    anything that broadcasts against (nc, nq), such as :func:`at_quad` and
    :func:`evaluate_edge` values and their differences."""
    return float(np.sum(_ops(mesh).wdx * u * np.conj(u)).real)


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
        moments += ops.moments(at_quad(mesh, forcing, t))
    rhs = (sigma / tau) * (ops.mass @ np.asarray(A_prev, dtype=float))
    return rhs + ops.curl_load(at_quad(mesh, H, t)) + ops.cmap_T @ moments.ravel()


def ritz_projection(mesh: Mesh, A_func, curl_func) -> np.ndarray:
    """Edge-space field closest to ``A_func`` in the curl-plus-mass energy.

    Solves ``(curl u, curl B) + (u, B) = (curl_func, curl B) + (A_func, B)``
    for all test fields ``B``. Both callables take ``(x, y)`` arrays.
    """
    from .linalg import cg_solve

    ops = _ops(mesh)
    rhs = ops.cmap_T @ ops.moments(at_quad(mesh, A_func)).ravel()
    rhs = rhs + ops.curl_load(at_quad(mesh, curl_func))
    system = ops.edge_pattern.csr_from_data(ops._curl_data + ops.mass.data)
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
    """Edge field at the quadrature points, (2, nc, nq), and its per-cell curls, (nc, 1)."""
    ops = _ops(mesh)
    A = np.asarray(A, dtype=float)
    return (POINTS @ ops.corners(A)).transpose(0, 2, 1), (ops.curl @ A)[:, None]


def evaluate_nodal(mesh: Mesh, psi):
    """Nodal field at the quadrature points, (nc, nq), and its per-cell gradients, (2, nc, 1)."""
    ops = _ops(mesh)
    p = np.asarray(psi, dtype=complex)[ops.corner_vertices]
    return (POINTS @ p).T, ops.gradients(p)[:, :, None]

