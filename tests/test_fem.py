import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tdglfem import fem, linalg
from tdglfem.diagnostics import discrete_energy
from tdglfem.fem import (
    assemble_A_rhs,
    assemble_A_system,
    assemble_Lhat,
    at_quad,
    corner_values,
    curl_values,
    edge_max_norm,
    evaluate_edge,
    evaluate_nodal,
    interpolate_nodal,
    lumped_mass,
    num_edge_dofs,
    ritz_projection,
    squared_l2,
)
from tdglfem.mesh import Mesh, generate_uniform_square
from tdglfem.scenarios import holed_square_mesh, lshape_mesh, unit_square_mesh

import oracles
from oracles import interpolate_edge


def stiffness(mesh):
    """P1 stiffness ``integral(grad phi_i . grad phi_j)``, from the assembly data."""
    ops = fem._ops(mesh)
    return ops.nodal_pattern.csr_from_data(ops._stiff_data.copy())


def edge_mass(mesh):
    return fem._ops(mesh).mass.copy()


def curl_curl(mesh):
    ops = fem._ops(mesh)
    return ops.edge_pattern.csr_from_data(ops._curl_data.copy())


def consistent_mass_dense(mesh):
    # independent P1 mass: elementwise area/12 * (1 + kron(i,j))
    n = mesh.num_vertices
    M = np.zeros((n, n))
    local = np.full((3, 3), 1.0)
    local[np.diag_indices(3)] = 2.0
    for c in range(mesh.num_cells):
        idx = mesh.cells[c]
        M[np.ix_(idx, idx)] += mesh.cell_areas[c] / 12.0 * local
    return M


# -- lumped mass and stiffness -----------------------------------------------


def test_lumped_unit_triangle(unit_tri):
    np.testing.assert_allclose(lumped_mass(unit_tri), 1.0 / 6.0, atol=1e-15)


@pytest.mark.parametrize("M", [1, 2, 5])
def test_lumped_partitions_area(M):
    mesh = generate_uniform_square(M)
    d = lumped_mass(mesh)
    assert (d > 0).all()
    assert d.sum() == pytest.approx(1.0, abs=1e-13)


def test_lumped_interior_vertex():
    mesh = generate_uniform_square(4)
    d = lumped_mass(mesh)
    interior = ~np.isin(np.arange(mesh.num_vertices), mesh.edges[mesh.boundary_edge])
    # interior vertices touch six triangles of area h^2/2 each
    np.testing.assert_allclose(d[interior], (1.0 / 16.0), atol=1e-15)


def test_stiffness_unit_triangle(unit_tri):
    K = stiffness(unit_tri).toarray()
    np.testing.assert_allclose(np.diag(K), [1.0, 0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(K, K.T, atol=1e-15)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)


def test_stiffness_offdiagonal_nonpositive(square4):
    # weakly acute mesh: off-diagonal entries cannot be positive
    K = stiffness(square4).toarray()
    off = K - np.diag(np.diag(K))
    assert off.max() <= 1e-14
    vals = np.linalg.eigvalsh(K)
    assert vals.min() > -1e-12  # PSD with constant-vector kernel
    assert abs(vals[0]) < 1e-12


def test_stiffness_kills_constants(square2):
    K = stiffness(square2)
    np.testing.assert_allclose(K @ np.ones(square2.num_vertices), 0.0, atol=1e-13)


# -- nodal interpolation and evaluation ---------------------------------------


def test_interpolate_nodal_linear_exact(square2):
    field = lambda x, y: 2 * x - y + 1j * (x + y)
    vals, grads = evaluate_nodal(square2, interpolate_nodal(square2, field))
    np.testing.assert_allclose(vals, at_quad(square2, field), atol=1e-14)
    assert grads.shape == (2, square2.num_cells, 1)
    np.testing.assert_allclose(grads[0], 2 + 1j, atol=1e-14)
    np.testing.assert_allclose(grads[1], -1 + 1j, atol=1e-14)


def test_squared_l2_weights(square2, rng):
    # a per-cell constant w, as (nc, 1), integrates to sum(w^2 area)
    w = rng.standard_normal((square2.num_cells, 1))
    assert squared_l2(square2, w) == pytest.approx(w[:, 0] ** 2 @ square2.cell_areas, rel=1e-14)
    assert squared_l2(square2, 1j * w) == pytest.approx(squared_l2(square2, w), rel=1e-15)


@pytest.mark.parametrize(
    "value", [2.5, (1.5, -2.0), 0.5 - 1j, (1j, 2.0 + 0j)],
    ids=["scalar", "pair", "complex", "complex-pair"],
)
def test_at_quad_constant_matches_array(square2, value):
    # a callable returning Python constants gives what one returning full arrays gives
    if isinstance(value, tuple):
        full, shape = (lambda x, y: tuple(c + 0 * x for c in value)), (2, square2.num_cells, 6)
    else:
        full, shape = (lambda x, y: value + 0 * x), (square2.num_cells, 6)
    got, ref = at_quad(square2, lambda x, y: value), at_quad(square2, full)
    assert got.shape == ref.shape == shape
    assert got.dtype == ref.dtype == np.asarray(value).dtype
    np.testing.assert_array_equal(got, ref)


def test_lumped_product_identity(square4, rng):
    # sum_i d_i v_i conj(w_i) equals the per-cell corner-average rule
    v = rng.standard_normal(square4.num_vertices) + 1j * rng.standard_normal(
        square4.num_vertices
    )
    w = rng.standard_normal(square4.num_vertices) + 1j * rng.standard_normal(
        square4.num_vertices
    )
    d = lumped_mass(square4)
    lhs = np.sum(d * v * np.conj(w))
    rhs = 0.0
    for c in range(square4.num_cells):
        idx = square4.cells[c]
        rhs += square4.cell_areas[c] / 3.0 * np.sum(v[idx] * np.conj(w[idx]))
    assert abs(lhs - rhs) < 1e-13


def test_norm_equivalence_bounds(square4, rng):
    # lumped-to-consistent L2 norm ratio lies in [1, 2]
    Mc = consistent_mass_dense(square4)
    d = lumped_mass(square4)
    for _ in range(20):
        v = rng.standard_normal(square4.num_vertices)
        ratio = np.sqrt((d * v * v).sum() / (v @ Mc @ v))
        assert 1.0 - 1e-12 <= ratio <= 2.0 + 1e-12


def test_norm_equivalence_sharp(unit_tri):
    # oscillating mode on one triangle attains the upper constant exactly
    Mc = consistent_mass_dense(unit_tri)
    d = lumped_mass(unit_tri)
    v = np.array([1.0, -1.0, 0.0])
    ratio = np.sqrt((d * v * v).sum() / (v @ Mc @ v))
    assert ratio == pytest.approx(2.0, abs=1e-13)


# -- edge space ---------------------------------------------------------------


def test_num_edge_dofs(square2):
    assert num_edge_dofs(square2) == 2 * square2.num_edges


@pytest.mark.parametrize(
    "field, curl",
    [
        (lambda x, y: (-y, x), 2.0),
        (lambda x, y: (0 * x + 1.0, 0 * y + 3.0), 0.0),
        (lambda x, y: (2 * x + y, x - y), 0.0),
        (lambda x, y: (y, 2 * x), 1.0),
    ],
)
def test_edge_interpolation_linear_exact(square2, field, curl):
    A = interpolate_edge(square2, field)
    A_q, curls = evaluate_edge(square2, A)
    np.testing.assert_allclose(A_q, at_quad(square2, field), atol=1e-13)
    np.testing.assert_allclose(curls, curl, atol=1e-13)
    np.testing.assert_allclose(curl_values(square2, A), curl, atol=1e-13)


def test_corner_values_linear(square2):
    A = interpolate_edge(square2, lambda x, y: (x + 2 * y, 3 * x - y))
    corners = corner_values(square2, A)
    xy = square2.vertices[square2.cells]
    np.testing.assert_allclose(corners[..., 0], xy[..., 0] + 2 * xy[..., 1], atol=1e-13)
    np.testing.assert_allclose(corners[..., 1], 3 * xy[..., 0] - xy[..., 1], atol=1e-13)


def test_edge_max_norm_constant(square2):
    A = interpolate_edge(square2, lambda x, y: (0 * x + 3.0, 0 * y + 4.0))
    assert edge_max_norm(square2, A) == pytest.approx(5.0, abs=1e-13)


def test_edge_mass_spd(square2):
    M = edge_mass(square2).toarray()
    np.testing.assert_allclose(M, M.T, atol=1e-14)
    np.linalg.cholesky(M)  # raises if not PD


def test_edge_mass_integrates(square2):
    # A . A integrated through the mass matrix matches a direct quadrature
    A = interpolate_edge(square2, lambda x, y: (x - 2 * y, y + 1))
    M = edge_mass(square2)
    A_q, _ = evaluate_edge(square2, A)
    assert A @ (M @ A) == pytest.approx(squared_l2(square2, A_q), rel=1e-13)


def test_curl_curl_matrix(square2):
    K = curl_curl(square2)
    A = interpolate_edge(square2, lambda x, y: (-y, x))  # curl 2
    # int |curl|^2 = 4 * |Omega|
    assert A @ (K @ A) == pytest.approx(4.0, rel=1e-13)
    grad_like = interpolate_edge(square2, lambda x, y: (2 * x + y, x - y))  # curl 0
    assert abs(grad_like @ (K @ grad_like)) < 1e-13


# -- Ritz projection ----------------------------------------------------------


def test_ritz_reproduces_members(square2):
    field = lambda x, y: (1 + 2 * x - y, x + 3 * y)
    proj = ritz_projection(square2, field, lambda x, y: np.broadcast_to(2.0, np.shape(x)))
    interp = interpolate_edge(square2, field)
    np.testing.assert_allclose(proj, interp, atol=1e-10)


# -- Lhat ---------------------------------------------------------------------


def test_Lhat_zero_field_is_minus_stiffness(unit_tri):
    L = assemble_Lhat(unit_tri, np.zeros(num_edge_dofs(unit_tri)), 1.0).toarray()
    np.testing.assert_allclose(np.diag(L), [-1.0, -0.5, -0.5], atol=1e-14)
    K = stiffness(unit_tri).toarray()
    np.testing.assert_allclose(L, -K.astype(complex), atol=1e-14)


def test_Lhat_kappa_scaling(unit_tri):
    L = assemble_Lhat(unit_tri, np.zeros(num_edge_dofs(unit_tri)), 2.0).toarray()
    K = stiffness(unit_tri).toarray()
    np.testing.assert_allclose(L, -K.astype(complex) / 4.0, atol=1e-14)


@pytest.mark.parametrize("kappa", [1.0, 4.0])
def test_Lhat_hermitian(square4, rng, kappa):
    A = rng.standard_normal(num_edge_dofs(square4))
    L = assemble_Lhat(square4, A, kappa).toarray()
    np.testing.assert_allclose(L, L.conj().T, atol=1e-13)


def quadrature_seminorm(mesh, A, psi, kappa):
    """``||((i/kappa) grad + A) psi||^2`` integrated by the degree-4 rule."""
    A_q, _ = evaluate_edge(mesh, A)
    vals, grad = evaluate_nodal(mesh, psi)
    return squared_l2(mesh, (1j / kappa) * grad + A_q * vals)


@pytest.mark.parametrize(
    "mesh",
    [unit_square_mesh(4), lshape_mesh(8), holed_square_mesh(1)],
    ids=["square4", "lshape8", "holed1"],
)
@pytest.mark.parametrize("kappa", [1.0, 3.0])
def test_Lhat_covariant_identity(mesh, rng, kappa):
    # quadratic form of -Lhat equals the covariant seminorm squared
    A = rng.standard_normal(num_edge_dofs(mesh))
    psi = rng.standard_normal(mesh.num_vertices) + 1j * rng.standard_normal(mesh.num_vertices)
    L = assemble_Lhat(mesh, A, kappa)
    quad = -np.vdot(psi, L @ psi).real
    semi = quadrature_seminorm(mesh, A, psi, kappa)
    assert abs(quad - semi) <= 1e-12 * semi


MESH_FAMILIES = pytest.mark.parametrize(
    "mesh",
    [unit_square_mesh(4), lshape_mesh(8), holed_square_mesh(1)],
    ids=["square4", "lshape8", "holed1"],
)


def relative_gap(a, b):
    norm = spla.norm if sp.issparse(b) else np.linalg.norm
    return norm(a - b) / norm(b)


def unit_random_psi(mesh, rng):
    n = mesh.num_vertices
    return rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


@MESH_FAMILIES
def test_csr_pattern_matches_unique(mesh):
    dofs = np.stack([2 * mesh.cell_edges, 2 * mesh.cell_edges + 1], axis=2).reshape(-1, 6)
    for local, n in ((mesh.cells, mesh.num_vertices), (dofs, num_edge_dofs(mesh))):
        rows = np.repeat(local, local.shape[1], axis=1)
        cols = np.tile(local, local.shape[1])
        pattern, slots = fem.CsrPattern.of_entries(rows, cols, n)
        ukeys, inv = np.unique(rows.ravel() * n + cols.ravel(), return_inverse=True)
        np.testing.assert_array_equal(slots, inv)
        np.testing.assert_array_equal(pattern.indices, ukeys % n)
        np.testing.assert_array_equal(
            pattern.indptr, np.searchsorted(ukeys, np.arange(n + 1) * n)
        )


@MESH_FAMILIES
@pytest.mark.parametrize("kappa", [1.0, 1e3])
def test_Lhat_matches_quadrature(mesh, rng, kappa):
    # the real part is the stiffness plus the |A|^2 mass (the mass dominates at a
    # large kappa), the imaginary part the A . (phi grad phi) term alone
    A = rng.standard_normal(num_edge_dofs(mesh))
    L = assemble_Lhat(mesh, A, kappa)
    ref = oracles.quadrature_Lhat(mesh, A, kappa)
    assert relative_gap(L.real, ref.real) <= 1e-13
    assert relative_gap(L.imag, ref.imag) <= 1e-13


@MESH_FAMILIES
def test_A_system_matches_quadrature(mesh, rng):
    psi = unit_random_psi(mesh, rng)
    assert relative_gap(edge_mass(mesh), oracles.quadrature_edge_mass(mesh, 1.0)) <= 1e-13
    ref = oracles.quadrature_A_system(mesh, psi, sigma=1.3, tau=0.07)
    S = assemble_A_system(mesh, psi, sigma=1.3, tau=0.07)
    assert relative_gap(S, ref) <= 1e-13
    # the |psi|^2-weighted mass alone, which (sigma/tau) M would swamp
    weighted = S - assemble_A_system(mesh, 0 * psi, sigma=1.3, tau=0.07)
    psi_q, _ = oracles.nodal_at_quad(mesh, psi)
    assert relative_gap(weighted, oracles.quadrature_edge_mass(mesh, np.abs(psi_q) ** 2)) <= 1e-13


#: one term of the A-step right-hand side each, so that no term hides behind another
RHS_TERMS = {
    "previous_state": {"A_prev": True},
    "supercurrent": {"psi": True},
    "constant_H": {"H": 0.7},
    "callable_H": {"H": lambda x, y, t: np.sin(x + t) * y},
    "forcing": {"forcing": lambda x, y, t: (x * y + t, np.cos(x - y))},
}


@MESH_FAMILIES
@pytest.mark.parametrize("term", sorted(RHS_TERMS))
def test_A_rhs_matches_quadrature(mesh, rng, term):
    spec = RHS_TERMS[term]
    psi = unit_random_psi(mesh, rng) * bool(spec.get("psi"))
    A_prev = rng.standard_normal(num_edge_dofs(mesh)) * bool(spec.get("A_prev"))
    args = (mesh, psi, A_prev, spec.get("H", 0.0), 1.7, 1.3, 0.07, 0.4)
    rhs = assemble_A_rhs(*args, forcing=spec.get("forcing"))
    ref = oracles.quadrature_A_rhs(*args, forcing=spec.get("forcing"))
    assert relative_gap(rhs, ref) <= 1e-13


@MESH_FAMILIES
@pytest.mark.parametrize("part", ["field", "curl"])
def test_ritz_load_matches_quadrature(mesh, monkeypatch, part):
    seen = []

    def capture(matrix, rhs, **kwargs):
        seen.append((matrix, rhs))
        return linalg.CgResult(np.zeros_like(rhs), 0, 0.0)

    monkeypatch.setattr(linalg, "cg_solve", capture)
    scale = float(part == "field")
    field = lambda x, y: (scale * np.sin(x) * y, scale * (x * x - y))
    curl = lambda x, y: (1.0 - scale) * np.cos(x + 2 * y)
    ritz_projection(mesh, field, curl)
    (matrix, rhs), = seen
    assert relative_gap(rhs, oracles.quadrature_ritz_load(mesh, field, curl)) <= 1e-13
    system = oracles.quadrature_edge_mass(mesh, 1.0) + oracles.quadrature_curl_curl(mesh)
    assert relative_gap(matrix, system) <= 1e-13


@MESH_FAMILIES
def test_evaluation_matches_quadrature(mesh, rng):
    A = rng.standard_normal(num_edge_dofs(mesh))
    psi = unit_random_psi(mesh, rng)
    (A_q, curls), (psi_q, grads) = oracles.edge_at_quad(mesh, A), oracles.nodal_at_quad(mesh, psi)
    # the oracle is cell-first; fem puts the components first, with a quadrature axis of 1
    refs = (np.moveaxis(A_q, -1, 0), curls[:, None], psi_q, grads.T[:, :, None])
    for got, ref in zip(evaluate_edge(mesh, A) + evaluate_nodal(mesh, psi), refs):
        assert got.shape == ref.shape
        assert relative_gap(got, ref) <= 1e-13


def test_covariant_seminorm_gauge_example(square2):
    # psi = 1, A = const: integrand is |A|^2, so the covariant energy is 5/2
    psi = np.ones(square2.num_vertices, dtype=complex)
    A = interpolate_edge(square2, lambda x, y: (0 * x + 2.0, 0 * y + 1.0))
    L = assemble_Lhat(square2, A, 1.0)
    covariant, _, _ = discrete_energy(square2, L, A, psi, 0.0, 0.0)
    assert covariant == pytest.approx(2.5, rel=1e-13)


# -- A-step system ------------------------------------------------------------


def test_A_system_spd(square2, rng):
    psi = rng.standard_normal(square2.num_vertices) + 1j * rng.standard_normal(
        square2.num_vertices
    )
    S = assemble_A_system(square2, psi, sigma=1.3, tau=0.07).toarray()
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    np.linalg.cholesky(S)


def test_A_system_decomposition(square2):
    # with psi = 1 the system is (sigma/tau) M + K_curl + M
    sigma, tau = 1.3, 0.07
    psi = np.ones(square2.num_vertices, dtype=complex)
    S = assemble_A_system(square2, psi, sigma=sigma, tau=tau).toarray()
    M = edge_mass(square2).toarray()
    K = curl_curl(square2).toarray()
    np.testing.assert_allclose(S, (sigma / tau) * M + K + M, atol=1e-11)


def test_A_rhs_pure_applied_field(square2):
    # H = c, psi = 0, A_prev = 0: rhs dotted with any test field w gives
    # c * int curl(w)
    c = 2.5
    rhs = assemble_A_rhs(
        square2,
        np.zeros(square2.num_vertices, dtype=complex),
        np.zeros(num_edge_dofs(square2)),
        c,
        kappa=1.0,
        sigma=1.0,
        tau=0.1,
        t=0.0,
    )
    w = interpolate_edge(square2, lambda x, y: (-y, x))  # curl 2 everywhere
    assert rhs @ w == pytest.approx(c * 2.0 * 1.0, rel=1e-13)


def test_A_rhs_supercurrent_linear_psi():
    # psi = x + i y is in the nodal space, so the supercurrent load is exact:
    # g = -(1/kappa) (-y, x); dotted with w = (1, 0) gives (1/kappa)/2 and the
    # rhs carries -g, hence -1/(2 kappa)
    mesh = generate_uniform_square(3)
    kappa = 2.0
    psi = interpolate_nodal(mesh, lambda x, y: x + 1j * y)
    rhs = assemble_A_rhs(
        mesh,
        psi,
        np.zeros(num_edge_dofs(mesh)),
        0.0,
        kappa=kappa,
        sigma=1.0,
        tau=0.1,
        t=0.0,
    )
    w = interpolate_edge(mesh, lambda x, y: (0 * x + 1.0, 0 * y))
    assert rhs @ w == pytest.approx(-1.0 / (2 * kappa), rel=1e-12)


def test_A_rhs_previous_state_term(square2, rng):
    # with H = 0 and psi = 0 the rhs is exactly (sigma/tau) M A_prev
    sigma, tau = 2.0, 0.25
    A_prev = rng.standard_normal(num_edge_dofs(square2))
    rhs = assemble_A_rhs(
        square2,
        np.zeros(square2.num_vertices, dtype=complex),
        A_prev,
        0.0,
        kappa=1.0,
        sigma=sigma,
        tau=tau,
        t=0.0,
    )
    M = edge_mass(square2)
    np.testing.assert_allclose(rhs, (sigma / tau) * (M @ A_prev), atol=1e-12)


def test_A_rhs_forcing_term(square2):
    # constant forcing f = (1, 0): rhs gains int f . phi_i, checked against
    # the mass matrix applied to the interpolated constant
    base = assemble_A_rhs(
        square2,
        np.zeros(square2.num_vertices, dtype=complex),
        np.zeros(num_edge_dofs(square2)),
        0.0,
        kappa=1.0,
        sigma=1.0,
        tau=0.1,
        t=0.0,
    )
    forced = assemble_A_rhs(
        square2,
        np.zeros(square2.num_vertices, dtype=complex),
        np.zeros(num_edge_dofs(square2)),
        0.0,
        kappa=1.0,
        sigma=1.0,
        tau=0.1,
        t=0.0,
        forcing=lambda x, y, t: (np.ones_like(x), np.zeros_like(y)),
    )
    M = edge_mass(square2)
    unit = interpolate_edge(square2, lambda x, y: (0 * x + 1.0, 0 * y))
    np.testing.assert_allclose(forced - base, M @ unit, atol=1e-12)


# -- curl-exact preconditioner -------------------------------------------------


@pytest.mark.parametrize("c", [1.0, 50.5])
def test_curl_preconditioner_inverts_P(square4, rng, c):
    # P_c = c diag(M) + K, applied through the cell-space Woodbury solve
    M = edge_mass(square4).toarray()
    P = c * np.diag(np.diag(M)) + curl_curl(square4).toarray()
    apply = fem._ops(square4).cell_space_preconditioner(c)
    x = rng.standard_normal(len(M))
    np.testing.assert_allclose(apply(P @ x), x, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("c", [1.0, 5.5, 50.5])
def test_curl_preconditioner_symmetric_positive(rng, c):
    mesh = lshape_mesh(16)
    apply = fem._ops(mesh).cell_space_preconditioner(c)
    n = num_edge_dofs(mesh)
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        xPy, yPx = x @ apply(y), y @ apply(x)
        assert abs(xPy - yPx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(apply(y))
        assert x @ apply(x) > 0


def test_curl_preconditioner_refactors_on_new_c(square4, rng):
    ops = fem._ops(square4)
    x = rng.standard_normal(num_edge_dofs(square4))
    first = ops.cell_space_preconditioner(2.0)(x)
    ops.cell_space_preconditioner(7.0)
    np.testing.assert_array_equal(ops.cell_space_preconditioner(2.0)(x), first)


def test_curl_preconditioner_keeps_one_slot(rng):
    # one (path, c) slot: the same path and c reuse it, anything else builds anew
    ops = fem._ops(holed_square_mesh(2))
    assert ops.cell_space_pays(0.01) and not ops.cell_space_pays(50.0)
    x = rng.standard_normal(ops.n_edge_dofs)
    cell = ops.curl_preconditioner(0.01, 1.0)
    assert ops.curl_preconditioner(0.01, 1.0) is cell
    vertex = ops.curl_preconditioner(50.0, 1.0)
    np.testing.assert_array_equal(vertex(x), ops.vertex_block_preconditioner(1.0)(x))
    assert ops.curl_preconditioner(50.0, 1.0) is vertex
    again = ops.curl_preconditioner(0.01, 1.0)
    assert again is not cell
    np.testing.assert_array_equal(again(x), cell(x))
    assert ops.curl_preconditioner(0.01, 2.0) is not again


def test_vertex_path_holds_no_cell_path_arrays():
    # the cost rule reads the numbering; the band and the permuted curl wait for the cell path
    mesh = holed_square_mesh(2)
    ops = fem._ops(mesh)
    assert not ops.cell_space_pays(1 / 0.02)
    fem.A_system_preconditioner(mesh, 1.0, 0.02)(np.ones(num_edge_dofs(mesh)))
    assert "_cell_numbering" in vars(ops) and "_cell_path" not in vars(ops)
    by_cells = [k for k, v in vars(ops).items() if sp.issparse(v) and v.shape[0] == mesh.num_cells]
    assert by_cells == ["curl"]
    fem.A_system_preconditioner(mesh, 1.0, 100.0)
    assert ops.cell_space_pays(1 / 100.0) and "_cell_path" in vars(ops)


@MESH_FAMILIES
def test_patterns_keep_no_slot_map(mesh):
    ops = fem._ops(mesh)
    for pattern in (ops.nodal_pattern, ops.edge_pattern):
        assert set(vars(pattern)) == {"indices", "indptr", "nnz", "shape"}


def vertex_block_part(mesh, c):
    """Entries of ``c M + K`` between dofs sitting at one vertex, dense."""
    P = (c * edge_mass(mesh) + curl_curl(mesh)).toarray()
    at = mesh.edges.ravel()
    return np.where(at[:, None] == at[None, :], P, 0.0)


@pytest.mark.parametrize("c", [1.0, 50.5])
def test_vertex_blocks_invert_block_diagonal(rng, c):
    mesh = holed_square_mesh(1)
    B = vertex_block_part(mesh, c)
    apply = fem._ops(mesh).vertex_block_preconditioner(c)
    x = rng.standard_normal(len(B))
    np.testing.assert_allclose(apply(B @ x), x, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("c", [1.0, 5.5, 50.5])
def test_vertex_blocks_symmetric_positive(rng, c):
    mesh = holed_square_mesh(2)
    apply = fem._ops(mesh).vertex_block_preconditioner(c)
    n = num_edge_dofs(mesh)
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        xPy, yPx = x @ apply(y), y @ apply(x)
        assert abs(xPy - yPx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(apply(y))
        assert x @ apply(x) > 0


def test_vertex_blocks_refactor_on_new_c(rng):
    mesh = holed_square_mesh(1)
    ops = fem._ops(mesh)
    x = rng.standard_normal(num_edge_dofs(mesh))
    first = ops.vertex_block_preconditioner(2.0)(x)
    seventh = ops.vertex_block_preconditioner(7.0)(x)
    assert not np.allclose(seventh, first)
    np.testing.assert_array_equal(ops.vertex_block_preconditioner(2.0)(x), first)


def test_cost_rule_choices():
    holed = fem._ops(holed_square_mesh(8))
    assert not holed.cell_space_pays(1 / 0.02)
    assert not holed.cell_space_pays(1 / 0.2)
    lshape = fem._ops(lshape_mesh(32))
    assert lshape.cell_space_pays(1 / 0.02)
    assert lshape.cell_space_pays(1 / 0.2)
    for M in (8, 16, 32):
        assert fem._ops(unit_square_mesh(M)).cell_space_pays(M)


def test_cuthill_mckee_numbers_every_component():
    # two paths, 0-1-2-3 and 4-5, the second listed first
    a, b = np.array([4, 2, 0, 1]), np.array([5, 3, 1, 2])
    graph = sp.csr_matrix((np.ones(8), (np.r_[a, b], np.r_[b, a])), shape=(6, 6))
    pos = fem._cuthill_mckee(graph)
    assert sorted(pos) == list(range(6))
    assert np.abs(pos[a] - pos[b]).max() == 1
    # a diagonal, as the cell coupling has, leaves the numbering as it is
    np.testing.assert_array_equal(fem._cuthill_mckee((graph + sp.eye(6)).tocsr()), pos)


def cell_coupling(mesh):
    """``C diag(M)^{-1} C^T`` on the cells, as CSR."""
    ops = fem._ops(mesh)
    return (ops.curl @ sp.diags(1.0 / ops.mass.diagonal()) @ ops.curl.T).tocsr()


def test_cell_numbering_band_is_narrow():
    mesh = lshape_mesh(32)
    coupling = cell_coupling(mesh)
    pos = fem._cuthill_mckee(coupling)
    assert sorted(pos) == list(range(mesh.num_cells))
    rows, cols = coupling.nonzero()
    numbering, bw = fem._ops(mesh)._cell_numbering
    np.testing.assert_array_equal(numbering, pos)
    assert np.abs(pos[rows] - pos[cols]).max() == bw <= 64


def rotated(mesh, degrees):
    turn = np.deg2rad(degrees)
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return Mesh.from_cells(mesh.vertices @ rot.T, mesh.cells)


@pytest.mark.parametrize(
    "build, bw",
    [
        (lambda: lshape_mesh(8), 8),
        (lambda: lshape_mesh(32), 32),
        (lambda: unit_square_mesh(8), 8),
        (lambda: unit_square_mesh(16), 16),
        (lambda: unit_square_mesh(32), 32),
        (lambda: holed_square_mesh(2), 19),
        (lambda: holed_square_mesh(8), 73),
        (lambda: rotated(lshape_mesh(32), 30), 32),
    ],
    ids=["lshape8", "lshape32", "unit8", "unit16", "unit32", "holed2", "holed8", "lshape32-rot30"],
)
def test_cell_band_width(build, bw):
    mesh = build()
    ops = fem._ops(mesh)
    _, width = ops._cell_numbering
    _, _, band, *_ = ops._cell_path
    assert width == bw
    # the band holds the lower triangle of the coupling, permuted, entry for entry
    assert len(band) == (cell_coupling(mesh).nnz + mesh.num_cells) // 2


def test_ops_cache_releases_mesh():
    mesh = generate_uniform_square(4)
    assemble_A_system(mesh, np.ones(mesh.num_vertices, dtype=complex), sigma=1.0, tau=0.1)
    fem.A_system_preconditioner(mesh, 1.0, 0.1)(np.ones(num_edge_dofs(mesh)))
    fem._ops(mesh).vertex_block_preconditioner(10.5)(np.ones(num_edge_dofs(mesh)))
    assert mesh in fem._OPS_CACHE
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None
