import math

import numpy as np
import pytest
import scipy.sparse as sp

from tdglfem import fem, linalg
from tdglfem.fem import (
    A_system_preconditioner,
    assemble_A_system,
    assemble_Lhat,
    lumped_mass,
    num_edge_dofs,
)
from tdglfem.linalg import (
    PHI1_SERIES_CUTOFF,
    CgResult,
    ConvergenceError,
    cg_solve,
    phi1,
    phi_apply,
)
from tdglfem.scenarios import holed_square_mesh, lshape_mesh, unit_square_mesh

from oracles import DENSE_ORACLE_MAX_SIZE, dense_phi_oracle


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


def random_hermitian(n, rng, scale=1.0):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (B + B.conj().T) / 2
    return sp.csr_matrix(scale * H)


# -- conjugate gradient --------------------------------------------------------


def jacobi(matrix):
    inv_diag = 1.0 / matrix.diagonal()
    return lambda r: inv_diag * r


def test_cg_recovers_solution(rng):
    A = random_spd(40, rng)
    x_true = rng.standard_normal(40)
    res = cg_solve(A, A @ x_true, precond=jacobi(A))
    np.testing.assert_allclose(res.x, x_true, atol=1e-9)
    assert res.residual <= linalg.CG_TOL * np.linalg.norm(A @ x_true)


def test_cg_zero_rhs(rng):
    A = random_spd(10, rng)
    res = cg_solve(A, np.zeros(10), precond=jacobi(A))
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, 0.0)


def test_cg_warm_start_exact(rng):
    A = random_spd(30, rng)
    x_true = rng.standard_normal(30)
    res = cg_solve(A, A @ x_true, x0=x_true, precond=jacobi(A))
    assert res.iterations == 0


def test_cg_warm_start_helps(rng):
    A = random_spd(60, rng)
    b = rng.standard_normal(60)
    P = jacobi(A)
    cold = cg_solve(A, b, precond=P)
    warm = cg_solve(A, b, x0=cold.x + 1e-8 * rng.standard_normal(60), precond=P)
    assert warm.iterations < cold.iterations


def test_cg_iteration_cap():
    # eigenvalues spread geometrically over eight decades, unpreconditioned: exact
    # arithmetic finishes in n = 10 steps, but rounding makes CG need about 27,000
    # to reach CG_TOL, far past the cap of 10 n
    A = sp.diags(np.logspace(0, 8, 10)).tocsr()
    with pytest.raises(ConvergenceError) as err:
        cg_solve(A, np.ones(10), precond=lambda r: r)
    assert err.value.iterations == 100
    assert err.value.residual > 0


def test_cg_rejects_nonpositive_diagonal():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(2), precond=lambda r: r)


def test_cg_result_is_dataclass(rng):
    A = random_spd(5, rng)
    res = cg_solve(A, np.ones(5), precond=jacobi(A))
    assert isinstance(res, CgResult)
    assert res.iterations >= 1


def test_cg_exact_preconditioner_one_iteration(rng):
    A = random_spd(20, rng)
    inv = np.linalg.inv(A.toarray())
    res = cg_solve(A, rng.standard_normal(20), precond=lambda r: inv @ r)
    assert res.iterations == 1


def a_system(mesh, tau, rng):
    n = mesh.num_vertices
    psi = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return assemble_A_system(mesh, psi, sigma=1.0, tau=tau)


@pytest.mark.parametrize("path", ["jacobi", "cell", "block"])
def test_cg_nan_rhs_raises_at_once(rng, path):
    mesh = holed_square_mesh(2) if path == "block" else lshape_mesh(8)
    S = a_system(mesh, 0.1, rng)
    precond = jacobi(S)
    if path != "jacobi":
        assert fem._ops(mesh).cell_space_pays(1 / 0.1) == (path == "cell")
        precond = A_system_preconditioner(mesh, 1.0, 0.1)
    rhs = rng.standard_normal(S.shape[0])
    rhs[3] = np.nan
    with pytest.raises(ConvergenceError, match="not finite") as err:
        cg_solve(S, rhs, precond=precond)
    assert err.value.iterations <= 1


@pytest.mark.parametrize("M", [16, 32, 64])
@pytest.mark.parametrize("tau", [0.02, 0.2])
def test_pcg_iterations_do_not_grow_with_mesh(rng, M, tau):
    mesh = lshape_mesh(M)
    S = a_system(mesh, tau, rng)
    assert fem._ops(mesh).cell_space_pays(1 / tau)
    precond = A_system_preconditioner(mesh, 1.0, tau)
    res = cg_solve(S, rng.standard_normal(S.shape[0]), precond=precond)
    assert res.iterations <= 70


@pytest.mark.parametrize("tau", [0.02, 0.2])
def test_pcg_matches_jacobi(rng, tau):
    mesh = lshape_mesh(16)
    S = a_system(mesh, tau, rng)
    rhs = rng.standard_normal(S.shape[0])
    ref = cg_solve(S, rhs, precond=jacobi(S)).x
    pcg = cg_solve(S, rhs, precond=A_system_preconditioner(mesh, 1.0, tau)).x
    assert np.linalg.norm(pcg - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("M", [2, 4])
@pytest.mark.parametrize("tau", [0.02, 0.2])
def test_vertex_block_pcg_matches_jacobi(rng, M, tau):
    mesh = holed_square_mesh(M)
    S = a_system(mesh, tau, rng)
    assert not fem._ops(mesh).cell_space_pays(1 / tau)
    rhs = rng.standard_normal(S.shape[0])
    ref = cg_solve(S, rhs, precond=jacobi(S))
    pcg = cg_solve(S, rhs, precond=A_system_preconditioner(mesh, 1.0, tau))
    assert np.linalg.norm(pcg.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)
    assert pcg.iterations <= 0.6 * ref.iterations


# -- scalar phi functions ------------------------------------------------------


def test_phi1_reference_values():
    assert phi1(-1.0) == pytest.approx(-0.6321205588285577, abs=1e-15)
    assert phi1(0.0) == -1.0
    # phi1(a) = (1 - e^a)/a
    assert phi1(2.0) == pytest.approx((1 - math.exp(2.0)) / 2.0, rel=1e-15)


def test_phi1_series_continuity():
    # formula and series branches must agree through the switchover
    below = PHI1_SERIES_CUTOFF * 0.99
    above = PHI1_SERIES_CUTOFF * 1.01
    for a in (below, -below, above, -above):
        direct = (1 - math.exp(a)) / a
        assert phi1(a) == pytest.approx(direct, rel=1e-11)
    # change across the switchover is the smooth slope (-1/2); the direct
    # branch carries ~eps/a cancellation noise, so allow that much
    step = phi1(above) - phi1(below)
    assert step == pytest.approx(-0.5 * (above - below), abs=5e-11)


def test_phi1_vectorized():
    a = np.array([-1.0, 0.0, 1e-9, 0.3])
    vals = phi1(a)
    assert vals.shape == (4,)
    assert vals[1] == -1.0
    assert vals[2] == pytest.approx(-1.0, abs=1e-8)


# -- Krylov phi application ----------------------------------------------------


@pytest.mark.parametrize("tau", [0.02, 0.2, 1.0])
def test_phi_apply_matches_oracle(rng, tau):
    n = 60
    Lhat = random_hermitian(n, rng)
    d = rng.uniform(0.5, 2.0, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = phi_apply(Lhat, d, 2.0, tau, v)
    want = dense_phi_oracle(Lhat, d, 2.0, tau, v, "phi1")
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def square_phi_problem(M, rng):
    """``Lhat`` for a random potential on the unit square, ``kappa = 1``."""
    mesh = unit_square_mesh(M)
    Lhat = assemble_Lhat(mesh, rng.standard_normal(num_edge_dofs(mesh)), 1.0)
    v = rng.standard_normal(mesh.num_vertices) + 1j * rng.standard_normal(mesh.num_vertices)
    return Lhat, lumped_mass(mesh), v


@pytest.fixture
def eigensolve_dims(monkeypatch):
    """Krylov dimension of every tridiagonal eigensolve ``phi_apply`` runs."""
    dims = []
    inner = linalg._phi_on_tridiag

    def counting(alphas, betas, tau):
        dims.append(len(alphas))
        return inner(alphas, betas, tau)

    monkeypatch.setattr(linalg, "_phi_on_tridiag", counting)
    return dims


@pytest.mark.parametrize("M", [16, 20])
@pytest.mark.parametrize("tau", ["1/M", 0.2, 1.0])
def test_phi_apply_matches_oracle_at_large_dimension(rng, eigensolve_dims, M, tau):
    # Krylov dimensions of about 60 to 140, where the check schedule skips
    tau = 1.0 / M if tau == "1/M" else tau
    Lhat, d, v = square_phi_problem(M, rng)
    got = phi_apply(Lhat, d, 2.0, tau, v)
    want = dense_phi_oracle(Lhat, d, 2.0, tau, v, "phi1")
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert eigensolve_dims[-1] >= 50
    assert len(eigensolve_dims) < eigensolve_dims[-1] - eigensolve_dims[0]


def test_phi_apply_check_count(rng, eigensolve_dims):
    Lhat, d, v = square_phi_problem(32, rng)
    phi_apply(Lhat, d, 2.0, 1.0 / 32, v)
    assert len(eigensolve_dims) <= 14


def test_phi_apply_single_spurious_pass(rng, monkeypatch, eigensolve_dims):
    # a zero last component fakes a passing estimate at one checked dimension;
    # the adjacent-pair rule must not stop there
    Lhat, d, v = square_phi_problem(16, rng)
    want = phi_apply(Lhat, d, 2.0, 1.0 / 16, v)
    checked = list(eigensolve_dims)
    assert len(checked) >= 6
    counting = linalg._phi_on_tridiag
    for k in checked[:-2]:
        def faking(alphas, betas, tau, k=k):
            y = counting(alphas, betas, tau)
            if len(alphas) == k:
                y[-1] = 0.0
            return y

        monkeypatch.setattr(linalg, "_phi_on_tridiag", faking)
        got = phi_apply(Lhat, d, 2.0, 1.0 / 16, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_phi_apply_dimension_cap(rng, monkeypatch, eigensolve_dims):
    Lhat, d, v = square_phi_problem(16, rng)
    want = phi_apply(Lhat, d, 2.0, 0.2, v)
    m0 = eigensolve_dims[-1]
    assert m0 < linalg.KRYLOV_MAX_DIM
    # capped at its own converged dimension, a call still converges
    monkeypatch.setattr(linalg, "KRYLOV_MAX_DIM", m0)
    got = phi_apply(Lhat, d, 2.0, 0.2, v)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # capped well below it, the last two checks are the adjacent pair at the cap
    eigensolve_dims.clear()
    monkeypatch.setattr(linalg, "KRYLOV_MAX_DIM", m0 // 2)
    with pytest.raises(ConvergenceError):
        phi_apply(Lhat, d, 2.0, 0.2, v)
    assert eigensolve_dims[-2:] == [m0 // 2 - 1, m0 // 2]
    assert len(eigensolve_dims) < m0 // 4


def test_phi_apply_zero_vector(rng):
    Lhat = random_hermitian(8, rng)
    out = phi_apply(Lhat, np.ones(8), 2.0, 0.1, np.zeros(8, dtype=complex))
    np.testing.assert_array_equal(out, 0.0)


def test_phi_apply_eigenvector_happy_breakdown(rng):
    # v an exact eigenvector: one Lanczos step suffices; scalar answer known
    n = 12
    d = np.ones(n)
    lam = -3.0
    Lhat = sp.csr_matrix(lam * np.eye(n, dtype=complex))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mu, tau = 2.0, 0.3
    a = tau * (lam - mu)
    out = phi_apply(Lhat, d, mu, tau, v)
    np.testing.assert_allclose(out, (1 - math.exp(a)) / a * v, rtol=1e-13)
    # the exponential Euler identity exp(a) = 1 - a phi1(a)
    np.testing.assert_allclose(v - tau * phi_apply(Lhat, d, mu, tau, (lam - mu) * v),
                               math.exp(a) * v, rtol=1e-13)


def test_phi_apply_respects_max_dim(rng, monkeypatch):
    n = 80
    Lhat = random_hermitian(n, rng, scale=50.0)
    d = rng.uniform(0.5, 2.0, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    monkeypatch.setattr(linalg, "KRYLOV_MAX_DIM", 3)
    with pytest.raises(ConvergenceError) as err:
        phi_apply(Lhat, d, 0.0, 1.0, v)
    # the message names the step, the cap, the last estimate and m_trust
    message = str(err.value)
    assert "tau=1.0 within the Krylov dimension cap 3" in message
    assert f"last residual estimate {err.value.residual:.3e}" in message
    assert err.value.residual > linalg.KRYLOV_TOL
    assert "m_trust=3" in message
    assert err.value.iterations == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"tau": -0.1},
        {"mu": -1.0},
        {"mu": math.nan},
    ],
)
def test_phi_apply_validation(rng, kwargs):
    Lhat = random_hermitian(6, rng)
    base = dict(d=np.ones(6), mu=2.0, tau=0.1, v=np.ones(6, dtype=complex))
    base.update(kwargs)
    with pytest.raises(ValueError):
        phi_apply(Lhat, base["d"], base["mu"], base["tau"], base["v"])


def test_phi_apply_rejects_nonpositive_mass(rng):
    Lhat = random_hermitian(6, rng)
    d = np.ones(6)
    d[3] = 0.0
    with pytest.raises(ValueError):
        phi_apply(Lhat, d, 2.0, 0.1, np.ones(6, dtype=complex))


def test_dense_oracle_size_cap(rng):
    n = DENSE_ORACLE_MAX_SIZE + 1
    Lhat = sp.eye(n, dtype=complex, format="csr")
    with pytest.raises(ValueError):
        dense_phi_oracle(Lhat, np.ones(n), 2.0, 0.1, np.ones(n, dtype=complex))


def test_oracle_scalar_reference():
    # N = 1 reduces to the scalar functions
    Lhat = sp.csr_matrix(np.array([[-2.0 + 0j]]))
    d = np.array([4.0])
    v = np.array([1.0 + 0j])
    mu, tau = 1.5, 0.7
    a = tau * (-2.0 / 4.0 - mu)
    out0 = dense_phi_oracle(Lhat, d, mu, tau, v, which="phi0")
    out1 = dense_phi_oracle(Lhat, d, mu, tau, v, which="phi1")
    assert out0[0] == pytest.approx(math.exp(a), rel=1e-14)
    assert out1[0] == pytest.approx((1 - math.exp(a)) / a, rel=1e-14)
