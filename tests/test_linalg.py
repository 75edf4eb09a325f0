import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tdglfem import fem, linalg
from tdglfem.fem import (
    A_system_preconditioner,
    assemble_A_system,
    assemble_Lhat,
    lumped_mass,
    num_edge_dofs,
)
from tdglfem.linalg import (
    PHI_TOL,
    RECENT_LEVELS,
    CgResult,
    ConvergenceError,
    RecentSpan,
    cg_solve,
    phi1,
    phi_apply,
)
from tdglfem.scenarios import holed_square_mesh, lshape_mesh, unit_square_mesh

from oracles import DENSE_ORACLE_MAX_SIZE, dense_phi_oracle


def random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


def random_hermitian(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sp.csr_matrix((B + B.conj().T) / 2)


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


# -- start values from the recent solutions --------------------------------------

#: long enough that sliding the window rotates ``Q`` in more than one column chunk
SPAN_N = 2 * 4096 + 3

#: what each push is: a fresh random vector of some scale, the zero vector, the
#: previous push again, or a mix of earlier pushes whose new direction is tiny
PUSHES = st.lists(
    st.tuples(st.sampled_from(["random", "zero", "repeat", "near"]), st.integers(-14, 6)),
    max_size=3 * RECENT_LEVELS,
)


def pushed_vectors(kinds, seed):
    rng = np.random.default_rng(seed)
    out = []
    for kind, e in kinds:
        if kind == "zero":
            v = np.zeros(SPAN_N)
        elif kind == "repeat" and out:
            v = out[-1].copy()
        elif kind == "near" and out:
            v = rng.standard_normal(len(out[-3:])) @ np.array(out[-3:])
            noise = rng.standard_normal(SPAN_N) / math.sqrt(SPAN_N)
            v += 10.0 ** min(e, -6) * np.linalg.norm(v) * noise
        else:
            v = 10.0**e * rng.standard_normal(SPAN_N)
        out.append(v)
    return out


@settings(max_examples=60, deadline=None)
@given(PUSHES, st.integers(0, 2**32 - 1))
def test_recent_span_rows_stay_orthonormal(kinds, seed):
    rng = np.random.default_rng(seed)
    S = sp.diags(rng.uniform(0.5, 2.0, SPAN_N))
    b = rng.standard_normal(SPAN_N)
    span = RecentSpan(SPAN_N)
    for v in pushed_vectors(kinds, seed):
        span.push(v)
        Q = span.Q[: span.k]
        assert span.k <= RECENT_LEVELS
        assert np.abs(Q @ Q.T - np.eye(span.k)).max(initial=0.0) <= 1e-12
        assert np.isfinite(span.start(S, b)).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3 * RECENT_LEVELS), st.integers(0, 2**32 - 1))
def test_recent_span_spans_last_pushed(count, seed):
    vectors = pushed_vectors([("random", 0)] * count, seed)
    span = RecentSpan(SPAN_N)
    for v in vectors:
        span.push(v)
    Q = span.Q[: span.k]
    assert span.k == min(count, RECENT_LEVELS)
    for v in vectors[-span.k :]:
        assert np.linalg.norm(v - (Q @ v) @ Q) <= 1e-12 * np.linalg.norm(v)


def test_recent_span_start_solves_within_span(rng):
    A = random_spd(30, rng)
    x = rng.standard_normal(30)
    span = RecentSpan(30)
    np.testing.assert_array_equal(span.start(A, A @ x), np.zeros(30))
    for v in (rng.standard_normal(30), 2.0 * x):
        span.push(v)
    np.testing.assert_allclose(span.start(A, A @ x), x, rtol=0, atol=1e-12 * np.abs(x).max())


def test_recent_span_stays_orthonormal_near_a_steady_state():
    # pushes that settle onto a steady state, each carrying noise of 1e-12 of its norm, as
    # CG-tolerance noise does; two Gram-Schmidt passes alone let this span collapse at push
    # 5,755, where the start's solve found Q S Q^T singular
    n = 4736
    rng = np.random.default_rng(0)
    steady, modes = rng.standard_normal(n), rng.standard_normal((4, n))
    rates = np.array([0.05, 0.1, 0.2, 0.4])
    S = sp.diags(rng.uniform(0.5, 2.0, n))
    b = rng.standard_normal(n)
    span = RecentSpan(n)
    worst = 0.0
    for k in range(8000):
        noise = 1e-12 * np.linalg.norm(steady) * rng.standard_normal(n) / math.sqrt(n)
        span.push(steady + np.exp(-rates * 0.02 * k) @ modes + noise)
        Q = span.Q[: span.k]
        worst = max(worst, np.abs(Q @ Q.T - np.eye(span.k)).max())
        assert np.isfinite(span.start(S, b)).all(), k
    assert worst <= 1e-11


def test_recent_span_restarts_a_collapsed_basis(rng):
    A = random_spd(30, rng)
    span = RecentSpan(30)
    for _ in range(3):
        span.push(rng.standard_normal(30))
    x = span.newest
    span.Q[1] = 0.0  # Q S Q^T is now singular
    start = span.start(A, A @ x)
    assert span.k == 1
    np.testing.assert_allclose(start, x, rtol=0, atol=1e-12 * np.abs(x).max())


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


def test_phi1_matches_expm1():
    for a in np.geomspace(1e-12, 50.0, 200):
        for x in (a, -a):
            assert phi1(x) == pytest.approx(-math.expm1(x) / x, rel=1e-15, abs=0.0)


def test_phi1_vectorized():
    a = np.array([-1.0, 0.0, 1e-9, 0.3])
    vals = phi1(a)
    assert vals.shape == (4,)
    assert vals[1] == -1.0
    assert vals[2] == pytest.approx(-1.0, abs=1e-8)


# -- Chebyshev phi application ------------------------------------------------


def d_norm(d, x):
    return math.sqrt(float(d @ np.abs(x) ** 2))


@pytest.mark.parametrize("tau", [0.02, 0.2, 1.0])
def test_phi_apply_matches_oracle(rng, tau):
    n = 60
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Lhat = sp.csr_matrix(-(B @ B.conj().T) / n)
    d = rng.uniform(0.5, 2.0, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = phi_apply(Lhat, d, 2.0, tau, v, atol=PHI_TOL * d_norm(d, v))
    want = dense_phi_oracle(Lhat, d, 2.0, tau, v, "phi1")
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def square_phi_problem(M, rng, scale=1.0):
    """``Lhat`` for a random potential on the unit square, ``kappa = 1``."""
    mesh = unit_square_mesh(M)
    Lhat = assemble_Lhat(mesh, scale * rng.standard_normal(num_edge_dofs(mesh)), 1.0)
    v = rng.standard_normal(mesh.num_vertices) + 1j * rng.standard_normal(mesh.num_vertices)
    return Lhat, lumped_mass(mesh), v


@pytest.mark.parametrize("M", [16, 20])
@pytest.mark.parametrize("tau", ["1/M", 0.2, 1.0])
def test_phi_apply_matches_oracle_at_large_dimension(rng, M, tau):
    tau = 1.0 / M if tau == "1/M" else tau
    Lhat, d, v = square_phi_problem(M, rng)
    got = phi_apply(Lhat, d, 2.0, tau, v, atol=PHI_TOL * d_norm(d, v))
    want = dense_phi_oracle(Lhat, d, 2.0, tau, v, "phi1")
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("tau", [1 / 32, 1.0])
def test_phi_apply_keeps_the_clenshaw_bytes(rng, tau):
    # the loop runs in reused buffers, in the operation order of the expression form
    Lhat, d, v = square_phi_problem(32, rng, scale=3.0)
    mu, atol = 2.0, PHI_TOL * d_norm(d, v)
    dh = np.sqrt(d)
    g = float((abs(Lhat) @ (1.0 / dh) / dh).max())
    a = linalg._phi1_chebyshev(tau, -(g + mu), -mu, atol / math.sqrt(float(d @ np.abs(v) ** 2)))
    scale = 2.0 / (g * d)
    b1, b2 = np.zeros_like(v), np.zeros_like(v)
    for ak in a[:0:-1]:
        b1, b2 = 2.0 * (b1 + scale * (Lhat @ b1)) - b2 + ak * v, b1
    want = a[0] * v + b1 + scale * (Lhat @ b1) - b2
    assert phi_apply(Lhat, d, mu, tau, v, atol=atol).tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [0.0, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("tau", [1e-9, 1e-5, 1e-3, 0.2, 1.0, 10.0])
def test_phi_apply_meets_a_priori_bound(rng, tau, scale):
    # tau g from about 1e-6 to 1e6; the a-priori bound holds in the D-norm
    Lhat, d, v = square_phi_problem(16, rng, scale)
    want = dense_phi_oracle(Lhat, d, 2.0, tau, v, "phi1")
    atol = PHI_TOL * d_norm(d, v)
    assert d_norm(d, phi_apply(Lhat, d, 2.0, tau, v, atol=atol) - want) <= atol
    # a zero target stops at the rounding floor
    assert d_norm(d, phi_apply(Lhat, d, 2.0, tau, v, atol=0.0) - want) <= atol


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    mesh=st.sampled_from([unit_square_mesh(2), unit_square_mesh(5), lshape_mesh(2), lshape_mesh(4)]),
    kappa=st.floats(0.5, 10.0),
    scale=st.floats(0.0, 20.0),
    mu=st.floats(0.0, 50.0),
    log_tau=st.floats(-9.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_apply_a_priori_bound_property(mesh, kappa, scale, mu, log_tau, seed):
    rng = np.random.default_rng(seed)
    Lhat = assemble_Lhat(mesh, scale * rng.standard_normal(num_edge_dofs(mesh)), kappa)
    d = lumped_mass(mesh)
    v = rng.standard_normal(mesh.num_vertices) + 1j * rng.standard_normal(mesh.num_vertices)
    tau = 10.0**log_tau
    atol = PHI_TOL * d_norm(d, v)
    err = phi_apply(Lhat, d, mu, tau, v, atol=atol) - dense_phi_oracle(Lhat, d, mu, tau, v, "phi1")
    assert d_norm(d, err) <= atol


def test_phi_apply_zero_vector(rng):
    Lhat = random_hermitian(8, rng)
    out = phi_apply(Lhat, np.ones(8), 2.0, 0.1, np.zeros(8, dtype=complex), atol=0.0)
    np.testing.assert_array_equal(out, 0.0)


def test_phi_apply_zero_operator(rng):
    # g = 0: L = -mu I, no expansion
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    out = phi_apply(sp.csr_matrix((8, 8), dtype=complex), np.ones(8), 2.0, 0.1, v, atol=0.0)
    np.testing.assert_array_equal(out, phi1(-0.2) * v)


def test_phi_apply_eigenvector_happy_breakdown(rng):
    # v an eigenvector of L: the scalar answer is known
    n = 12
    d = np.ones(n)
    lam = -3.0
    Lhat = sp.csr_matrix(lam * np.eye(n, dtype=complex))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mu, tau = 2.0, 0.3
    a = tau * (lam - mu)
    atol = PHI_TOL * d_norm(d, v)
    out = phi_apply(Lhat, d, mu, tau, v, atol=atol)
    assert d_norm(d, out - (1 - math.exp(a)) / a * v) <= atol
    # the exponential Euler identity exp(a) = 1 - a phi1(a)
    out = v - tau * phi_apply(Lhat, d, mu, tau, (lam - mu) * v, atol=atol / tau)
    assert d_norm(d, out - math.exp(a) * v) <= atol


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"tau": -0.1},
        {"mu": -1.0},
        {"mu": math.nan},
        {"tau": math.inf},
        {"mu": math.inf},
        {"atol": -1.0},
        {"atol": math.nan},
    ],
)
def test_phi_apply_validation(rng, kwargs):
    Lhat = random_hermitian(6, rng)
    base = dict(d=np.ones(6), mu=2.0, tau=0.1, v=np.ones(6, dtype=complex), atol=0.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        phi_apply(Lhat, base["d"], base["mu"], base["tau"], base["v"], atol=base["atol"])


@pytest.mark.parametrize("where", ["v", "Lhat"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_phi_apply_rejects_nonfinite_input(rng, where, bad):
    Lhat, d, v = square_phi_problem(4, rng)
    if where == "v":
        v[3] = bad
    else:
        Lhat = Lhat.tolil()
        Lhat[3, 3] = bad
        Lhat = Lhat.tocsr()
    with pytest.raises(ValueError, match=f"{where} is not finite"):
        phi_apply(Lhat, d, 2.0, 0.1, v, atol=PHI_TOL * d_norm(d, v))


def test_phi_apply_rejects_nonpositive_mass(rng):
    Lhat = random_hermitian(6, rng)
    d = np.ones(6)
    d[3] = 0.0
    with pytest.raises(ValueError):
        phi_apply(Lhat, d, 2.0, 0.1, np.ones(6, dtype=complex), atol=0.0)


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
