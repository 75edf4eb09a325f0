import math

import numpy as np
import pytest

from tdglfem.diagnostics import (
    EnergyBreakdown,
    convergence_rates,
    discrete_energy,
    error_norms,
    mbp_stats,
)
from tdglfem.fem import assemble_Lhat, interpolate_nodal, lumped_mass, num_edge_dofs
from tdglfem.scenarios import ExactSolution

from oracles import ContractionReport, contraction_check, interpolate_edge


def test_energy_reference_split(square2):
    # A = (-y, x) has curl 2; psi = 0 leaves only magnetic and potential wells
    A = interpolate_edge(square2, lambda x, y: (-y, x))
    psi = np.zeros(square2.num_vertices, dtype=complex)
    e = discrete_energy(square2, assemble_Lhat(square2, A, 1.0), A, psi, 0.0, 0.0)
    assert e.covariant == pytest.approx(0.0, abs=1e-14)
    assert e.magnetic == pytest.approx(2.0, rel=1e-13)
    assert e.potential == pytest.approx(0.25, rel=1e-13)
    assert e.total == pytest.approx(2.25, rel=1e-13)
    assert isinstance(e, EnergyBreakdown)


def test_energy_ground_state(square4):
    psi = np.ones(square4.num_vertices, dtype=complex)
    A = np.zeros(num_edge_dofs(square4))
    e = discrete_energy(square4, assemble_Lhat(square4, A, 2.0), A, psi, 0.0, 0.0)
    assert abs(e.total) < 1e-14


def test_energy_applied_field_offset(square2):
    # zero state in field H: magnetic part is |Omega| H^2 / 2
    psi = np.ones(square2.num_vertices, dtype=complex)
    A = np.zeros(num_edge_dofs(square2))
    e = discrete_energy(square2, assemble_Lhat(square2, A, 10.0), A, psi, 5.0, 0.0)
    assert e.magnetic == pytest.approx(12.5, rel=1e-13)
    assert e.covariant == pytest.approx(0.0, abs=1e-13)


def test_energy_time_dependent_H(square2):
    psi = np.ones(square2.num_vertices, dtype=complex)
    A = np.zeros(num_edge_dofs(square2))
    L = assemble_Lhat(square2, A, 1.0)
    e = discrete_energy(square2, L, A, psi, lambda x, y, t: t * (x + y), 2.0)
    # H(x,y,2) = 2(x+y): magnetic = 1/2 int 4 (x+y)^2 = 2 * 7/6
    assert e.magnetic == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_mbp_stats_reference():
    value, where = mbp_stats(np.array([0.5, -0.9j, 0.3 + 0.4j]))
    assert value == pytest.approx(0.9, abs=1e-15)
    assert where == 1


# -- error norms ---------------------------------------------------------------


def linear_exact():
    return ExactSolution(
        psi=lambda x, y, t: (2 * x - y) + 1j * (x + y),
        grad_psi=lambda x, y, t: (
            np.broadcast_to(2 + 1j, np.shape(x)),
            np.broadcast_to(-1 + 1j, np.shape(x)),
        ),
        A=lambda x, y, t: (x + 2 * y, 3 * x - y),
        curl_A=lambda x, y, t: np.broadcast_to(1.0, np.shape(x)),
        H=lambda x, y, t: np.broadcast_to(1.0, np.shape(x)),
    )


def test_error_norms_zero_for_representable(square2):
    exact = linear_exact()
    A = interpolate_edge(square2, lambda x, y: exact.A(x, y, 0.0))
    psi = interpolate_nodal(square2, lambda x, y: exact.psi(x, y, 0.0))
    rep = error_norms(square2, A, psi, exact, 0.0, h=0.5, tau=0.1)
    assert rep.err_A < 1e-13
    assert rep.err_curl_A < 1e-13
    assert rep.err_psi < 1e-13
    assert rep.err_grad_psi < 1e-13
    assert rep.norm_A > 0
    assert rep.h == 0.5 and rep.tau == 0.1


def test_error_norms_relative(square2):
    exact = linear_exact()
    A = interpolate_edge(square2, lambda x, y: exact.A(x, y, 0.0))
    psi = np.zeros(square2.num_vertices, dtype=complex)
    rep = error_norms(square2, A, psi, exact, 0.0, h=0.5, tau=0.1)
    # zero numerical psi: absolute error equals the exact norm
    assert rep.relative("psi") == pytest.approx(1.0, rel=1e-12)
    assert rep.err_psi == pytest.approx(rep.norm_psi, rel=1e-12)


def test_convergence_rates_halving():
    rates = convergence_rates([0.2, 0.1, 0.05], [4.0, 2.0, 1.0])
    np.testing.assert_allclose(rates, [1.0, 1.0], atol=1e-12)
    rates2 = convergence_rates([0.2, 0.1], [8.0, 2.0])
    assert rates2[0] == pytest.approx(2.0, abs=1e-12)


def test_convergence_rates_require_halving():
    with pytest.raises(ValueError):
        convergence_rates([0.2, 0.15], [1.0, 0.5])


def test_convergence_rates_zero_error_nan():
    rates = convergence_rates([0.2, 0.1], [1.0, 0.0])
    assert math.isnan(rates[0])


# -- the operator-structure audit of the tests ----------------------------------


def test_contraction_check_clean(square4):
    Lhat = assemble_Lhat(square4, np.zeros(num_edge_dofs(square4)), 1.0)
    d = lumped_mass(square4)
    rep = contraction_check(Lhat, d, 2.0, trials=200, seed=1)
    assert isinstance(rep, ContractionReport)
    assert rep.trials == 200
    assert rep.contraction_violations == 0
    assert rep.negativedef_violations == 0
    assert rep.worst_contraction < 0
    assert rep.worst_quadform <= 1e-10


def test_contraction_check_deterministic(square2):
    Lhat = assemble_Lhat(square2, np.zeros(num_edge_dofs(square2)), 1.0)
    d = lumped_mass(square2)
    a = contraction_check(Lhat, d, 2.0, trials=50, seed=7)
    b = contraction_check(Lhat, d, 2.0, trials=50, seed=7)
    assert a == b


def test_contraction_check_flags_bad_operator(square2):
    # -Lhat(A = 0) is the stiffness, positive semidefinite: the quadratic
    # form check must fire
    K = -assemble_Lhat(square2, np.zeros(num_edge_dofs(square2)), 1.0)
    d = lumped_mass(square2)
    rep = contraction_check(K, d, 0.0, trials=50, seed=3)
    assert rep.negativedef_violations > 0
