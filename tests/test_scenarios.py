import numpy as np
import pytest
import sympy as sym

import tdglfem.scenarios
from tdglfem.cli import run_manufactured_convergence
from tdglfem.config import RunConfig
from tdglfem.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    holed_square_mesh,
    lshape_mesh,
    manufactured_fields,
    unit_square_mesh,
)


def symbolic_forcings(kappa, sigma):
    """Derive the forcing terms from the strong equations with sympy.

    This is an independent route to the closed forms shipped in the package:
    substitute the chosen exact fields into the governing equations and read
    off what source terms they need.
    """
    x, y, t = sym.symbols("x y t", real=True)
    I = sym.I
    pi = sym.pi
    psi = sym.exp(-t) * (sym.cos(2 * pi * x) + I * sym.cos(pi * y))
    Ax = sym.exp(t - y) * sym.sin(pi * x)
    Ay = sym.exp(t - x) * sym.sin(2 * pi * y)
    curl = sym.diff(Ay, x) - sym.diff(Ax, y)
    H = curl

    psi_c = sym.conjugate(psi)
    abs2 = sym.simplify(psi * psi_c)

    # ((i/k) grad + A)^2 psi expanded
    lap = sym.diff(psi, x, 2) + sym.diff(psi, y, 2)
    divA = sym.diff(Ax, x) + sym.diff(Ay, y)
    P2 = (
        -lap / kappa**2
        + (I / kappa) * (divA * psi + 2 * (Ax * sym.diff(psi, x) + Ay * sym.diff(psi, y)))
        + (Ax**2 + Ay**2) * psi
    )
    f_psi = sym.diff(psi, t) + P2 + (abs2 - 1) * psi

    # supercurrent Re[conj(psi) ((i/k) grad + A) psi]
    jx = sym.re(psi_c * ((I / kappa) * sym.diff(psi, x) + Ax * psi))
    jy = sym.re(psi_c * ((I / kappa) * sym.diff(psi, y) + Ay * psi))
    f_Ax = sigma * sym.diff(Ax, t) + sym.diff(curl, y) + jx - sym.diff(H, y)
    f_Ay = sigma * sym.diff(Ay, t) - sym.diff(curl, x) + jy + sym.diff(H, x)

    args = (x, y, t)
    return (
        sym.lambdify(args, sym.re(f_psi), "numpy"),
        sym.lambdify(args, sym.im(f_psi), "numpy"),
        sym.lambdify(args, f_Ax, "numpy"),
        sym.lambdify(args, f_Ay, "numpy"),
        sym.lambdify(args, sym.re(psi), "numpy"),
        sym.lambdify(args, sym.im(psi), "numpy"),
        sym.lambdify(args, Ax, "numpy"),
        sym.lambdify(args, Ay, "numpy"),
        sym.lambdify(args, curl, "numpy"),
    )


@pytest.mark.parametrize("kappa, sigma", [(1.0, 1.0), (2.0, 1.5)])
def test_manufactured_forcings_against_symbolic(rng, kappa, sigma):
    exact, forcing_A, forcing_psi = manufactured_fields(kappa, sigma)
    fp_re, fp_im, fa_x, fa_y, p_re, p_im, a_x, a_y, s_curl = symbolic_forcings(
        kappa, sigma
    )
    x = rng.uniform(0, 1, 50)
    y = rng.uniform(0, 1, 50)
    t = rng.uniform(0, 1, 50)

    np.testing.assert_allclose(
        exact.psi(x, y, t), p_re(x, y, t) + 1j * p_im(x, y, t), atol=1e-12
    )
    ax, ay = exact.A(x, y, t)
    np.testing.assert_allclose(ax, a_x(x, y, t), atol=1e-12)
    np.testing.assert_allclose(ay, a_y(x, y, t), atol=1e-12)
    np.testing.assert_allclose(exact.curl_A(x, y, t), s_curl(x, y, t), atol=1e-11)
    np.testing.assert_allclose(exact.H(x, y, t), s_curl(x, y, t), atol=1e-11)

    got = forcing_psi(x, y, t)
    np.testing.assert_allclose(got, fp_re(x, y, t) + 1j * fp_im(x, y, t), atol=1e-10)
    gx, gy = forcing_A(x, y, t)
    np.testing.assert_allclose(gx, fa_x(x, y, t), atol=1e-10)
    np.testing.assert_allclose(gy, fa_y(x, y, t), atol=1e-10)


def test_manufactured_gradient_consistent(rng):
    # finite-difference check of the shipped gradient
    exact, _, _ = manufactured_fields()
    x = rng.uniform(0.1, 0.9, 30)
    y = rng.uniform(0.1, 0.9, 30)
    t = rng.uniform(0, 1, 30)
    h = 1e-6
    gx, gy = exact.grad_psi(x, y, t)
    np.testing.assert_allclose(
        gx, (exact.psi(x + h, y, t) - exact.psi(x - h, y, t)) / (2 * h), atol=1e-6
    )
    np.testing.assert_allclose(
        gy, (exact.psi(x, y + h, t) - exact.psi(x, y - h, t)) / (2 * h), atol=1e-6
    )


def test_manufactured_natural_boundary_conditions():
    # ((i/k) grad + A) psi . n vanishes on all four sides of the unit square
    kappa = 2.0
    exact, _, _ = manufactured_fields(kappa)
    s = np.linspace(0.0, 1.0, 17)
    t = 0.37
    for bx, by, nx, ny in (
        (0 * s, s, -1, 0),
        (0 * s + 1, s, 1, 0),
        (s, 0 * s, 0, -1),
        (s, 0 * s + 1, 0, 1),
    ):
        gx, gy = exact.grad_psi(bx, by, t)
        ax, ay = exact.A(bx, by, t)
        pv = exact.psi(bx, by, t)
        flux = ((1j / kappa) * gx + ax * pv) * nx + ((1j / kappa) * gy + ay * pv) * ny
        np.testing.assert_allclose(flux, 0.0, atol=1e-13)


# -- meshes ---------------------------------------------------------------------


def test_unit_square_mesh():
    mesh = unit_square_mesh(4)
    assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-13)
    assert mesh.num_cells == 32


def test_lshape_mesh():
    mesh = lshape_mesh(4)
    assert mesh.cell_areas.sum() == pytest.approx(0.75, abs=1e-13)
    # domain is (-0.5, 0.5)^2 minus the lower-right quadrant
    assert mesh.vertices[:, 0].min() == pytest.approx(-0.5)
    assert mesh.vertices[:, 0].max() == pytest.approx(0.5)
    inside_bite = (mesh.vertices[:, 0] > 0.01) & (mesh.vertices[:, 1] < -0.01)
    assert not inside_bite.any()


def test_holed_mesh_area_and_boundary():
    mesh = holed_square_mesh(8)
    assert mesh.cell_areas.sum() == pytest.approx(96.0, abs=1e-10)
    # outer boundary 4*80 edges plus four square holes of 4*8 each
    assert mesh.boundary_edge.sum() == 4 * 80 + 4 * 32


def test_holed_mesh_hole_positions():
    mesh = holed_square_mesh(4)
    cx = mesh.vertices[mesh.cells].mean(axis=1)
    for hx in (2.5, 7.5):
        for hy in (2.5, 7.5):
            inside = (np.abs(cx[:, 0] - hx) < 0.45) & (np.abs(cx[:, 1] - hy) < 0.45)
            assert not inside.any()


# -- defaults -------------------------------------------------------------------


def test_scenario_names():
    assert set(SCENARIO_NAMES) == {"manufactured", "lshape", "square_with_holes", "custom"}


def test_scenario_defaults_pinned_values():
    man = SCENARIOS["manufactured"]
    assert man.defaults["kappa"] == 1.0 and man.defaults["T"] == 1.0
    assert man.defaults["tau"] == "1/M"
    assert set(man.fixed) == {"H", "psi0", "mesh_file"}
    lsh = SCENARIOS["lshape"].defaults
    assert lsh["kappa"] == 10.0 and lsh["H"] == 5.0 and lsh["psi0"] == 0.6 + 0.8j
    assert lsh["tau"] == "adaptive"
    holes = SCENARIOS["square_with_holes"].defaults
    assert holes["kappa"] == 4.0 and holes["H"] == 1.1 and holes["T"] == 100.0
    # custom leaves the keys a config must give
    assert not {"M", "kappa", "T"} & set(SCENARIOS["custom"].defaults)


def test_scenario_defaults_unknown():
    assert "bogus" not in SCENARIOS
    with pytest.raises(KeyError):
        SCENARIOS["bogus"]


def test_scenario_defaults_fresh_copies():
    # a record shares no mutable defaults: neither it nor its defaults can change
    lsh = SCENARIOS["lshape"]
    with pytest.raises(TypeError):
        lsh.defaults["kappa"] = -99.0
    with pytest.raises(AttributeError):
        lsh.description = "changed"
    assert SCENARIOS["lshape"].defaults["kappa"] == 10.0


def test_scenario_builds_mesh_by_name(monkeypatch):
    # the builder is looked up when called, so a replaced module function is used
    monkeypatch.setattr(tdglfem.scenarios, "lshape_mesh", lambda M: ("built", M))
    assert SCENARIOS["lshape"].build_mesh(6) == ("built", 6)


# -- convergence driver -----------------------------------------------------------


def test_manufactured_convergence_smoke():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = RunConfig(scenario="manufactured", T=0.5)
        reports, rates = run_manufactured_convergence((4, 8), cfg)
    assert len(reports) == 2
    assert reports[1].err_psi < reports[0].err_psi
    assert reports[1].err_A < reports[0].err_A
    assert set(rates) == {"A", "curl_A", "psi", "grad_psi"}
    assert all(len(v) == 1 for v in rates.values())
