"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n> <label>: PASS|FAIL`` line straight to
the terminal (bypassing capture) so a log scan shows every verdict at a
glance. The expensive simulations are module-scoped fixtures shared between
criteria.
"""

import math
import time
import warnings

import numpy as np
import pytest

from tdglfem.cli import run_manufactured_convergence
from tdglfem.fem import (
    assemble_Lhat,
    evaluate_edge,
    lumped_mass,
    quadrature_info,
    ritz_projection,
)
from tdglfem.linalg import PHI_TOL, phi_apply
from tdglfem.output import format_timeseries_csv
from tdglfem.scenarios import holed_square_mesh, lshape_mesh, unit_square_mesh
from tdglfem.stepper import AdaptiveTau, SchemeParams, SimulationState, _mu_for, run, step_psi

from oracles import contraction_check, dense_phi_oracle


@pytest.fixture
def report(capsys):
    def _report(n, label, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"acceptance {n} {label}{tail}"

    return _report


def quiet_run(mesh, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(mesh, params)


@pytest.fixture(scope="module")
def ladder():
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, rates = run_manufactured_convergence((8, 16, 32, 64))
    return reports, rates, time.monotonic() - start


def lshape_params(tau):
    return SchemeParams(
        kappa=10.0, sigma=1.0, T=20.0, tau=tau, mu=2.0, H=5.0, psi0=0.6 + 0.8j
    )


@pytest.fixture(scope="module")
def lshape_runs():
    mesh = lshape_mesh(16)
    return {
        "fixed tau=0.2": quiet_run(mesh, lshape_params(0.2)),
        "fixed tau=1.0": quiet_run(mesh, lshape_params(1.0)),
        "adaptive": quiet_run(mesh, lshape_params(AdaptiveTau())),
    }


@pytest.fixture(scope="module")
def holed_run():
    mesh = holed_square_mesh(8)
    params = SchemeParams(
        kappa=4.0, sigma=1.0, T=100.0, tau=AdaptiveTau(), mu=2.0, H=1.1, psi0=1.0 + 0.0j
    )
    return quiet_run(mesh, params)


def test_criterion_1_convergence_rates(ladder, report):
    reports, rates, elapsed = ladder
    last = {name: rates[name][-1] for name in rates}
    ok = (
        0.85 <= last["A"] <= 1.25
        and 0.85 <= last["curl_A"] <= 1.25
        and last["psi"] >= 1.0
        and 0.9 <= last["grad_psi"] <= 1.3
        and elapsed < 300.0
    )
    detail = (
        f"rates A {last['A']:.3f}, curl {last['curl_A']:.3f}, "
        f"psi {last['psi']:.3f}, grad {last['grad_psi']:.3f}; {elapsed:.0f}s"
    )
    report(1, "manufactured-solution convergence rates", ok, detail)


def test_criterion_2_energy_decay(lshape_runs, report):
    worst = -math.inf
    ok = True
    for state in lshape_runs.values():
        G = [row.total for row in state.history]
        tol = 1e-9 * max(1.0, G[0])
        rise = max(b - a for a, b in zip(G, G[1:]))
        worst = max(worst, rise)
        ok = ok and rise <= tol and not state.energy_violations
    report(2, "energy decay in all three runs", ok, f"worst energy rise {worst:.3e}")


def test_criterion_3_modulus_bound(lshape_runs, holed_run, report):
    states = list(lshape_runs.values()) + [holed_run]
    worst = max(max(row.max_psi for row in s.history) for s in states)
    ok = worst <= 1.0 + 1e-10 and not any(s.mbp_violations for s in states)
    report(3, "modulus bound in all four runs", ok, f"max |psi| = {worst:.15g}")


def test_criterion_4_phi_oracle(report):
    # per draw and step: (a) the phi1 action, (b) the one-action psi step
    # against the dense two-action step exp(tau L) psi - tau phi1(tau L) F
    rng = np.random.default_rng(7)
    meshes = [unit_square_mesh(2), unit_square_mesh(4), unit_square_mesh(6),
              lshape_mesh(4), lshape_mesh(6)]
    worst = 0.0
    checked = 0
    for k in range(20):
        mesh = meshes[k % len(meshes)]
        kappa = rng.uniform(0.5, 5.0)
        A = rng.normal(scale=rng.uniform(0.2, 2.0), size=2 * mesh.num_edges)
        Lhat = assemble_Lhat(mesh, A, kappa)
        d = lumped_mass(mesh)
        mu = rng.uniform(0.0, 5.0)
        v = rng.standard_normal(mesh.num_vertices) + 1j * rng.standard_normal(mesh.num_vertices)
        params = SchemeParams(kappa=kappa, T=1.0, mu=mu)
        state = SimulationState(mesh=mesh, A=A, psi=v)
        mu_step = _mu_for(mesh, A, params)
        F = (1.0 + mu_step - np.abs(v) ** 2) * v
        for tau in (0.02, 0.2, 1.0):
            pairs = [
                (phi_apply(Lhat, d, mu, tau, v, atol=PHI_TOL * math.sqrt(d @ np.abs(v) ** 2)),
                 dense_phi_oracle(Lhat, d, mu, tau, v, "phi1")),
                (step_psi(state, params, A, Lhat, tau),
                 dense_phi_oracle(Lhat, d, mu_step, tau, v, "phi0")
                 - tau * dense_phi_oracle(Lhat, d, mu_step, tau, F, "phi1")),
            ]
            for got, ref in pairs:
                rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                worst = max(worst, rel)
                checked += 1
    ok = worst <= 1e-8 and checked == 120
    report(4, "Chebyshev phi actions vs dense oracle", ok,
           f"{checked} comparisons, worst relative error {worst:.2e}")


def test_criterion_5_ritz_rates(report):
    def A_func(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y), x**2 * y

    def curl_func(x, y):
        return 2 * x * y - np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)

    errs_l2, errs_curl = [], []
    for M in (8, 16, 32):
        mesh = unit_square_mesh(M)
        u = ritz_projection(mesh, A_func, curl_func)
        qpts, wdx = quadrature_info(mesh)
        x, y = qpts[:, :, 0], qpts[:, :, 1]
        A_q, curls = evaluate_edge(mesh, u)
        ax, ay = A_func(x, y)
        errs_l2.append(math.sqrt(np.sum(
            wdx * ((A_q[:, :, 0] - ax) ** 2 + (A_q[:, :, 1] - ay) ** 2)
        )))
        errs_curl.append(math.sqrt(np.sum(
            wdx * (curls[:, None] - curl_func(x, y)) ** 2
        )))
    rate_l2 = min(np.log2(np.array(errs_l2[:-1]) / errs_l2[1:]))
    rate_curl = min(np.log2(np.array(errs_curl[:-1]) / errs_curl[1:]))
    ok = 1.8 <= rate_l2 <= 2.2 and 0.8 <= rate_curl <= 1.2
    report(5, "Ritz projection rates", ok,
           f"L2 rate {rate_l2:.3f}, curl rate {rate_curl:.3f}")


def test_criterion_6_structure_and_steady_state(lshape_runs, report):
    # operator audit on the field the adaptive run settled into
    state = lshape_runs["adaptive"]
    Lhat = assemble_Lhat(state.mesh, state.A, kappa=10.0)
    audit = contraction_check(Lhat, lumped_mass(state.mesh), mu=2.0, trials=1000)

    mesh = lshape_mesh(8)
    params = SchemeParams(
        kappa=10.0, sigma=1.0, T=20.0, tau=0.2, mu=2.0, H=0.0, psi0=1.0 + 0.0j
    )
    steady = quiet_run(mesh, params)
    dev_psi = float(np.max(np.abs(steady.psi - 1.0)))
    dev_A = float(np.max(np.abs(steady.A))) if steady.A.size else 0.0
    energy0 = abs(steady.history[0].total)

    ok = (
        audit.trials == 1000
        and audit.contraction_violations == 0
        and audit.negativedef_violations == 0
        and steady.n == 100
        and dev_psi <= 1e-9
        and dev_A <= 1e-9
        and energy0 <= 1e-12
    )
    detail = (
        f"0 violations in {audit.trials} trials, steady-state drift "
        f"|psi-1| {dev_psi:.1e}, |A| {dev_A:.1e}, ground energy {energy0:.1e}"
    )
    report(6, "operator structure and steady state", ok, detail)


def test_criterion_7_adaptive_saturation_and_determinism(lshape_runs, report):
    state = lshape_runs["adaptive"]
    late = [row for row in state.history[1:] if row.t > 15.0]
    saturated = bool(late) and all(row.tau == 0.2 for row in late)

    rerun = quiet_run(state.mesh, lshape_params(AdaptiveTau()))
    identical = (
        format_timeseries_csv(state.history).encode()
        == format_timeseries_csv(rerun.history).encode()
    )
    ok = saturated and identical
    report(7, "adaptive saturation and reproducibility", ok,
           f"{len(late)} steps past the transient, csv identical: {identical}")
