import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tdglfem.stepper as stepper
from tdglfem.config import RunConfig, materialize
from tdglfem.fem import assemble_Lhat, lumped_mass, num_edge_dofs
from tdglfem.linalg import RECENT_LEVELS
from tdglfem.mesh import Mesh, generate_uniform_square
from tdglfem.scenarios import lshape_mesh, unit_square_mesh
from tdglfem.stepper import (
    AdaptiveTau,
    NonFiniteStateError,
    SchemeParams,
    ViolationError,
    adaptive_tau,
    initialize,
    run,
    step_A,
    step_psi,
)

from oracles import dense_phi_oracle, interpolate_edge


def quiet_params(**kw):
    base = dict(kappa=1.0, T=1.0, tau=0.25)
    base.update(kw)
    return SchemeParams(**base)


# -- parameter validation ------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"kappa": 0.0},
        {"kappa": -1.0},
        {"sigma": -2.0},
        {"T": -1.0},
        {"mu": "bogus"},
        {"mu": -3.0},
        {"tau": 0.0},
        {"checks": "maybe"},
        {"checks": ""},
        {"kappa": math.inf},
        {"T": math.inf},
        {"tau": math.inf},
        {"sigma": math.inf},
        {"mu": math.inf},
        {"H": math.nan},
        {"H": -math.inf},
        {"psi0": complex(math.nan, 0.0)},
        {"psi0": complex(0.0, math.inf)},
        {"tau": 1e-300},
        {"T": 100.0, "tau": 0.99e-7},
        {"T": 0.5, "tau": AdaptiveTau(tau_min=0.99e-9)},
    ],
)
def test_params_validation(kw):
    with pytest.raises(ValueError):
        quiet_params(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        {"tau_min": 0.0},
        {"tau_min": 0.3, "tau_max": 0.2},
        {"alpha": -1.0},
        {"alpha": math.inf},
        {"tau_max": math.inf},
        {"tau_min": math.inf, "tau_max": math.inf},
    ],
)
def test_adaptive_policy_validation(kw):
    with pytest.raises(ValueError):
        AdaptiveTau(**kw)


def test_params_accept_step_at_time_resolution():
    # the run loop stops within 1e-9 max(1, T) of T; a shorter step is refused
    assert quiet_params(T=0.5, tau=1e-9).tau == 1e-9
    assert quiet_params(T=0.5, tau=AdaptiveTau(tau_min=1e-9)).tau.tau_min == 1e-9


def test_h_stationary_inference():
    # a constant field is stationary, a callable one is treated as time dependent
    assert not quiet_params(H=lambda x, y, t: x).dissipation_guaranteed
    assert quiet_params(forcing_psi=lambda x, y, t: 0j).dissipation_guaranteed is False
    assert quiet_params(H=2.0).dissipation_guaranteed


# -- stabilization shift ---------------------------------------------------------


def test_choose_mu_fixed_floor(square2):
    state = initialize_quiet(square2, mu=5.0)
    assert stepper._mu_for(square2, state.A, quiet_params(mu=5.0)) == 5.0
    assert stepper._mu_for(square2, state.A, quiet_params(mu=0.5)) == 2.0


def test_choose_mu_auto(square2):
    params = quiet_params(mu="auto")
    # zero potential: the floor applies
    assert stepper._mu_for(square2, np.zeros(num_edge_dofs(square2)), params) == 2.0
    A = interpolate_edge(square2, lambda x, y: (0 * x, 0 * y + 4.0))
    # 0.375 * MU_SAFETY * 16 = 12
    assert stepper.MU_SAFETY == 2.0
    assert stepper._mu_for(square2, A, params) == pytest.approx(12.0, rel=1e-13)


def initialize_quiet(mesh, **kw):
    params = quiet_params(**kw)
    with pytest.warns(UserWarning, match="weakly acute"):
        return initialize(mesh, params.A0, params.psi0, params)


# -- adaptive controller ---------------------------------------------------------


def test_adaptive_startup():
    pol = AdaptiveTau()
    assert adaptive_tau([], 0.1, pol) == pol.tau_min
    assert adaptive_tau([5.0], 0.1, pol) == pol.tau_min


def test_adaptive_reference_value():
    # slope (G[-1]-G[-2])/tau_prev = -1e-2: tau = 0.2/sqrt(11)
    pol = AdaptiveTau()
    tau = adaptive_tau([1.0, 1.0 - 1e-3], 0.1, pol)
    assert tau == pytest.approx(0.06030226891555273, abs=1e-15)


def test_adaptive_bounds():
    pol = AdaptiveTau()
    assert adaptive_tau([1.0, 0.0], 1e-6, pol) == pol.tau_min  # huge slope
    assert adaptive_tau([1.0, 1.0], 0.1, pol) == pol.tau_max  # flat


def test_adaptive_snap_window():
    pol = AdaptiveTau()
    # slope small enough that the raw formula lands within 2% of tau_max
    slope = 3e-4
    raw = pol.tau_max / math.sqrt(1 + pol.alpha * slope**2)
    assert raw < pol.tau_max
    assert raw >= 0.98 * pol.tau_max
    assert adaptive_tau([1.0, 1.0 - slope * 0.1], 0.1, pol) == pol.tau_max
    # just outside the window the raw value comes through
    slope = 1e-3
    raw = pol.tau_max / math.sqrt(1 + pol.alpha * slope**2)
    assert pol.tau_min < raw < 0.98 * pol.tau_max
    assert adaptive_tau([1.0, 1.0 - slope * 0.1], 0.1, pol) == pytest.approx(raw, rel=1e-13)


# -- initialization ------------------------------------------------------------


def test_initialize_refuses_obtuse():
    mesh = Mesh.from_cells(
        np.array([[0.0, 0.0], [4.0, 0.0], [0.2, 0.2]]), np.array([[0, 1, 2]])
    )
    with pytest.raises(ValueError, match="obtuse"):
        initialize(mesh, None, 1.0 + 0j, quiet_params())


def test_initialize_warns_weakly_acute(square2):
    with pytest.warns(UserWarning, match="weakly acute"):
        state = initialize(square2, None, 1.0 + 0j, quiet_params())
    assert state.mbp_guaranteed


def test_initialize_strict_acute_rejects(square2):
    with pytest.raises(ValueError, match="strict_acute"):
        initialize(square2, None, 1.0 + 0j, quiet_params(strict_acute=True))


def test_initialize_strictly_acute_mesh_quiet(recwarn):
    mesh = Mesh.from_cells(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
        np.array([[0, 1, 2]]),
    )
    initialize(mesh, None, 1.0 + 0j, quiet_params())
    assert not [w for w in recwarn if "acute" in str(w.message)]


def test_initialize_large_psi0_disables_guarantee(square2):
    with pytest.warns(UserWarning, match="modulus"):
        state = initialize(square2, None, 2.0 + 0j, quiet_params())
    assert not state.mbp_guaranteed


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_initialize_rejects_nonfinite_data(square2):
    def psi0(x, y):
        return np.where(x > 0.5, np.nan, 1.0) + 0j

    with pytest.raises(ValueError, match="psi0"):
        initialize(square2, None, psi0, quiet_params())
    A0 = np.zeros(num_edge_dofs(square2))
    A0[3] = math.nan
    with pytest.raises(ValueError, match="A0"):
        initialize(square2, A0, 1.0 + 0j, quiet_params())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "kw, term, value",
    [
        (dict(H=1e308), "magnetic", "inf"),
        (dict(kappa=1e-300), "covariant", "nan"),
        (dict(psi0=1e200 + 0j), "potential", "inf"),
    ],
    ids=["H", "kappa", "psi0"],
)
def test_initialize_refuses_nonfinite_energy(square2, kw, term, value):
    # finite data whose initial energy overflows: no later energy check could fire
    params = quiet_params(**kw)
    with pytest.raises(ValueError, match=f"initial {term} energy is not finite: {value}"):
        initialize(square2, params.A0, params.psi0, params)


def test_initialize_records_t0(square2):
    state = initialize_quiet(square2)
    assert state.t == 0.0
    assert state.n == 0
    assert len(state.history) == 1
    assert state.history[0].t == 0.0
    assert state.history[0].tau == 0.0
    assert not state.violations


def test_initialize_A0_variants(square2):
    params = quiet_params()
    vec = interpolate_edge(square2, lambda x, y: (-y, x))
    with pytest.warns(UserWarning):
        by_vec = initialize(square2, vec, 1.0 + 0j, params)
    np.testing.assert_array_equal(by_vec.A, vec)
    with pytest.warns(UserWarning):
        by_pair = initialize(
            square2,
            (lambda x, y: (-y, x), lambda x, y: np.broadcast_to(2.0, np.shape(x))),
            1.0 + 0j,
            params,
        )
    np.testing.assert_allclose(by_pair.A, vec, atol=1e-10)


# -- stepping ------------------------------------------------------------------


def test_steady_state_preserved(square4):
    params = quiet_params(T=1.0, tau=0.2, H=0.0, psi0=1.0 + 0j)
    with pytest.warns(UserWarning):
        state = run(square4, params)
    assert state.n == 5
    np.testing.assert_allclose(state.psi, 1.0, atol=1e-12)
    np.testing.assert_allclose(state.A, 0.0, atol=1e-12)
    assert abs(state.history[-1].total) < 1e-12


def test_run_T0_returns_initial(square2):
    with pytest.warns(UserWarning):
        state = run(square2, quiet_params(T=0.0))
    assert state.n == 0
    assert len(state.history) == 1


def test_run_step_counts(square2):
    with pytest.warns(UserWarning):
        state = run(square2, quiet_params(T=1.0, tau=0.25))
    assert state.n == 4
    assert state.t == pytest.approx(1.0, abs=1e-12)
    # the loop does not clip: a non-divisor step overshoots T
    with pytest.warns(UserWarning):
        over = run(square2, quiet_params(T=1.0, tau=0.3))
    assert over.n == 4
    assert over.t == pytest.approx(1.2, abs=1e-12)


def test_run_matches_manual_steps(square2):
    params = quiet_params(T=0.25, tau=0.25, psi0=0.6 + 0.8j, H=1.0)
    with pytest.warns(UserWarning):
        state0 = initialize(square2, params.A0, params.psi0, params)
    A1 = step_A(state0, params, 0.25, 0.25)
    psi1 = step_psi(state0, params, A1, assemble_Lhat(square2, A1, params.kappa), 0.25)
    with pytest.warns(UserWarning):
        state = run(square2, params)
    np.testing.assert_allclose(state.A, A1, atol=1e-14)
    np.testing.assert_allclose(state.psi, psi1, atol=1e-14)


def two_action_step(state, params, A_new, tau):
    """``exp(tau L) psi - tau phi1(tau L) F`` by dense eigendecomposition."""
    mesh, psi = state.mesh, state.psi
    Lhat = assemble_Lhat(mesh, A_new, params.kappa)
    d = lumped_mass(mesh)
    mu = stepper._mu_for(mesh, A_new, params)
    F = (1.0 + mu - np.abs(psi) ** 2) * psi
    if params.forcing_psi is not None:
        F = F + params.forcing_psi(mesh.vertices[:, 0], mesh.vertices[:, 1], state.t)
    return (dense_phi_oracle(Lhat, d, mu, tau, psi, "phi0")
            - tau * dense_phi_oracle(Lhat, d, mu, tau, F, "phi1"))


@pytest.mark.filterwarnings("ignore:mesh is weakly acute", "ignore:initial order parameter")
@pytest.mark.parametrize("mesh", [unit_square_mesh(8), lshape_mesh(8)], ids=["square8", "lshape8"])
@pytest.mark.parametrize("tau", [1.0 / 8, 0.2, 1.0])
def test_step_psi_matches_dense_two_action_step(mesh, tau):
    params = materialize(RunConfig(scenario="manufactured", M=8, tau=tau, mu="auto")).params
    state = initialize(mesh, params.A0, params.psi0, params)
    A_new = step_A(state, params, tau, tau)
    got = step_psi(state, params, A_new, assemble_Lhat(mesh, A_new, params.kappa), tau)
    want = two_action_step(state, params, A_new, tau)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("M", [16, 20])
@pytest.mark.parametrize("tau", ["1/M", 0.2, 1.0])
def test_step_psi_error_relative_to_psi_on_rough_state(M, tau):
    # the phi action's target scales with ||psi|| / tau as well as ||r||, so a
    # rough state, where tau ||r|| far exceeds ||psi||, loses no accuracy
    tau = 1.0 / M if tau == "1/M" else tau
    rng = np.random.default_rng(11)
    mesh = unit_square_mesh(M)
    n = mesh.num_vertices
    A = rng.standard_normal(num_edge_dofs(mesh))
    psi = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    params = quiet_params(mu="auto")
    state = stepper.SimulationState(mesh=mesh, A=A, psi=psi)
    got = step_psi(state, params, A, assemble_Lhat(mesh, A, params.kappa), tau)
    want = two_action_step(state, params, A, tau)
    assert np.linalg.norm(got - want) <= 2e-12 * np.linalg.norm(want)


def test_run_takes_one_phi_action_per_step(square4, monkeypatch):
    calls = []
    inner = stepper.phi_apply

    def counting(*args, **kwargs):
        calls.append(args[3])
        return inner(*args, **kwargs)

    monkeypatch.setattr(stepper, "phi_apply", counting)
    params = quiet_params(T=1.0, tau=AdaptiveTau(tau_min=0.1, tau_max=0.3), H=1.0, psi0=0.6 + 0.8j)
    with pytest.warns(UserWarning):
        state = run(square4, params)
    assert state.n >= 4
    assert calls == [row.tau for row in state.history[1:]]


def test_run_assembles_Lhat_once_per_level(square4, monkeypatch):
    # one Lhat per accepted step plus one at t = 0, shared by the psi-step
    # and the recorded energy
    calls = []
    inner = stepper.fem.assemble_Lhat

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(stepper.fem, "assemble_Lhat", counting)
    params = quiet_params(T=1.0, tau=AdaptiveTau(tau_min=0.1, tau_max=0.3), H=1.0, psi0=0.6 + 0.8j)
    with pytest.warns(UserWarning):
        state = run(square4, params)
    assert state.n >= 4
    assert len(calls) == state.n + 1
    np.testing.assert_array_equal(calls[-1], state.A)


def test_energy_decays_lshape_short():
    mesh = lshape_mesh(4)
    params = quiet_params(kappa=10.0, T=2.0, tau=0.2, H=5.0, psi0=0.6 + 0.8j)
    with pytest.warns(UserWarning):
        state = run(mesh, params)
    totals = [row.total for row in state.history]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
    assert totals[-1] < totals[0]
    assert max(row.max_psi for row in state.history) <= 1 + 1e-10


def test_run_adaptive_policy(square4):
    pol = AdaptiveTau(tau_min=0.05, tau_max=0.5)
    params = quiet_params(T=0.4, tau=pol)
    with pytest.warns(UserWarning):
        state = run(square4, params)
    # two startup steps at tau_min, then the controller takes over
    assert state.history[1].tau == 0.05
    assert state.history[2].tau == 0.05
    assert state.n >= 3


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_adaptive_reads_two_energies(monkeypatch):
    seen = []
    real = stepper.adaptive_tau

    def recording(energies, tau_prev, policy):
        seen.append(len(energies))
        return real(energies, tau_prev, policy)

    monkeypatch.setattr(stepper, "adaptive_tau", recording)
    pol = AdaptiveTau(alpha=10.0, tau_min=0.05, tau_max=0.5)
    state = run(lshape_mesh(4), quiet_params(kappa=3.0, T=2.0, H=2.0, tau=pol))
    assert seen == [0, 1] + [2] * (state.n - 2)
    # each step is the one the controller picks from every energy so far
    energies = [row.total for row in state.history[1:]]
    for k in range(1, state.n):
        assert state.history[k + 1].tau == real(energies[:k], state.history[k].tau, pol)
    assert len(set(row.tau for row in state.history[1:])) > 3


def test_snapshots_fire_once_each(square2):
    seen = []
    params = quiet_params(T=1.0, tau=0.25)
    with pytest.warns(UserWarning):
        run(
            square2,
            params,
            snapshot_times=(0.0, 0.45),
            on_snapshot=lambda state, t_nom: seen.append((t_nom, state.t)),
        )
    assert seen == [(0.0, 0.0), (0.45, 0.5)]


# -- violation handling ----------------------------------------------------------


def rigged_energy(monkeypatch):
    # replace the recorded energy with a strictly increasing sequence
    counter = {"k": 0}

    def fake(mesh, Lhat, A, psi, H, t):
        counter["k"] += 1
        return float(counter["k"]), 0.0, 0.0

    monkeypatch.setattr(stepper, "discrete_energy", fake)


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_energy_violation_warn(square2, monkeypatch):
    rigged_energy(monkeypatch)
    params = quiet_params(T=0.5, tau=0.25, checks="warn")
    with pytest.warns(UserWarning, match="energy grew") as record:
        state = run(square2, params)
    assert [str(w.message) for w in record if "grew" in str(w.message)] == [
        "energy grew from 1.0 to 2.0 at t=0.25", "energy grew from 2.0 to 3.0 at t=0.5"]
    assert state.violations == [(0.25, "energy", 2.0), (0.5, "energy", 3.0)]


def test_energy_violation_abort(square2, monkeypatch):
    rigged_energy(monkeypatch)
    params = quiet_params(T=0.5, tau=0.25, checks="abort")
    with pytest.warns(UserWarning):
        with pytest.raises(ViolationError, match="^energy grew from 1.0 to 2.0 at t=0.25$") as exc:
            run(square2, params)
    assert exc.value.state.violations == [(0.25, "energy", 2.0)]


def test_energy_violation_off(square2, monkeypatch):
    rigged_energy(monkeypatch)
    params = quiet_params(T=0.5, tau=0.25, checks="off")
    with pytest.warns(UserWarning):
        state = run(square2, params)
    assert not state.violations


def rigged_mbp(monkeypatch, value=2.0):
    # the one call of ``initialize`` sees clean initial data so the bound
    # stays armed, later calls report ``value``
    counter = {"k": 0}

    def fake(psi):
        counter["k"] += 1
        return (1.0, 0) if counter["k"] <= 1 else (value, 0)

    monkeypatch.setattr(stepper, "mbp_stats", fake)


def test_mbp_violation_abort(square2, monkeypatch):
    rigged_mbp(monkeypatch)
    params = quiet_params(T=0.5, tau=0.25, checks="abort")
    with pytest.warns(UserWarning):
        with pytest.raises(ViolationError, match="^nodal modulus reached 2.0 > 1 at t=0.25$"):
            run(square2, params)


def test_mbp_violation_warn(square2, monkeypatch):
    rigged_mbp(monkeypatch)
    params = quiet_params(T=0.5, tau=0.25, checks="warn")
    with pytest.warns(UserWarning, match="modulus"):
        state = run(square2, params)
    assert state.violations == [(0.25, "modulus", 2.0), (0.5, "modulus", 2.0)]


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_mbp_violation_off(square2, monkeypatch):
    rigged_mbp(monkeypatch)
    state = run(square2, quiet_params(T=0.5, tau=0.25, checks="off"))
    assert not state.violations


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
@pytest.mark.parametrize("checks", ["abort", "warn"])
def test_one_step_breaking_both_guarantees(square2, monkeypatch, checks):
    rigged_energy(monkeypatch)
    rigged_mbp(monkeypatch)
    message = "energy grew from 1.0 to 2.0 at t=0.25; nodal modulus reached 2.0 > 1 at t=0.25"
    params = quiet_params(T=0.25, tau=0.25, checks=checks)
    if checks == "abort":
        with pytest.raises(ViolationError) as exc:
            run(square2, params)
        assert str(exc.value) == message
        state = exc.value.state
    else:
        with pytest.warns(UserWarning) as record:
            state = run(square2, params)
        assert [str(w.message) for w in record if "grew" in str(w.message)] == [message]
    assert state.violations == [(0.25, "energy", 2.0), (0.25, "modulus", 2.0)]


@pytest.mark.parametrize("check", ["energy", "modulus"])
def test_checks_catch_nan(square2, monkeypatch, check):
    # the step itself is finite; the check's own quantity comes out NaN
    if check == "energy":
        counter = {"k": 0}
        real = stepper.discrete_energy

        def nan_energy(*args):
            counter["k"] += 1
            return real(*args) if counter["k"] == 1 else (math.nan, 0.0, 0.0)

        monkeypatch.setattr(stepper, "discrete_energy", nan_energy)
    else:
        rigged_mbp(monkeypatch, math.nan)
    params = quiet_params(T=0.5, tau=0.25, checks="abort")
    with pytest.warns(UserWarning, match="weakly acute"):
        with pytest.raises(ViolationError, match="nan") as exc:
            run(square2, params)
    assert [v[1] for v in exc.value.state.violations] == [check]


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_nonfinite_step_raises_at_once(square2, monkeypatch, recwarn):
    # the finiteness check runs first: no energy or modulus check sees the NaN
    monkeypatch.setattr(
        stepper, "step_psi", lambda state, *args: np.full_like(state.psi, math.nan)
    )
    for checks in ("warn", "abort", "off"):
        params = quiet_params(T=0.5, tau=0.25, checks=checks)
        with pytest.raises(NonFiniteStateError, match="psi is not finite at t=0.25") as exc:
            run(square2, params)
        assert not exc.value.state.violations
    assert not [w for w in recwarn if "weakly acute" not in str(w.message)]


def energy_norm(S, x):
    return math.sqrt(float(x @ (S @ x)))


@pytest.mark.filterwarnings("ignore:mesh is weakly acute")
def test_cg_starts_from_galerkin_projection(monkeypatch):
    calls = []
    real = stepper.cg_solve

    def recording(matrix, rhs, **kw):
        result = real(matrix, rhs, **kw)
        calls.append((matrix, rhs, np.array(kw["x0"]), result.x))
        return result

    monkeypatch.setattr(stepper, "cg_solve", recording)
    mesh = lshape_mesh(4)
    params = quiet_params(kappa=3.0, T=2.0, H=2.0, tau=AdaptiveTau(alpha=10.0, tau_min=0.05))
    state = run(mesh, params)
    taus = [row.tau for row in state.history[1:]]
    assert len(calls) == len(taus) > RECENT_LEVELS + 2 and len(set(taus)) > 2
    np.testing.assert_array_equal(calls[0][2], np.zeros(num_edge_dofs(mesh)))
    potentials = [x for *_, x in calls]
    for k in range(1, len(calls)):
        S, b, x0, _ = calls[k]
        # dense reference: the S-Galerkin projection onto the last min(k, 8) potentials
        Q, _ = np.linalg.qr(np.array(potentials[max(0, k - RECENT_LEVELS) : k]).T)
        want = Q @ np.linalg.solve(Q.T @ (S @ Q), Q.T @ b)
        assert np.linalg.norm(x0 - want) <= 1e-12 * np.linalg.norm(want)
        # never worse than the linear extrapolant of the last two potentials
        A_n = potentials[k - 1]
        extrapolant = A_n if k == 1 else A_n + (taus[k] / taus[k - 1]) * (A_n - potentials[k - 2])
        exact = spla.spsolve(S.tocsc(), b)
        assert energy_norm(S, x0 - exact) <= energy_norm(S, extrapolant - exact)
