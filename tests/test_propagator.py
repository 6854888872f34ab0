"""The single-excitation propagator against the dense route.

The references below evolve states with ``evolve_constant`` (a complex
eigendecomposition of the full single-excitation Hamiltonian) and apply the
dense formulas: purified branches reduced to the memory mode, a Choi state
for the process fidelity and a second dense evolution for the ideal branch
of ``numeric_fidelity``.
"""

import json
import math

import numpy as np
import pytest

from magnon_memory import (
    BosonModel,
    ChiSpectrum,
    JointState,
    PhysicalParams,
    QubitState,
    SingleExcitationBasis,
    chi_spectrum,
    custom_profile,
    evolve_constant,
    gaussian_profile,
    homogeneous_profile,
    numeric_fidelity,
    process_fidelity_roundtrip,
    retrieve,
    round_trip,
    store,
    store_outcome,
    swap_time,
)
from magnon_memory import cli
from magnon_memory.boson import product_state

TOL = 1e-11


def _custom_chi(N):
    rng = np.random.default_rng(N)
    lambdas = rng.uniform(0.1, 1.0, N)
    lambdas[0] = 1.0
    return chi_spectrum(custom_profile(lambdas))


def _one_sided_chi(N):
    # chi_2 without its partner chi_{N-2}: half of a pair survives pruning
    chi = np.zeros(N, dtype=complex)
    chi[1] = 0.3 - 0.2j
    chi[-1] = 1.0
    return ChiSpectrum(chi)


# name -> (N, J, chi factory, chi_threshold)
CASES = {
    "homogeneous": (8, 1.0, lambda N: chi_spectrum(homogeneous_profile(N)), 1e-8),
    "gaussian-odd": (41, 3.0, lambda N: chi_spectrum(gaussian_profile(N, N / 5.0)), 1e-8),
    "gaussian-even": (40, 3.0, lambda N: chi_spectrum(gaussian_profile(N, N / 5.0)), 1e-8),
    "custom-odd": (25, 2.0, _custom_chi, 1e-8),
    "custom-J0": (24, 0.0, _custom_chi, 1e-8),
    "gaussian-pruned": (60, 4.0, lambda N: chi_spectrum(gaussian_profile(N, N / 4.0)), 1e-3),
    "one-sided-pair": (12, 1.5, _one_sided_chi, 1e-8),
    "homogeneous-unpruned": (9, 1.0, lambda N: chi_spectrum(homogeneous_profile(N)), 0.0),
}


def _model(case, B0=0.0):
    N, J, chi, threshold = CASES[case]
    return BosonModel(PhysicalParams(N=N, J=J, B0=B0), chi(N), chi_threshold=threshold)


def _dense_branches(rho, model, t):
    basis = SingleExcitationBasis(model.active_modes)
    probs, vecs = np.linalg.eigh(rho.rho)
    out = []
    for p, amp in zip(np.clip(probs, 0.0, None), vecs.T):
        init = np.zeros(basis.dim, dtype=complex)
        init[0], init[1] = amp
        out.append((p, evolve_constant(model, JointState(init, basis), t)))
    return out


def _dense_store(rho, model):
    N = model.params.N
    w, leakage = np.zeros((2, 2), dtype=complex), 0.0
    for p, final in _dense_branches(rho, model, swap_time(model.params)):
        vec, basis = final.vector, final.basis
        w += p * basis.reduce_mode(vec, N)
        leakage += p * (1.0 - abs(vec[1]) ** 2 - abs(vec[2 + basis.mode_position(N)]) ** 2)
    return w, leakage


def _dense_round_trip(rho, model):
    t = 2.0 * swap_time(model.params)
    return sum(p * f.basis.reduce_electron(f.vector) for p, f in _dense_branches(rho, model, t))


def _dense_process_fidelity(model):
    t = 2.0 * swap_time(model.params)
    finals = [evolve_constant(model, product_state(model, e), t).vector for e in (0, 1)]
    choi = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            pi, pj = finals[i], finals[j]
            block = np.outer(pi[:2], pj[:2].conj())
            block[1, 1] += pi[2:] @ pj[2:].conj()
            choi[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block / 2.0
    bell = np.array([-1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)  # columns of diag(-1, 1)
    return float(np.real(bell @ choi @ bell))


def _dense_numeric_fidelity(model, t_grid):
    params = model.params
    ideal = BosonModel(params, chi_spectrum(homogeneous_profile(params.N)))
    n_pos = 2 + SingleExcitationBasis(model.active_modes).mode_position(params.N)
    f = []
    for t in t_grid:
        states = []
        for m in (ideal, model):
            psi0 = JointState(np.r_[1.0, 1.0, np.zeros(len(m.active_modes))] / math.sqrt(2.0),
                              SingleExcitationBasis(m.active_modes))
            states.append(evolve_constant(m, psi0, t).vector)
        psi, psi_real = states
        f.append(abs(np.vdot(psi[:2], psi_real[:2]) + np.conj(psi[2]) * psi_real[n_pos]))
    return np.array(f)


@pytest.mark.parametrize("B0", [0.0, 0.35])
@pytest.mark.parametrize("case", CASES)
def test_state_matches_dense_evolution(case, B0):
    model = _model(case, B0)
    prop = model.propagator
    psi0 = product_state(model, electron=0)
    for t in (0.0, 2.7, swap_time(model.params), 2.0 * swap_time(model.params)):
        dense = evolve_constant(model, psi0, t).vector
        assert np.max(np.abs(prop.state(t) - dense)) <= TOL
        a, b = prop.amplitudes(t)
        assert abs(a[0] - dense[0]) <= TOL
        assert abs(b[0] - dense[-1]) <= TOL


@pytest.mark.parametrize("case", CASES)
def test_weights_on_up_state_sum_to_one(case):
    weights = _model(case).propagator.vectors[0] ** 2
    assert abs(np.sum(weights) - 1.0) <= 1e-12


def test_spectator_pairs_are_deflated():
    # every spectator pair {k, N - k} is one row: N/2 + 2 rows at even N
    # (k = N/2 pairs with itself), (N + 3)/2 at odd N
    for N in (40, 41, 600):
        model = BosonModel(PhysicalParams(N=N, J=3.0),
                           chi_spectrum(gaussian_profile(N, N / 5.0)), chi_threshold=0.0)
        assert model.propagator.energies.size == N // 2 + 2
        assert abs(np.sum(model.propagator.vectors[0] ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_protocol_matches_dense_formulas(case):
    model = _model(case)
    s = 1.0 / math.sqrt(2.0)
    for rho in (QubitState.pure(s, 0.6 * s + 0.8j * s), QubitState.up(),
                QubitState(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))):
        stored, leakage = store(rho, model)
        w_ref, leak_ref = _dense_store(rho, model)
        assert np.max(np.abs(stored.w - w_ref)) <= TOL
        assert abs(leakage - leak_ref) <= TOL
        out = round_trip(rho, model)
        assert np.max(np.abs(out.rho - _dense_round_trip(rho, model))) <= TOL
    assert abs(process_fidelity_roundtrip(model) - _dense_process_fidelity(model)) <= TOL


@pytest.mark.parametrize("B0", [0.0, -0.3])
@pytest.mark.parametrize("case", CASES)
def test_numeric_fidelity_matches_dense_overlap(case, B0):
    model = _model(case, B0)
    grid = np.linspace(0.0, 2.0 * swap_time(model.params), 7)
    got = numeric_fidelity(model, grid).f
    assert np.max(np.abs(got - np.minimum(_dense_numeric_fidelity(model, grid), 1.0))) <= TOL


def test_branches_rebuild_the_closed_form_round_trip():
    # read back with an equal but distinct model, retrieve evolves the
    # purified branches densely instead of using a(2 t0)
    model = _model("gaussian-even")
    twin = BosonModel(model.params, model.chi)
    rho = QubitState(np.array([[0.4, 0.25j], [-0.25j, 0.6]]))
    outcome = store_outcome(rho, model)
    assert len(outcome.branches) == 2
    via_branches = retrieve(outcome, twin).rho
    assert np.max(np.abs(via_branches - retrieve(outcome).rho)) <= TOL


def test_fock_outcome_round_trip():
    # decoupled spectators stay frozen: the round trip is diag(-1, 1)
    params = PhysicalParams(N=3, J=1.1, B0=0.0)
    model = BosonModel(params, chi_spectrum(homogeneous_profile(3)), chi_threshold=0.0)
    s = 1.0 / math.sqrt(2.0)
    rho = QubitState.pure(s, 1j * s)
    outcome = store_outcome(rho, model, spectator_occupations={1: 1})
    u = np.diag([-1.0, 1.0])
    assert np.max(np.abs(retrieve(outcome).rho - u @ rho.rho @ u)) <= 1e-10


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


_PARAMS = {"N": 120, "s": 0.5, "J": 20.0, "B0": 0.0, "lambda": 1.0,
           "g_e": 1.0, "g_n": 1.0, "mu_B": 1.0, "mu_n": 1.0}


def test_sweep_point_makes_one_eigensolve(eigh_calls):
    cfg = cli.RunConfig.from_dict(
        {"params": _PARAMS, "profile": {"kind": "gaussian", "sigma": 20.0}})
    row = cli._sweep_point(cfg, {"sigma": 30.0})
    assert row["error"] == ""
    assert eigh_calls == [(62, 62)]


def test_retrieve_command_makes_one_eigensolve(eigh_calls, tmp_path):
    cfg = {"params": _PARAMS, "profile": {"kind": "gaussian", "sigma": 20.0},
           "rho": [[[0.6, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.4, 0.0]]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "retrieve"]) == 0
    assert eigh_calls == [(62, 62)]
