import math

import numpy as np
import pytest

from magnon_memory import (
    BosonModel,
    DomainError,
    FockBasis,
    JointState,
    PhysicalParams,
    QubitState,
    RegimeError,
    StoredState,
    chi_spectrum,
    evolve_constant,
    gaussian_profile,
    homogeneous_profile,
    ideal_store_map,
    map_fidelity,
    process_fidelity_roundtrip,
    retrieve,
    round_trip,
    store,
    store_outcome,
    swap_time,
    trace_distance,
    uhlmann_fidelity,
)
from magnon_memory.protocol import _evolved_branches, roundtrip_unitary


def _model(N=8, lam=1.0, **kwargs):
    params = PhysicalParams(N=N, lam=lam, **kwargs)
    return BosonModel(params, chi_spectrum(homogeneous_profile(N, lam)))


SQRT_HALF = 1.0 / math.sqrt(2.0)


def _branches_at_t0(out):
    """The evolved eigenbranches a Fock-basis store reduced to its stored state."""
    return _evolved_branches(out.rho, out.model, out.occupations,
                             swap_time(out.model.params))


class TestQubitState:
    def test_constructors(self):
        up = QubitState.up()
        assert up.rho[0, 0] == 1.0
        mix = QubitState.mixed_diagonal(0.3, 0.7)
        assert mix.purity() == pytest.approx(0.58)

    @pytest.mark.parametrize("mat", [
        [[0.5, 0.5], [0.4, 0.5]],            # not Hermitian
        [[0.8, 0.0], [0.0, 0.8]],            # trace != 1
        [[1.2, 0.0], [0.0, -0.2]],           # negative eigenvalue
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],  # wrong shape
    ])
    def test_invalid_rejected(self, mat):
        with pytest.raises(DomainError):
            QubitState(np.array(mat, dtype=complex))


class TestIdealStoreMap:
    def test_dark_state_stays(self):
        w = ideal_store_map(QubitState.down()).w
        assert np.allclose(w, np.diag([1.0, 0.0]), atol=1e-15)

    def test_full_swap(self):
        w = ideal_store_map(QubitState.up()).w
        assert np.allclose(w, np.diag([0.0, 1.0]), atol=1e-15)

    def test_superposition_picks_up_quarter_phase(self):
        # (|+> + |->)/sqrt(2)  ->  (|0> - i |1>)/sqrt(2)
        rho = QubitState.pure(SQRT_HALF, SQRT_HALF)
        w = ideal_store_map(rho).w
        expected = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        assert np.max(np.abs(w - expected)) < 1e-14

    def test_mixed_diagonal_swaps_populations(self):
        w = ideal_store_map(QubitState.mixed_diagonal(0.3, 0.7)).w
        assert np.allclose(w, np.diag([0.7, 0.3]), atol=1e-15)

    def test_purity_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = QubitState.pure(*v)
            assert ideal_store_map(rho).purity() == pytest.approx(
                rho.purity(), abs=1e-12)

    def test_purity_preserved_for_mixed_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = m @ m.conj().T
            rho = QubitState(m / np.trace(m).real)
            w = ideal_store_map(rho)
            assert w.purity() == pytest.approx(rho.purity(), abs=1e-12)

    def test_equals_relabelling_plus_diagonal_phase(self):
        # the map is diag(1, -i) once the bases are cross-aligned
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = np.diag([1, -1j])
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = QubitState.pure(*v)
            relabelled = swap @ rho.rho @ swap
            expected = d @ relabelled @ d.conj().T
            assert np.max(np.abs(ideal_store_map(rho).w - expected)) < 1e-14


class TestStore:
    def test_homogeneous_matches_ideal_map(self):
        model = _model(N=8)
        for rho in QubitState.pauli_inputs():
            got, leak = store(rho, model)
            want = ideal_store_map(rho)
            assert trace_distance(got.w, want.w) <= 1e-10
            assert leak <= 1e-10

    def test_large_ring_fast_path(self):
        model = _model(N=100)
        rho = QubitState.pure(SQRT_HALF, 1j * SQRT_HALF)
        got, leak = store(rho, model)
        assert trace_distance(got.w, ideal_store_map(rho).w) <= 1e-10
        assert leak <= 1e-10

    def test_mixed_input_by_purification(self):
        model = _model(N=6)
        got, _ = store(QubitState.mixed_diagonal(0.3, 0.7), model)
        assert np.allclose(got.w, np.diag([0.7, 0.3]), atol=1e-10)

    def test_requires_resonance(self):
        model = _model(N=4, B0=0.4)
        with pytest.raises(RegimeError):
            store(QubitState.up(), model)

    def test_memory_mode_must_start_in_vacuum(self):
        model = _model(N=4)
        with pytest.raises(DomainError):
            store(QubitState.up(), model, spectator_occupations={4: 1})

    @pytest.mark.parametrize("mode", [2, 7])
    def test_spectator_outside_active_modes_is_a_domain_error(self, mode):
        # mode 2 is pruned on a homogeneous ring (chi_2 = 0), mode 7 > N
        model = BosonModel(PhysicalParams(N=4, J=1.0),
                           chi_spectrum(homogeneous_profile(4)))
        with pytest.raises(DomainError, match="not an active mode"):
            store(QubitState.up(), model, {mode: 1})

    def test_spectator_occupations_do_not_matter(self):
        params = PhysicalParams(N=3, J=1.1, B0=0.0)
        chi = chi_spectrum(homogeneous_profile(3))
        model = BosonModel(params, chi, fock_cutoff=1, chi_threshold=0.0)
        rho = QubitState.pure(SQRT_HALF, SQRT_HALF)
        w_vac, leak_vac = store(rho, model)
        w_exc, leak_exc = store(rho, model, spectator_occupations={1: 1, 2: 1})
        assert trace_distance(w_vac.w, w_exc.w) <= 1e-10
        assert leak_exc <= 1e-10

    @pytest.mark.parametrize("cutoff, occupations", [(2, {1: 1}), (1, {1: 2})])
    def test_memory_mode_reaching_two_quanta(self, cutoff, occupations):
        # a spectator quantum can move into the memory mode: its n_N >= 2
        # population goes to w_00, so w keeps unit trace, and it is leaked
        model = BosonModel(PhysicalParams(N=4, J=1.0),
                           chi_spectrum(gaussian_profile(4, 1.0)), fock_cutoff=cutoff)
        out = store_outcome(QubitState.up(), model, occupations)
        reduced = sum(p * final.basis.reduce_mode(final.vector, 4)
                      for p, final in _branches_at_t0(out))
        dropped = np.trace(reduced[2:, 2:]).real
        assert dropped > 1e-4
        w = out.stored.w
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
        assert w[0, 0].real == pytest.approx(reduced[0, 0].real + dropped, abs=1e-15)
        assert np.max(np.abs(w[:, 1] - reduced[:2, 1])) <= 1e-15
        assert out.leakage >= dropped

    def test_cutoff_one_store_is_the_reduced_block(self):
        model = BosonModel(PhysicalParams(N=6, J=1.0),
                           chi_spectrum(gaussian_profile(6, 1.5)))
        out = store_outcome(QubitState.pure(0.6, 0.8), model, {1: 1})
        reduced = sum(p * final.basis.reduce_mode(final.vector, 6)
                      for p, final in _branches_at_t0(out))
        assert reduced.shape == (2, 2)
        assert np.array_equal(out.stored.w, reduced)

    def test_inhomogeneous_coupling_leaks(self):
        # survival 1 - leakage tracks the analytic decay estimate
        from magnon_memory import (
            LargeNFidelityParams,
            decay_rate,
            default_broadening,
            effective_coupling,
            fidelity_large_n,
            swap_time,
        )
        N = 100
        g = 0.05
        J = 2 * g / (2 * 0.5 * (1 - math.cos(2 * math.pi / N)))
        params = PhysicalParams(N=N, s=0.5, J=J, B0=0.0)
        chi = chi_spectrum(gaussian_profile(N, 0.1 * N))
        model = BosonModel(params, chi)
        _, leak = store(QubitState.pure(SQRT_HALF, SQRT_HALF), model)
        assert leak > 0.0
        gamma = decay_rate(params, chi, default_broadening(params))
        estimate = fidelity_large_n(
            swap_time(params), LargeNFidelityParams(gamma, effective_coupling(params)))
        assert abs((1.0 - leak) - estimate) <= 0.05


class TestRetrieve:
    def test_round_trip_dark_state(self):
        model = _model(N=6)
        out = round_trip(QubitState.down(), model)
        assert np.allclose(out.rho, QubitState.down().rho, atol=1e-12)

    def test_round_trip_up_state(self):
        model = _model(N=6)
        out = round_trip(QubitState.up(), model)
        assert np.allclose(out.rho, QubitState.up().rho, atol=1e-10)

    def test_round_trip_superposition_is_unitary(self):
        model = _model(N=6)
        rho = QubitState.pure(SQRT_HALF, SQRT_HALF)
        out = round_trip(rho, model)
        assert out.purity() == pytest.approx(1.0, abs=1e-10)
        u = roundtrip_unitary()
        expected = u @ rho.rho @ u.conj().T
        assert np.max(np.abs(out.rho - expected)) < 1e-10

    def test_process_fidelity(self):
        assert process_fidelity_roundtrip(_model(N=8)) >= 1.0 - 1e-9

    @pytest.mark.parametrize("N, k", [(4, 1), (5, 2), (6, 3)])
    def test_fock_read_matches_dense_reference(self, N, k):
        # a gaussian ring couples the spectator, so its quantum takes part
        # in both steps; the reference evolves rho's eigenbranches (x) |1_k>
        # for 2 t0 in one go and reduces them to the electron
        model = BosonModel(PhysicalParams(N=N, J=1.0),
                           chi_spectrum(gaussian_profile(N, 1.0)))
        assert abs(model.chi.chi[k - 1]) > 0.03
        basis = FockBasis(model.active_modes, 1)
        occs = np.zeros(len(basis.modes), dtype=int)
        occs[basis.mode_position(k)] = 1
        t = 2.0 * swap_time(model.params)
        for rho in (QubitState.pure(0.6, 0.8j),
                    QubitState(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))):
            probs, vecs = np.linalg.eigh(rho.rho)
            ref = np.zeros((2, 2), dtype=complex)
            for p, amp in zip(np.clip(probs, 0.0, None), vecs.T):
                init = np.zeros(basis.dim, dtype=complex)
                init[basis.index(0, occs)], init[basis.index(1, occs)] = amp
                final = evolve_constant(model, JointState(init, basis), t)
                ref += p * basis.reduce_electron(final.vector)
            got = retrieve(store_outcome(rho, model, {k: 1})).rho
            assert np.max(np.abs(got - ref)) <= 1e-12
            # the occupied spectator changes what is read back
            assert np.max(np.abs(got - round_trip(rho, model).rho)) > 1e-5


class TestFidelities:
    def test_identical_states(self):
        rho = QubitState.pure(SQRT_HALF, SQRT_HALF)
        assert map_fidelity(rho, ideal_store_map(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        # ideal image of |-> is |0><0|; compare against |1><1|
        rho = QubitState.down()
        w = StoredState(np.diag([0.0, 1.0]).astype(complex))
        assert map_fidelity(rho, w) == pytest.approx(0.0, abs=1e-12)

    def test_small_orthogonal_admixture(self):
        # w = 0.99 ideal + 0.01 orthogonal -> F = sqrt(0.99)
        rho = QubitState.pure(SQRT_HALF, SQRT_HALF)
        ideal = ideal_store_map(rho).w
        vec = ideal[:, 0] / np.linalg.norm(ideal[:, 0])
        orth = np.array([-np.conj(vec[1]), np.conj(vec[0])])
        w = StoredState(0.99 * ideal + 0.01 * np.outer(orth, orth.conj()))
        assert map_fidelity(rho, w) == pytest.approx(math.sqrt(0.99), abs=1e-12)

    def test_uhlmann_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = a @ a.conj().T
            a /= np.trace(a).real
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = b @ b.conj().T
            b /= np.trace(b).real
            assert uhlmann_fidelity(a, b) == pytest.approx(
                uhlmann_fidelity(b, a), abs=1e-12)

    def test_trace_distance_basic(self):
        assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == 0.0
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)
