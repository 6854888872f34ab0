import json

import numpy as np
import pytest

from magnon_memory import (
    BosonModel,
    DomainError,
    FockBasis,
    JointState,
    PhysicalParams,
    PulseShape,
    RegimeError,
    ResourceLimitError,
    SingleExcitationBasis,
    build_boson_hamiltonian,
    chi_spectrum,
    custom_profile,
    effective_coupling,
    evolve_constant,
    evolve_pulsed,
    gaussian_profile,
    homogeneous_profile,
    occupation,
    swap_time,
)
from magnon_memory.boson import excitation_diagonal, product_state


def _homogeneous_model(N=4, cutoff=1, **kwargs):
    params = PhysicalParams(N=N, **kwargs)
    return BosonModel(params, chi_spectrum(homogeneous_profile(N, params.lam)),
                      fock_cutoff=cutoff)


def _inhomogeneous_model(N=4, cutoff=1, threshold=1e-8, **kwargs):
    params = PhysicalParams(N=N, **kwargs)
    rng = np.random.default_rng(N)
    lambdas = rng.uniform(0.2, 1.0, N)
    lambdas[0] = params.lam
    chi = chi_spectrum(custom_profile(lambdas))
    return BosonModel(params, chi, fock_cutoff=cutoff, chi_threshold=threshold)


class TestModelAndBasis:
    def test_memory_mode_always_active(self):
        model = _homogeneous_model(N=6)
        assert model.active_modes == (6,)
        model = _inhomogeneous_model(N=6, J=1.0)
        assert 6 in model.active_modes

    def test_cutoff_validated(self):
        params = PhysicalParams(N=4)
        chi = chi_spectrum(homogeneous_profile(4))
        with pytest.raises(DomainError):
            BosonModel(params, chi, fock_cutoff=0)

    def test_chi_length_mismatch(self):
        with pytest.raises(DomainError):
            BosonModel(PhysicalParams(N=4), chi_spectrum(homogeneous_profile(5)))

    def test_fock_basis_cap(self):
        with pytest.raises(ResourceLimitError):
            FockBasis(tuple(range(1, 25)), cutoff=3)

    def test_resonant_jc_block_structure(self):
        # cutoff 1, memory mode only: the excited pair couples with g and
        # the dark state |-, 0> is completely decoupled
        model = _homogeneous_model(N=4, s=0.5, B0=0.0)
        basis = FockBasis(model.active_modes, 1)
        H = build_boson_hamiltonian(model, basis)
        g = effective_coupling(model.params)
        dark = basis.index(1, [0])
        assert np.max(np.abs(H[dark, :])) == 0.0
        assert H[basis.index(0, [0]), basis.index(1, [1])] == pytest.approx(g, abs=1e-15)
        assert np.max(np.abs(np.diag(H))) == 0.0

    def test_coupling_block_scales_with_lam(self):
        # decoupled limit: the electron-magnon block vanishes linearly in lam
        m1 = _inhomogeneous_model(N=5, J=0.9, B0=0.3, lam=1.0)
        m2 = BosonModel(PhysicalParams(N=5, J=0.9, B0=0.3, lam=2.0),
                        m1.chi, fock_cutoff=1)
        h1 = build_boson_hamiltonian(m1)
        h2 = build_boson_hamiltonian(m2)
        off1 = h1 - np.diag(np.diag(h1))
        off2 = h2 - np.diag(np.diag(h2))
        assert np.allclose(2.0 * off1, off2, atol=1e-14)

    def test_hermitian(self):
        for model in (_homogeneous_model(N=3, J=0.5, B0=0.7),
                      _inhomogeneous_model(N=5, J=1.0, B0=-0.2, cutoff=2)):
            H = build_boson_hamiltonian(model)
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_single_excitation_elements_match_chi(self):
        N = 100
        params = PhysicalParams(N=N, s=0.5, J=1.0)
        chi = chi_spectrum(gaussian_profile(N, 0.1 * N))
        model = BosonModel(params, chi)
        basis = SingleExcitationBasis(model.active_modes)
        H = build_boson_hamiltonian(model, basis)
        g = effective_coupling(params)
        for i, k in enumerate(basis.modes):
            expected = g if k == N else g * chi.value(k)
            assert abs(H[0, 2 + i] - expected) < 1e-12


class TestEvolution:
    def test_dark_state_is_stationary(self):
        model = _homogeneous_model(N=6, B0=0.0)
        dark = product_state(model, electron=1)
        for t in (0.5, 4.0, 33.0):
            out = evolve_constant(model, dark, t)
            assert np.max(np.abs(out.vector - dark.vector)) < 1e-12

    def test_full_swap_amplitude_and_phase(self):
        model = _homogeneous_model(N=8, B0=0.0)
        basis = SingleExcitationBasis(model.active_modes)
        psi = product_state(model, electron=0, basis=basis)
        out = evolve_constant(model, psi, swap_time(model.params)).vector
        n_idx = 2 + basis.mode_position(8)
        assert abs(out[n_idx] - (-1j)) < 1e-10
        assert abs(out[0]) < 1e-10

    def test_half_swap_equal_populations(self):
        model = _homogeneous_model(N=8, B0=0.0)
        basis = SingleExcitationBasis(model.active_modes)
        psi = product_state(model, electron=0, basis=basis)
        out = evolve_constant(model, psi, 0.5 * swap_time(model.params)).vector
        n_idx = 2 + basis.mode_position(8)
        assert abs(out[0]) ** 2 == pytest.approx(0.5, abs=1e-10)
        assert abs(out[n_idx]) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_truncation_independence_in_single_excitation_sector(self):
        params = PhysicalParams(N=4, J=0.8, B0=0.0)
        chi = chi_spectrum(custom_profile([1.0, 0.6, 0.9, 0.3]))
        outs = []
        for cutoff in (1, 3):
            model = BosonModel(params, chi, fock_cutoff=cutoff)
            basis = FockBasis(model.active_modes, cutoff)
            psi = product_state(model, electron=0, basis=basis)
            out = evolve_constant(model, psi, 2.7)
            pops = [occupation(out, k) for k in model.active_modes]
            outs.append(pops)
        assert np.allclose(outs[0], outs[1], atol=1e-12)

    def test_spectators_frozen_for_homogeneous_coupling(self):
        # force the decoupled spectators into the basis and start one in |1>
        params = PhysicalParams(N=3, J=1.2, B0=0.0)
        chi = chi_spectrum(homogeneous_profile(3))
        model = BosonModel(params, chi, fock_cutoff=2, chi_threshold=0.0)
        assert model.active_modes == (1, 2, 3)
        basis = FockBasis(model.active_modes, 2)
        psi = product_state(model, electron=0, occupations=[1, 0, 0], basis=basis)
        out = evolve_constant(model, psi, 1.9)
        assert occupation(out, 1) == pytest.approx(1.0, abs=1e-12)
        assert occupation(out, 2) == pytest.approx(0.0, abs=1e-12)

    def test_excitation_conserved(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            model = _inhomogeneous_model(
                N=int(rng.integers(3, 6)), cutoff=2,
                J=float(rng.uniform(0.1, 2.0)), B0=float(rng.uniform(-1, 1)))
            H = build_boson_hamiltonian(model)
            c = excitation_diagonal(FockBasis(model.active_modes, 2))
            comm = H * (c[None, :] - c[:, None])
            assert np.max(np.abs(comm)) < 1e-10

    def test_basis_model_mismatch_rejected(self):
        m1 = _homogeneous_model(N=4)
        m2 = _inhomogeneous_model(N=4, J=1.0)
        psi = product_state(m2, electron=1)
        with pytest.raises(DomainError):
            evolve_constant(m1, psi, 1.0)


class TestPulses:
    def test_rectangular_equals_constant(self):
        model = _homogeneous_model(N=4, B0=0.0)
        t0 = swap_time(model.params)
        psi = product_state(model, electron=0)
        pulse = PulseShape.rectangular(model.params.lam, t0)
        a = evolve_pulsed(model, psi, pulse).vector
        b = evolve_constant(model, psi, t0).vector
        assert np.max(np.abs(a - b)) < 1e-12

    def test_equal_area_pulses_agree(self):
        model = _homogeneous_model(N=4, B0=0.0)
        t0 = swap_time(model.params)
        psi = product_state(model, electron=0)
        rect = PulseShape.rectangular(model.params.lam, t0)
        ramp = PulseShape.gaussian_ramp(2.0, 3.0 * t0).with_area(rect.area)
        assert ramp.area == pytest.approx(rect.area, rel=1e-12)
        a = evolve_pulsed(model, psi, rect).vector
        b = evolve_pulsed(model, psi, ramp).vector
        assert np.max(np.abs(a - b)) < 1e-10

    def test_zero_area_is_identity(self):
        model = _homogeneous_model(N=4, B0=0.0)
        psi = product_state(model, electron=0)
        pulse = PulseShape.rectangular(0.0, 1.0)
        out = evolve_pulsed(model, psi, pulse)
        assert np.max(np.abs(out.vector - psi.vector)) < 1e-12

    def test_off_resonance_rejected(self):
        model = _homogeneous_model(N=4, B0=0.5)
        psi = product_state(model, electron=0)
        with pytest.raises(RegimeError):
            evolve_pulsed(model, psi, PulseShape.rectangular(1.0, 1.0))

    @staticmethod
    def _gaussian_ring(J):
        params = PhysicalParams(N=8, s=0.5, J=J, B0=0.0)
        return BosonModel(params, chi_spectrum(gaussian_profile(8, 1.5)))

    def test_spectator_off_memory_frequency_rejected(self):
        # omega_k != omega_N for an active spectator: the couplings at
        # different times do not commute, so the area shortcut is wrong
        model = self._gaussian_ring(J=1.0)
        assert len(model.active_modes) > 1
        psi = product_state(model, electron=0)
        with pytest.raises(RegimeError, match="omega_N"):
            evolve_pulsed(model, psi, PulseShape.rectangular(1.0, 1.0))

    def test_spectators_at_memory_frequency_allowed(self):
        # J = 0: every spectator sits at omega_N, so only the area matters
        model = self._gaussian_ring(J=0.0)
        assert len(model.active_modes) > 1
        t0 = swap_time(model.params)
        psi = product_state(model, electron=0)
        rect = PulseShape.rectangular(model.params.lam, t0)
        ramp = PulseShape.gaussian_ramp(2.0, 3.0 * t0).with_area(rect.area)
        a = evolve_pulsed(model, psi, rect).vector
        b = evolve_pulsed(model, psi, ramp).vector
        c = evolve_constant(model, psi, t0).vector
        assert np.max(np.abs(a - c)) < 1e-12
        assert np.max(np.abs(a - b)) < 1e-10

    def test_pulse_validation(self):
        with pytest.raises(DomainError):
            PulseShape(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            PulseShape(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            PulseShape(np.array([0.0]), np.array([1.0]))


class TestOccupationAndStates:
    def test_vacuum_occupations(self):
        model = _inhomogeneous_model(N=4, J=1.0)
        psi = product_state(model, electron=1)
        for k in model.active_modes:
            assert occupation(psi, k) == 0.0

    def test_single_excited_mode(self):
        model = _homogeneous_model(N=5, B0=0.0)
        basis = FockBasis(model.active_modes, 1)
        psi = product_state(model, electron=1, occupations=[1], basis=basis)
        assert occupation(psi, 5) == pytest.approx(1.0)

    def test_inactive_mode_rejected(self):
        model = _homogeneous_model(N=5)
        psi = product_state(model, electron=1)
        with pytest.raises(DomainError):
            occupation(psi, 2)

    def test_leak_bookkeeping_identity(self):
        # post-swap: sum of spectator occupations = 1 - pop(N) - pop(+)
        N = 100
        params = PhysicalParams(N=N, s=0.5, J=50.0, B0=0.0)
        chi = chi_spectrum(gaussian_profile(N, 0.1 * N))
        model = BosonModel(params, chi)
        psi = product_state(model, electron=0)
        out = evolve_constant(model, psi, swap_time(params))
        spect = sum(occupation(out, k) for k in model.active_modes if k != N)
        pop_plus = abs(out.vector[0]) ** 2
        assert spect == pytest.approx(1.0 - occupation(out, N) - pop_plus, abs=1e-10)

    def test_state_norm_validated(self):
        model = _homogeneous_model(N=4)
        basis = SingleExcitationBasis(model.active_modes)
        bad = np.zeros(basis.dim, dtype=complex)
        bad[0] = 0.7
        with pytest.raises(DomainError):
            JointState(bad, basis)

    def test_json_dump(self):
        model = _homogeneous_model(N=4, B0=0.0)
        psi = product_state(model, electron=0)
        triples = json.loads(psi.dumps())
        assert triples[0][0] == "+|vac"
        total = sum(re**2 + im**2 for _, re, im in triples)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_fock_labels(self):
        basis = FockBasis((2, 5), cutoff=1)
        assert basis.label(basis.index(1, [1, 0])) == "-|n2=1,n5=0"
