import math

import numpy as np
import pytest

from magnon_memory import (
    DomainError,
    PhysicalParams,
    ResourceLimitError,
    build_exact,
    custom_profile,
    effective_coupling,
    evolve_exact,
    gaussian_profile,
    homogeneous_profile,
    reduce_electron,
    swap_time,
)
from magnon_memory import exact
from magnon_memory.exact import excitation_numbers, product_state, up_population


def _random_setup(rng, n_max=5):
    N = int(rng.integers(2, n_max + 1))
    s = 0.5 * int(rng.integers(1, 3))
    params = PhysicalParams(
        N=N, s=s,
        J=float(rng.uniform(0.0, 3.0)),
        B0=float(rng.uniform(-1.0, 1.0)),
        lam=float(rng.uniform(0.2, 3.0)),
    )
    if rng.random() < 0.5:
        profile = homogeneous_profile(N, params.lam)
    else:
        lambdas = rng.uniform(0.0, params.lam, N)
        lambdas[0] = params.lam
        profile = custom_profile(lambdas)
    return params, profile


class TestBuild:
    def test_two_site_hyperfine_elements(self):
        # N = 2, s = 1/2, J = B0 = 0: only hyperfine flip-flops survive,
        # each with amplitude lam/4, hand-expanded on the 8-dim space.
        lam = 1.3
        params = PhysicalParams(N=2, s=0.5, J=0.0, B0=0.0, lam=lam)
        ham = build_exact(params, homogeneous_profile(2, lam))
        H, basis = ham.matrix, ham.basis
        assert ham.dim == 8

        def idx(e, flips):
            return basis.index(e, flips)

        expected = np.zeros((8, 8), dtype=complex)
        pairs = [
            (idx(0, (0, 0)), idx(1, (1, 0))),
            (idx(0, (0, 0)), idx(1, (0, 1))),
            (idx(0, (1, 0)), idx(1, (1, 1))),
            (idx(0, (0, 1)), idx(1, (1, 1))),
        ]
        for a, b in pairs:
            expected[a, b] = lam / 4.0
            expected[b, a] = lam / 4.0
        assert np.max(np.abs(H - expected)) < 1e-15

    def test_symmetric_state_coupling_strength(self):
        # collective coupling of |+, G> to the symmetric one-flip state is g
        lam = 0.9
        params = PhysicalParams(N=2, s=0.5, J=0.0, B0=0.0, lam=lam)
        ham = build_exact(params, homogeneous_profile(2, lam))
        basis = ham.basis
        sym = np.zeros(8, dtype=complex)
        sym[basis.index(1, (1, 0))] = 1 / math.sqrt(2)
        sym[basis.index(1, (0, 1))] = 1 / math.sqrt(2)
        plus_g = product_state(basis, electron=0)
        coupling = plus_g.conj() @ ham.matrix @ sym
        assert coupling == pytest.approx(lam * math.sqrt(2) / 4, abs=1e-14)
        assert coupling == pytest.approx(effective_coupling(params), abs=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            params, profile = _random_setup(rng)
            H = build_exact(params, profile).matrix
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_hyperfine_blocks_scale_linearly_with_profile(self):
        # decoupled limit: the electron cross blocks vanish linearly with the
        # coupling scale while the in-sector blocks are untouched
        params = PhysicalParams(N=3, s=0.5, J=1.1, B0=0.4, lam=1.0)
        h1 = build_exact(params, custom_profile([1.0, 0.7, 0.2])).matrix
        h2 = build_exact(params, custom_profile([0.5, 0.35, 0.1])).matrix
        nuc = h1.shape[0] // 2
        assert np.allclose(h1[:nuc, nuc:], 2.0 * h2[:nuc, nuc:], atol=1e-14)
        assert np.allclose(h1[:nuc, :nuc], h2[:nuc, :nuc], atol=1e-14)
        assert np.allclose(h1[nuc:, nuc:], h2[nuc:, nuc:], atol=1e-14)

    def test_real_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            params, profile = _random_setup(rng)
            H = build_exact(params, profile).matrix
            assert H.dtype == np.float64
            assert np.array_equal(H, H.T)

    def test_profile_length_mismatch(self):
        with pytest.raises(DomainError):
            build_exact(PhysicalParams(N=4), homogeneous_profile(5))

    def test_basis_enumeration_is_bijective(self):
        basis = build_exact(PhysicalParams(N=3, s=1.0, J=0.1),
                            homogeneous_profile(3)).basis
        seen = set()
        for nuc in range(basis.nuc_dim):
            for e in (0, 1):
                i = basis.index(e, basis.occupations[nuc])
                assert i == e * basis.nuc_dim + nuc
                seen.add(i)
        assert seen == set(range(basis.dim))

    def test_dimension_cap(self):
        params = PhysicalParams(N=13, s=0.5)
        with pytest.raises(ResourceLimitError, match="8192"):
            build_exact(params, homogeneous_profile(13))
        # explicit override admits the build
        ham = build_exact(PhysicalParams(N=5, s=1.0), homogeneous_profile(5),
                          max_dim=500)
        assert ham.dim == 2 * 3**5

    def test_dimension_cap_precedes_allocation(self):
        # 2 * 2^40 states: the basis table alone would need terabytes
        with pytest.raises(ResourceLimitError, match="2199023255552"):
            build_exact(PhysicalParams(N=40, s=0.5), homogeneous_profile(40))


class TestEvolve:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(1)
        params, profile = _random_setup(rng, n_max=4)
        ham = build_exact(params, profile)
        vec = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        vec /= np.linalg.norm(vec)
        assert np.max(np.abs(evolve_exact(ham, vec, 0.0) - vec)) < 1e-12

    def test_eigenvector_picks_up_pure_phase(self):
        params = PhysicalParams(N=3, s=0.5, J=1.0, B0=0.3, lam=0.7)
        ham = build_exact(params, homogeneous_profile(3, 0.7))
        evals, vecs = ham.eigensystem()
        t = 2.31
        out = evolve_exact(ham, vecs[:, 4], t)
        assert np.max(np.abs(out - np.exp(-1j * evals[4] * t) * vecs[:, 4])) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        params, profile = _random_setup(rng, n_max=4)
        ham = build_exact(params, profile)
        vec = rng.normal(size=ham.dim) + 1j * rng.normal(size=ham.dim)
        vec /= np.linalg.norm(vec)
        for t in (0.1, 3.0, 50.0):
            assert abs(np.linalg.norm(evolve_exact(ham, vec, t)) - 1.0) < 1e-10

    def test_input_validation(self):
        params = PhysicalParams(N=2, s=0.5, lam=1.0)
        ham = build_exact(params, homogeneous_profile(2))
        with pytest.raises(DomainError):
            evolve_exact(ham, np.ones(4, dtype=complex), 1.0)
        bad = np.zeros(8, dtype=complex)
        bad[0] = 2.0
        with pytest.raises(DomainError):
            evolve_exact(ham, bad, 1.0)

    def test_periodic_return_matches_swap_time(self):
        # |+> G population follows cos^2(gt): minimum at t0, revival at 2 t0
        params = PhysicalParams(N=2, s=0.5, J=0.8, B0=0.0)
        ham = build_exact(params, homogeneous_profile(2))
        psi0 = product_state(ham.basis, electron=0)
        t0 = swap_time(params)
        ts = np.linspace(0.0, 2.2 * t0, 1200)
        pops = np.array([
            reduce_electron(evolve_exact(ham, psi0, t)).rho[0, 0].real for t in ts
        ])
        t_min = ts[np.argmin(pops)]
        assert abs(t_min - t0) / t0 < 0.01
        revival = reduce_electron(evolve_exact(ham, psi0, 2 * t0)).rho[0, 0].real
        assert revival == pytest.approx(1.0, abs=1e-10)


GRID_CASES = [
    # (params, profile factory) over profile kinds, s, J = 0 and B0 != 0
    (PhysicalParams(N=4, s=0.5, J=0.0, B0=0.0), lambda N: homogeneous_profile(N)),
    (PhysicalParams(N=5, s=0.5, J=1.3, B0=0.4, lam=0.8),
     lambda N: gaussian_profile(N, 1.7, 0.8)),
    (PhysicalParams(N=3, s=1.0, J=0.7, B0=-0.6, lam=1.4),
     lambda N: custom_profile([1.4, 0.3, 0.9])),
    (PhysicalParams(N=3, s=1.0, J=0.0, B0=0.25), lambda N: homogeneous_profile(N)),
]


def _random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


class TestTimeGrid:
    @pytest.mark.parametrize("case", range(len(GRID_CASES)))
    def test_array_of_times_matches_scalar_calls(self, case):
        params, make_profile = GRID_CASES[case]
        ham = build_exact(params, make_profile(params.N))
        psi = _random_state(np.random.default_rng(case), ham.dim)
        ts = np.linspace(0.0, 3.0 * swap_time(params), 37)
        rows = evolve_exact(ham, psi, ts)
        assert rows.shape == (ts.size, ham.dim)
        stacked = np.array([evolve_exact(ham, psi, t) for t in ts])
        assert np.max(np.abs(rows - stacked)) <= 1e-12

    @pytest.mark.parametrize("case", range(len(GRID_CASES)))
    def test_up_population_matches_reduce_electron(self, case):
        params, make_profile = GRID_CASES[case]
        ham = build_exact(params, make_profile(params.N))
        psi0 = product_state(ham.basis, electron=0)
        ts = np.linspace(0.0, 2.0 * swap_time(params), 41)
        expected = [reduce_electron(evolve_exact(ham, psi0, t)).rho[0, 0].real
                    for t in ts]
        assert np.max(np.abs(up_population(ham, psi0, ts) - expected)) <= 1e-12

    def test_grid_longer_than_one_block(self, monkeypatch):
        params, make_profile = GRID_CASES[1]
        ham = build_exact(params, make_profile(params.N))
        psi = _random_state(np.random.default_rng(3), ham.dim)
        ts = np.linspace(0.0, 2.0 * swap_time(params), 23)
        whole, pop = evolve_exact(ham, psi, ts), up_population(ham, psi, ts)
        # three rows per block: eight blocks, the last one short
        monkeypatch.setattr(exact, "PROPAGATION_BLOCK_BYTES", 3 * 16 * ham.dim)
        np.testing.assert_allclose(evolve_exact(ham, psi, ts), whole,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(up_population(ham, psi, ts), pop,
                                   rtol=0, atol=1e-14)

    def test_up_population_memory_does_not_grow_with_the_grid(self, monkeypatch):
        import tracemalloc

        ham = build_exact(PhysicalParams(N=5, s=0.5, J=1.0), homogeneous_profile(5))
        psi0 = product_state(ham.basis, electron=0)
        ham.eigensystem()
        monkeypatch.setattr(exact, "PROPAGATION_BLOCK_BYTES", 64 * 1024)
        ts = np.linspace(0.0, 10.0, 40_000)  # all rows: 40 MB of complex
        tracemalloc.start()
        try:
            up_population(ham, psi0, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_row_norm_drift_raises(self):
        ham = build_exact(PhysicalParams(N=3, s=0.5, J=1.0), homogeneous_profile(3))
        evals, vecs = ham.eigensystem()
        ham._eig = (evals, 1.5 * vecs)  # no longer orthonormal: rows drift
        with pytest.raises(DomainError, match="normalisation"):
            up_population(ham, product_state(ham.basis, electron=0), [0.0, 1.0])

    def test_times_must_be_one_dimensional(self):
        ham = build_exact(PhysicalParams(N=2, s=0.5), homogeneous_profile(2))
        psi0 = product_state(ham.basis, electron=0)
        with pytest.raises(DomainError):
            evolve_exact(ham, psi0, np.zeros((2, 2)))
        with pytest.raises(DomainError):
            up_population(ham, psi0, 1.0)


class TestReduceElectron:
    def test_product_state(self):
        basis = build_exact(PhysicalParams(N=2, s=0.5), homogeneous_profile(2)).basis
        rho = reduce_electron(product_state(basis, electron=0)).rho
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)

    def test_maximally_entangled(self):
        basis = build_exact(PhysicalParams(N=2, s=0.5), homogeneous_profile(2)).basis
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index(0, (0, 0))] = 1 / math.sqrt(2)
        vec[basis.index(1, (1, 0))] = 1 / math.sqrt(2)
        rho = reduce_electron(vec).rho
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-14)

    def test_post_swap_electron_is_down(self):
        params = PhysicalParams(N=8, s=0.5, J=1.0, B0=0.0)
        ham = build_exact(params, homogeneous_profile(8))
        psi = evolve_exact(ham, product_state(ham.basis, electron=0),
                           swap_time(params))
        rho = reduce_electron(psi).rho
        assert rho[1, 1].real >= 0.99


class TestInvariants:
    def test_excitation_conservation(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            params, profile = _random_setup(rng, n_max=4)
            ham = build_exact(params, profile)
            c = excitation_numbers(ham.basis)
            comm = ham.matrix * (c[None, :] - c[:, None])
            assert np.max(np.abs(comm)) < 1e-10

    def test_symmetric_sector_is_preserved(self):
        params = PhysicalParams(N=6, s=0.5, J=1.3, B0=0.0)
        ham = build_exact(params, homogeneous_profile(6))
        basis = ham.basis
        psi0 = product_state(basis, electron=0)
        c = excitation_numbers(basis)
        one_flip = [basis.index(1, np.eye(6, dtype=int)[i]) for i in range(6)]
        for t in (0.3 * swap_time(params), 1.7 * swap_time(params)):
            psi = evolve_exact(ham, psi0, t)
            amps = psi[one_flip]
            assert np.max(np.abs(amps - amps.mean())) < 1e-10
            # nothing outside the single-excitation sector
            outside = np.abs(psi[c != 1.0])
            assert outside.max() < 1e-10

    def test_single_excitation_matches_resonant_rabi(self):
        params = PhysicalParams(N=4, s=0.5, J=1.0, B0=0.0)
        ham = build_exact(params, homogeneous_profile(4))
        psi0 = product_state(ham.basis, electron=0)
        g = effective_coupling(params)
        for t in np.linspace(0, 2 * swap_time(params), 40):
            pop = reduce_electron(evolve_exact(ham, psi0, t)).rho[0, 0].real
            assert abs(pop - math.cos(g * t) ** 2) <= 0.05

    @pytest.mark.parametrize("B0", [0.0, 0.4, -0.7])
    def test_inhomogeneous_dynamics_matches_bosonized_route(self, B0):
        # with mean(lambda_l) = lambda_1 the memory-mode coupling of the
        # bosonized model coincides with the site-local one (chi_N = 1), so
        # the two independently coded routes must agree to roundoff in the
        # single-excitation sector, on and off resonance
        from magnon_memory import BosonModel, chi_spectrum, evolve_constant
        from magnon_memory.boson import product_state as boson_state

        lambdas = np.array([1.0, 1.3, 0.7, 1.1, 0.9, 1.0])
        params = PhysicalParams(N=6, s=0.5, J=0.9, B0=B0)
        profile = custom_profile(lambdas)
        chi = chi_spectrum(profile)
        assert abs(chi.value(6) - 1.0) < 1e-12

        ham = build_exact(params, profile)
        psi_exact = product_state(ham.basis, electron=0)
        model = BosonModel(params, chi, chi_threshold=0.0)
        psi_boson = boson_state(model, electron=0)
        for t in np.linspace(0.0, 2 * swap_time(params), 25):
            pop_exact = reduce_electron(
                evolve_exact(ham, psi_exact, t)).rho[0, 0].real
            out = evolve_constant(model, psi_boson, t)
            pop_boson = abs(out.vector[0]) ** 2
            assert abs(pop_exact - pop_boson) < 1e-10
