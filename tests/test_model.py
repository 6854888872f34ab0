import math

import numpy as np
import pytest

from magnon_memory import (
    DomainError,
    PhysicalParams,
    chi_spectrum,
    custom_profile,
    dispersion,
    effective_coupling,
    gaussian_profile,
    homogeneous_profile,
    swap_time,
)


class TestPhysicalParams:
    def test_valid_construction(self):
        p = PhysicalParams(N=8, s=1.5, J=0.3, B0=0.2, lam=2.0)
        assert p.two_s == 3
        assert p.nuclear_zeeman == pytest.approx(0.2)
        assert p.electron_splitting == pytest.approx(0.4)

    @pytest.mark.parametrize("kwargs", [
        dict(N=1),
        dict(N=4, s=0.3),
        dict(N=4, s=-0.5),
        dict(N=4, lam=0.0),
        dict(N=4, lam=-1.0),
        dict(N=4, J=-0.1),
        dict(N=4, mu_n=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            PhysicalParams(**kwargs)


class TestDispersion:
    def test_memory_mode_is_pure_zeeman(self):
        p = PhysicalParams(N=10, J=3.7, B0=1.3, g_n=0.4, mu_n=2.0)
        assert dispersion(p, 10) == pytest.approx(0.4 * 2.0 * 1.3, abs=0)

    def test_memory_mode_zero_field(self):
        p = PhysicalParams(N=6, J=1.0, B0=0.0)
        assert dispersion(p, 6) == 0.0

    def test_zone_boundary(self):
        # k = N/2 at zero field: cos(pi) = -1 gives 4 J s
        p = PhysicalParams(N=8, s=0.5, J=2.5, B0=0.0)
        assert dispersion(p, 4) == pytest.approx(4 * 2.5 * 0.5, rel=1e-14)

    def test_reflection_symmetry(self):
        p = PhysicalParams(N=9, s=1.0, J=1.7, B0=0.6)
        for k in range(1, 9):
            assert dispersion(p, k) == pytest.approx(dispersion(p, 9 - k), rel=1e-14)

    def test_memory_mode_is_minimum(self):
        p = PhysicalParams(N=12, s=0.5, J=0.8, B0=0.5)
        omegas = [dispersion(p, k) for k in range(1, 13)]
        assert min(omegas) == omegas[-1]
        assert all(w >= 0 for w in omegas)

    def test_k_out_of_range(self):
        p = PhysicalParams(N=4, J=1.0)
        for bad in (0, 5, -1):
            with pytest.raises(DomainError):
                dispersion(p, bad)

    def test_spin_wave_branch_needs_ferromagnet(self):
        p = PhysicalParams(N=4, J=0.0)
        with pytest.raises(DomainError):
            dispersion(p, 1)
        assert dispersion(p, 4) == 0.0  # memory mode fine at J = 0


class TestEffectiveCouplingAndSwapTime:
    def test_coupling_values(self):
        assert effective_coupling(PhysicalParams(N=2, s=0.5)) == pytest.approx(
            math.sqrt(1.0 / 8.0), abs=1e-15)
        assert effective_coupling(PhysicalParams(N=100, s=0.5)) == pytest.approx(0.05)
        assert effective_coupling(PhysicalParams(N=4, s=2.0, lam=2.0)) == pytest.approx(1.0)

    def test_swap_time_values(self):
        assert swap_time(PhysicalParams(N=2, s=0.5)) == pytest.approx(math.pi * math.sqrt(2))
        assert swap_time(PhysicalParams(N=100, s=0.5)) == pytest.approx(10 * math.pi)

    def test_half_rabi_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = PhysicalParams(
                N=int(rng.integers(2, 200)),
                s=0.5 * int(rng.integers(1, 6)),
                lam=float(rng.uniform(0.1, 10.0)),
            )
            assert swap_time(p) * effective_coupling(p) == pytest.approx(
                math.pi / 2, abs=1e-12)


class TestProfiles:
    def test_homogeneous(self):
        prof = homogeneous_profile(5, 2.0)
        assert prof.is_homogeneous
        assert np.all(prof.lambdas == 2.0)
        assert prof.chi_reference == 2.0

    def test_gaussian_anchored_at_site_one(self):
        prof = gaussian_profile(10, sigma=3.0, lam=1.7)
        assert prof.lambdas[0] == pytest.approx(1.7, abs=0)
        assert prof.sigma == 3.0

    def test_gaussian_midpoint_ratio(self):
        # N = 100, sigma = 0.05 N: lambda_50 / lambda_1 = exp(-49^2 / (2 * 25))
        prof = gaussian_profile(100, sigma=5.0)
        assert prof.lambdas[49] / prof.lambdas[0] == pytest.approx(
            math.exp(-(49**2) / 50.0), rel=1e-12)

    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(DomainError):
            gaussian_profile(10, sigma=0.0)
        with pytest.raises(DomainError):
            gaussian_profile(10, sigma=-1.0)

    def test_custom_needs_reference_site(self):
        with pytest.raises(DomainError):
            custom_profile([0.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            custom_profile([0.0, 0.0])
        with pytest.raises(DomainError):
            custom_profile([1.0, -0.2])

    def test_single_entry_rejected(self):
        with pytest.raises(DomainError):
            custom_profile([1.0])


class TestChiSpectrum:
    def test_homogeneous_is_kronecker_delta(self):
        chi = chi_spectrum(homogeneous_profile(16)).chi
        assert abs(chi[-1] - 1.0) < 1e-12
        assert np.max(np.abs(chi[:-1])) < 1e-12

    def test_single_site_flat_magnitude(self):
        N = 7
        prof = custom_profile([1.0] + [0.0] * (N - 1))
        chi = chi_spectrum(prof).chi
        assert np.allclose(np.abs(chi), 1.0 / N, atol=1e-14)

    def test_parseval(self):
        # sum_k |chi_k|^2 = (1/N) sum_l (lambda_l / lambda_ref)^2
        rng = np.random.default_rng(3)
        for _ in range(10):
            N = int(rng.integers(2, 40))
            lambdas = rng.uniform(0.0, 2.0, N)
            lambdas[0] = rng.uniform(0.5, 2.0)
            prof = custom_profile(lambdas)
            chi = chi_spectrum(prof).chi
            expected = np.sum((lambdas / prof.chi_reference) ** 2) / N
            assert np.sum(np.abs(chi) ** 2) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("N", [37, 64])
    def test_fft_matches_direct_sum(self, N):
        # chi_k = sum_l lambda_l / (lambda_ref N) e^{i 2 pi k l / N}, with the
        # phase reduced mod N in integers so the reference itself is exact
        rng = np.random.default_rng(N)
        lambdas = rng.uniform(0.1, 2.0, N)
        l = np.arange(1, N + 1)
        phases = np.exp(2j * np.pi * (np.outer(l, l) % N) / N)
        for prof in (gaussian_profile(N, N / 7.0), custom_profile(lambdas)):
            direct = phases @ (prof.lambdas / (prof.chi_reference * N))
            assert np.max(np.abs(chi_spectrum(prof).chi - direct)) <= 1e-14

    def test_inverse_transform_recovers_profile(self):
        rng = np.random.default_rng(11)
        N = 24
        lambdas = rng.uniform(0.1, 3.0, N)
        prof = custom_profile(lambdas)
        chi = chi_spectrum(prof).chi
        k = np.arange(1, N + 1)
        for l in range(1, N + 1):
            rec = np.sum(chi * np.exp(-1j * 2 * np.pi * k * l / N))
            assert rec == pytest.approx(lambdas[l - 1] / prof.chi_reference, abs=1e-10)

    def test_gaussian_spectrum_shape(self):
        # near-mode-1 coupling dominates the band centre for every width
        for frac in (0.05, 0.1, 0.2):
            chi = chi_spectrum(gaussian_profile(100, frac * 100))
            assert abs(chi.value(1)) > abs(chi.value(50))

    def test_gaussian_magnitudes_decrease_with_sigma(self):
        chis = [chi_spectrum(gaussian_profile(100, f * 100)) for f in (0.05, 0.2)]
        mags_small = np.abs(chis[0].chi[:-1])
        mags_large = np.abs(chis[1].chi[:-1])
        assert mags_large.max() < mags_small.max()

    def test_spectator_weight_monotone_in_sigma(self):
        weights = [
            chi_spectrum(gaussian_profile(100, f * 100)).spectator_weight()
            for f in (0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_wide_gaussian_approaches_homogeneous(self):
        chi = chi_spectrum(gaussian_profile(100, sigma=1e8))
        assert np.max(np.abs(chi.chi[:-1])) < 1e-10

    def test_mode_accessor_bounds(self):
        chi = chi_spectrum(homogeneous_profile(4))
        with pytest.raises(DomainError):
            chi.value(0)
        with pytest.raises(DomainError):
            chi.value(5)

    def test_deterministic(self):
        prof = gaussian_profile(50, 7.0)
        a = chi_spectrum(prof).chi
        b = chi_spectrum(prof).chi
        assert np.array_equal(a, b)
