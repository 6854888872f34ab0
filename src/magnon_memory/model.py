"""Model parameters and closed-form quantities for the nuclear-spin-ring memory.

Conventions used throughout the package:

* hbar = 1.  Energies are quoted in units of the hyperfine scale ``lam``
  unless the caller supplies explicit values; times are inverse energies.
* Ring sites are labelled l = 1..N, magnon modes k = 1..N.  Mode k = N is
  the zero-momentum memory mode that couples to the electron.
* Electron basis ordering is (|+>, |->) = (up, down) in every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PhysicalParams",
    "CouplingProfile",
    "ChiSpectrum",
    "homogeneous_profile",
    "gaussian_profile",
    "custom_profile",
    "chi_spectrum",
    "dispersion",
    "spectator_frequencies",
    "effective_coupling",
    "swap_time",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of the electron + nuclear-ring model.

    N       number of nuclear sites on the ring (>= 2)
    s       nuclear spin magnitude (positive half-integer)
    J       nearest-neighbour exchange, ferromagnetic for J > 0
    B0      external magnetic field along z
    lam     hyperfine coupling scale (energy unit of the package)
    g_e/g_n Lande factors, mu_B/mu_n the corresponding magnetons
    """

    N: int
    s: float = 0.5
    J: float = 0.0
    B0: float = 0.0
    lam: float = 1.0
    g_e: float = 1.0
    g_n: float = 1.0
    mu_B: float = 1.0
    mu_n: float = 1.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        two_s = 2 * self.s
        if abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 1:
            raise DomainError(f"s must be a positive half-integer, got {self.s}")
        if not self.lam > 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        if self.J < 0:
            raise DomainError(f"J must be >= 0, got {self.J}")
        if not (self.mu_B > 0 and self.mu_n > 0):
            raise DomainError("magnetons mu_B and mu_n must be > 0")

    @property
    def two_s(self) -> int:
        return int(round(2 * self.s))

    @property
    def nuclear_zeeman(self) -> float:
        """Zeeman energy g_n * mu_n * B0 of one nuclear flip (= omega_N)."""
        return self.g_n * self.mu_n * self.B0

    @property
    def electron_splitting(self) -> float:
        """Electron level splitting Omega = 2 g_e mu_B B0."""
        return 2.0 * self.g_e * self.mu_B * self.B0


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Per-site hyperfine couplings lambda_l, l = 1..N.

    ``chi_reference`` is the coupling the chi spectrum normalises against:
    the common value for homogeneous profiles, lambda_1 for custom ones,
    and lambda_1 * sqrt(2 pi) sigma for gaussian profiles (the spectrum
    convention keeps the raw Gaussian normalisation in chi even
    though the profile itself is anchored to lambda_1 = lam; this is what
    makes the spectator weight shrink as sigma grows).
    """

    lambdas: np.ndarray
    kind: str  # "homogeneous" | "gaussian" | "custom"
    sigma: float | None = None
    chi_reference: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("profile needs a 1-d array of at least 2 couplings")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise DomainError("couplings must be finite and >= 0")
        if not np.any(arr > 0):
            raise DomainError("at least one coupling must be > 0")
        if arr[0] <= 0:
            raise DomainError("reference coupling lambda_1 must be > 0")
        if self.kind not in ("homogeneous", "gaussian", "custom"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "homogeneous" and np.ptp(arr) != 0.0:
            raise DomainError("homogeneous profile requires equal couplings")
        if self.kind == "gaussian" and not (self.sigma and self.sigma > 0):
            raise DomainError("gaussian profile requires sigma > 0")
        if self.chi_reference is None:
            object.__setattr__(self, "chi_reference", float(arr[0]))
        elif not self.chi_reference > 0:
            raise DomainError("chi_reference must be > 0")

    @property
    def N(self) -> int:
        return self.lambdas.size

    @property
    def is_homogeneous(self) -> bool:
        return np.ptp(self.lambdas) == 0.0


def homogeneous_profile(N: int, lam: float = 1.0) -> CouplingProfile:
    """All sites coupled with the same strength ``lam``."""
    if lam <= 0:
        raise DomainError("lam must be > 0")
    return CouplingProfile(np.full(int(N), float(lam)), kind="homogeneous")


def gaussian_profile(N: int, sigma: float, lam: float = 1.0) -> CouplingProfile:
    """Gaussian coupling envelope of width sigma around site 1.

    The raw distribution lam/(sqrt(2 pi) sigma) * exp(-(l-1)^2 / 2 sigma^2)
    is rescaled so lambda_1 = lam exactly; the pre-rescale normalisation
    lam * sqrt(2 pi) sigma is kept as the chi reference (see
    :class:`CouplingProfile`).
    """
    if sigma is None or sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if lam <= 0:
        raise DomainError("lam must be > 0")
    l = np.arange(int(N), dtype=float)  # l - 1 for sites 1..N
    lambdas = lam * np.exp(-(l**2) / (2.0 * sigma**2))
    return CouplingProfile(lambdas, kind="gaussian", sigma=float(sigma),
                           chi_reference=lam * math.sqrt(2.0 * math.pi) * sigma)


def custom_profile(lambdas) -> CouplingProfile:
    """Arbitrary non-negative couplings; lambda_1 sets the normalisation."""
    return CouplingProfile(np.asarray(lambdas, dtype=float), kind="custom")


@dataclass(frozen=True, eq=False)
class ChiSpectrum:
    """Dimensionless Fourier coefficients chi_k of a coupling profile.

    chi_k = sum_l lambda_l / (lambda_1 N) * exp(i 2 pi k l / N), k = 1..N.
    ``chi[k-1]`` holds chi_k; chi_N is the memory-mode coefficient (1 for a
    homogeneous profile, where all other chi_k vanish).
    """

    chi: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "chi", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("chi spectrum needs >= 2 modes")

    @property
    def N(self) -> int:
        return self.chi.size

    def value(self, k: int) -> complex:
        if not 1 <= k <= self.N:
            raise DomainError(f"mode index k={k} outside 1..{self.N}")
        return complex(self.chi[k - 1])

    def spectator_weight(self) -> float:
        """sum_{k != N} |chi_k|^2, the total relative leakage weight."""
        return float(np.sum(np.abs(self.chi[:-1]) ** 2))


def chi_spectrum(profile: CouplingProfile) -> ChiSpectrum:
    """Fourier-transform a coupling profile into mode coefficients chi_k."""
    N = profile.N
    if profile.is_homogeneous:
        # the geometric sum cancels identically for k != N; avoid leaving
        # ~1e-16 roundoff where the exact answer is the Kronecker delta
        chi = np.zeros(N, dtype=complex)
        chi[-1] = profile.lambdas[0] / profile.chi_reference
        return ChiSpectrum(chi)
    weights = profile.lambdas / (profile.chi_reference * N)
    # N * ifft sums x_j e^{i 2 pi k j / N} over j = 0..N-1: rolling by one
    # puts site l = N at j = 0 (its phase is 1), and rolling the result back
    # moves k = 0, which is mode N, to the last slot
    return ChiSpectrum(N * np.roll(np.fft.ifft(np.roll(weights, 1)), -1))


def dispersion(params: PhysicalParams, k: int) -> float:
    """Magnon frequency omega_k = g_n mu_n B0 + 2Js(1 - cos(2 pi k / N)).

    Mode N is the memory mode: omega_N = g_n mu_n B0 exactly at any J >= 0
    (the exchange terms cancel identically).  Modes k != N form the
    spin-wave branch, which requires the ferromagnetic regime J > 0.
    """
    if int(k) != k:
        raise DomainError(f"mode index must be an integer, got {k}")
    k = int(k)
    if not 1 <= k <= params.N:
        raise DomainError(f"mode index k={k} outside 1..{params.N}")
    if k == params.N:
        return params.nuclear_zeeman
    if not params.J > 0:
        raise DomainError("spin-wave modes k != N require ferromagnetic J > 0")
    return params.nuclear_zeeman + 2.0 * params.J * params.s * (
        1.0 - math.cos(2.0 * math.pi * k / params.N)
    )


def spectator_frequencies(params: PhysicalParams) -> np.ndarray:
    """omega_k for k = 1..N-1 from the dispersion formula, allowing J = 0.

    Internal-facing: the decoherence formulas are defined for B0 > 0 or
    J > 0, so the J = 0 branch is kept evaluable here while the public
    ``dispersion`` enforces the ferromagnetic requirement.
    """
    k = np.arange(1, params.N, dtype=float)
    return params.nuclear_zeeman + 2.0 * params.J * params.s * (
        1.0 - np.cos(2.0 * np.pi * k / params.N)
    )


def effective_coupling(params: PhysicalParams) -> float:
    """Collective electron-magnon coupling g = lam * sqrt(s / (2N))."""
    return params.lam * math.sqrt(params.s / (2.0 * params.N))


def swap_time(params: PhysicalParams) -> float:
    """Storage duration t0 = (pi / lam) sqrt(N / (2s)) = pi / (2 g)."""
    return (math.pi / params.lam) * math.sqrt(params.N / (2.0 * params.s))
