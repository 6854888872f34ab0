"""Inhomogeneity-induced decoherence: decay rate, analytic fidelity curves,
adiabaticity diagnostics, and the numerical cross-check against the
bosonized dynamics.

Two closed-form regimes are covered:

* large N (quasi-continuous spectrum): golden-rule decay of the electron
  coherence with rate gamma, fidelity
  F(t) = 1/2 + (1/2) e^{-gamma t/2} sec(phi) [cos(gt) cos(D1' t + phi)
         + sin(gt) sin(D1' t)],    phi = arcsin(gamma/g), D1' = sqrt(g^2-gamma^2)
* small N (discrete spectrum): adiabatic elimination of the spectators,
  dispersive shift Omega' and a fast-oscillating overlap formula.

The numerical route compares the ideal evolution (spectator couplings off)
with the perturbed one in the single-excitation sector and samples
|<Psi|Psi'>|; it is the oracle the analytic curves are checked against.  The
ideal branch is a closed-form two-level Rabi oscillation, and the perturbed
one needs only the two amplitudes a(t), b(t) of the model's
``SingleExcitationPropagator``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .boson import BosonModel
from .errors import DomainError, RegimeError, SingularModeError
from .model import ChiSpectrum, PhysicalParams, effective_coupling, spectator_frequencies

__all__ = [
    "decay_rate",
    "default_broadening",
    "LargeNFidelityParams",
    "fidelity_large_n",
    "AdiabaticityReport",
    "adiabaticity",
    "omega_shift",
    "effective_couplings",
    "SmallNFidelityParams",
    "fidelity_small_n",
    "FidelityCurve",
    "numeric_fidelity",
]


def decay_rate(params: PhysicalParams, chi: ChiSpectrum, broadening: float) -> float:
    """Golden-rule decay rate of the electron coherence.

    gamma = 2 pi sum_{k=1}^{N-1} (lam^2 s |chi_k|^2 / 2N) delta_eta(omega_k - 2g)

    with delta_eta a unit-area Lorentzian of half-width eta (the discrete
    spectrum needs finite broadening for the delta function to make sense;
    report eta alongside every gamma).
    """
    if broadening is None or broadening <= 0:
        raise DomainError(f"broadening eta must be > 0, got {broadening}")
    if chi.N != params.N:
        raise DomainError("chi spectrum length must equal params.N")
    mags_sq = np.abs(chi.chi[:-1]) ** 2
    if not mags_sq.any():
        return 0.0
    omega = spectator_frequencies(params)
    g = effective_coupling(params)
    lorentz = (broadening / math.pi) / ((omega - 2.0 * g) ** 2 + broadening**2)
    weight = params.lam**2 * params.s * mags_sq / (2.0 * params.N)
    return float(2.0 * math.pi * np.sum(weight * lorentz))


def default_broadening(params: PhysicalParams, window: int = 5) -> float:
    """Mean spacing of the distinct spectator frequencies nearest 2g."""
    omega = np.unique(np.round(spectator_frequencies(params), 12))
    if omega.size < 2:
        raise DomainError(
            "degenerate spectator spectrum: supply an explicit broadening eta"
        )
    g = effective_coupling(params)
    order = np.argsort(np.abs(omega - 2.0 * g))
    picked = np.sort(omega[order[: max(2, window)]])
    eta = float(np.mean(np.diff(picked)))
    if eta <= 0:
        raise DomainError("zero level spacing near 2g: supply an explicit eta")
    return eta


@dataclass(frozen=True)
class LargeNFidelityParams:
    """Inputs of the large-N fidelity curve.

    phi = arcsin sqrt(2 N gamma^2 / (lam^2 s)) reduces identically to
    arcsin(gamma / g); arguments above 1 (gamma >= g) are outside the
    underdamped regime the formula describes and raise instead of clamping.
    """

    gamma: float
    g: float
    phi: float = field(init=False)
    delta1p: float = field(init=False)

    def __post_init__(self):
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if not self.g > 0:
            raise DomainError(f"g must be > 0, got {self.g}")
        if self.gamma >= self.g:
            raise RegimeError(
                f"overdamped regime gamma/g = {self.gamma / self.g:.3g} >= 1: "
                "the large-N fidelity formula does not apply"
            )
        object.__setattr__(self, "phi", math.asin(self.gamma / self.g))
        object.__setattr__(self, "delta1p", math.sqrt(self.g**2 - self.gamma**2))

    @classmethod
    def from_model(cls, params: PhysicalParams, chi: ChiSpectrum,
                   broadening: float) -> "LargeNFidelityParams":
        return cls(decay_rate(params, chi, broadening), effective_coupling(params))


def _clamp_unit(f: np.ndarray, formula: str) -> np.ndarray:
    over = float(np.max(f)) - 1.0
    if over > 0:
        if over > 1e-9:
            warnings.warn(
                f"{formula} exceeded 1 by {over:.3e}; outside the formula's "
                "validity regime, clamping",
                stacklevel=3,
            )
        f = np.minimum(f, 1.0)
    return np.maximum(f, 0.0)


def fidelity_large_n(t, p: LargeNFidelityParams):
    """Large-N overlap fidelity; scalar in -> scalar out, array in -> array out."""
    tt = np.asarray(t, dtype=float)
    envelope = np.exp(-0.5 * p.gamma * tt) / math.cos(p.phi)
    bracket = np.cos(p.g * tt) * np.cos(p.delta1p * tt + p.phi) + np.sin(
        p.g * tt
    ) * np.sin(p.delta1p * tt)
    f = _clamp_unit(0.5 + 0.5 * envelope * bracket, "large-N fidelity")
    return float(f) if np.isscalar(t) else f


@dataclass(frozen=True, eq=False)
class AdiabaticityReport:
    """Ratios r_k = g |chi_k| / |omega_k| for k = 1..N-1, plus the worst one."""

    ratios: np.ndarray
    max_ratio: float
    worst_k: int

    def satisfied(self, threshold: float = 0.1) -> bool:
        return self.max_ratio <= threshold


def _spectator_omegas_checked(params: PhysicalParams) -> np.ndarray:
    omega = spectator_frequencies(params)
    zero = np.where(omega == 0.0)[0]
    if zero.size:
        raise SingularModeError(int(zero[0] + 1))
    return omega


def adiabaticity(params: PhysicalParams, chi: ChiSpectrum) -> AdiabaticityReport:
    """Check g |chi_k| / |omega_k| << 1 for the adiabatic elimination."""
    if chi.N != params.N:
        raise DomainError("chi spectrum length must equal params.N")
    mags = np.abs(chi.chi[:-1])
    if not mags.any():
        return AdiabaticityReport(np.zeros(params.N - 1), 0.0, 1)
    omega = _spectator_omegas_checked(params)
    ratios = effective_coupling(params) * mags / np.abs(omega)
    worst = int(np.argmax(ratios))
    return AdiabaticityReport(ratios, float(ratios[worst]), worst + 1)


def omega_shift(params: PhysicalParams, chi: ChiSpectrum) -> float:
    """Dispersive shift Omega' = -(lam^2 s / N) sum_k |chi_k|^2 / (2 omega_k)."""
    if chi.N != params.N:
        raise DomainError("chi spectrum length must equal params.N")
    mags_sq = np.abs(chi.chi[:-1]) ** 2
    if not mags_sq.any():
        return 0.0
    omega = _spectator_omegas_checked(params)
    return float(-(params.lam**2 * params.s / params.N) * np.sum(mags_sq / (2.0 * omega)))


def effective_couplings(params: PhysicalParams, chi: ChiSpectrum) -> np.ndarray:
    """Spectator-spectator couplings of the adiabatically eliminated model.

    Omega_kk' = lam^2 s (omega_k' + omega_k) / (2 N omega_k' omega_k),
    a symmetric (N-1) x (N-1) matrix with diagonal lam^2 s / (N omega_k).
    """
    if chi.N != params.N:
        raise DomainError("chi spectrum length must equal params.N")
    omega = _spectator_omegas_checked(params)
    pref = params.lam**2 * params.s / (2.0 * params.N)
    return pref * (omega[None, :] + omega[:, None]) / (omega[None, :] * omega[:, None])


@dataclass(frozen=True)
class SmallNFidelityParams:
    """Inputs of the small-N (discrete-spectrum) fidelity curve.

    delta1p = sqrt((Omega'/2)^2 + g^2), cos(xi) = Omega'/(2 delta1p),
    sin(xi) = g / delta1p.  The oscillation frequency delta1 defaults to g
    (the choice consistent with the homogeneous limit) and can be overridden.
    """

    omega_shift: float
    g: float
    delta1: float | None = None
    delta1p: float = field(init=False)
    cos_xi: float = field(init=False)
    sin_xi: float = field(init=False)

    def __post_init__(self):
        if not self.g > 0:
            raise DomainError(f"g must be > 0, got {self.g}")
        d1p = math.sqrt((0.5 * self.omega_shift) ** 2 + self.g**2)
        object.__setattr__(self, "delta1p", d1p)
        object.__setattr__(self, "cos_xi", 0.5 * self.omega_shift / d1p)
        object.__setattr__(self, "sin_xi", self.g / d1p)
        if self.delta1 is None:
            object.__setattr__(self, "delta1", self.g)
        elif not self.delta1 > 0:
            raise DomainError("delta1 override must be > 0")

    @classmethod
    def from_model(cls, params: PhysicalParams, chi: ChiSpectrum,
                   delta1: float | None = None) -> "SmallNFidelityParams":
        return cls(omega_shift(params, chi), effective_coupling(params), delta1)


def fidelity_small_n(t, p: SmallNFidelityParams):
    """Small-N overlap fidelity

    F(t) = (1/2) |cos(D1 t)(cos(D1' t) - i sin(D1' t) cos xi)
                 + sin xi sin(D1' t) sin(D1 t) + e^{i Omega' t / 2}|.

    Even in Omega' (the expression conjugates), so only |Omega'| matters.
    """
    tt = np.asarray(t, dtype=float)
    c1, s1 = np.cos(p.delta1 * tt), np.sin(p.delta1 * tt)
    c1p, s1p = np.cos(p.delta1p * tt), np.sin(p.delta1p * tt)
    z = c1 * (c1p - 1j * s1p * p.cos_xi) + p.sin_xi * s1p * s1 + np.exp(
        0.5j * p.omega_shift * tt
    )
    f = _clamp_unit(0.5 * np.abs(z), "small-N fidelity")
    return float(f) if np.isscalar(t) else f


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Sampled F(t) with the regime tag and the parameters that produced it."""

    t: np.ndarray
    f: np.ndarray
    regime: str
    meta: dict

    def __post_init__(self):
        if self.t.shape != self.f.shape:
            raise DomainError("time and fidelity grids must match")


def numeric_fidelity(model: BosonModel, t_grid) -> FidelityCurve:
    """Overlap |<Psi(t)|Psi'(t)>| between the ideal and the perturbed evolution.

    Both wavefunctions start from (|+> + |->)/sqrt(2) (x) vacuum and live in
    the single-excitation sector; Psi evolves with the spectator couplings
    switched off, Psi' with the model's chi_k.  The |-,vac> halves gather the
    same phase, so F = (1/2) |1 + conj(a0) a + conj(b0) b| with a, b the
    model's amplitudes on |+,vac>, |-,1_N> and a0, b0 those of the two-level
    Rabi problem {|+,vac>, |-,1_N>}.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise DomainError("time grid must not be empty")
    params = model.params
    g = effective_coupling(params)
    half_split = 0.5 * params.electron_splitting
    mean = 0.5 * params.nuclear_zeeman
    detuning = half_split - mean  # half the gap between |+,vac> and |-,1_N>
    rabi = math.hypot(detuning, g)
    envelope = np.exp(-1j * mean * t_grid)
    sin_rt = np.sin(rabi * t_grid)
    a0 = envelope * (np.cos(rabi * t_grid) - 1j * (detuning / rabi) * sin_rt)
    b0 = envelope * (-1j * (g / rabi) * sin_rt)

    a, b = model.propagator.amplitudes(t_grid)
    f = 0.5 * np.abs(1.0 + np.conj(a0) * a + np.conj(b0) * b)
    f = np.minimum(f, 1.0)
    meta = {
        "g": g,
        "N": params.N,
        "active_modes": list(model.active_modes),
    }
    return FidelityCurve(t_grid, f, "numeric", meta)
