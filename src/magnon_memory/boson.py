"""Bosonized dynamics: electron spin plus N magnon modes in truncated Fock space.

The low-excitation Hamiltonian is

    H = sum_k omega_k b_k^dag b_k + (Omega/2) sigma_z
        + g (sigma_+ b_N + sigma_- b_N^dag)
        + g (sigma_+ sum_{k != N} chi_k b_k + h.c.)

with g = lam sqrt(s/2N) and Omega = 2 g_e mu_B B0.  Spectator modes whose
|chi_k| falls below a threshold are pruned from the state space; the memory
mode N is always kept.

Two bases are provided: a full product Fock basis (small mode counts) and a
single-excitation basis spanning {|+,vac>, |-,vac>, |-,1_k>}.  Electron
index 0 = |+>, 1 = |->.  Dense evolution on either basis goes through
``evolve_constant``; it serves the protocol's stores with occupied
spectators, and the tests as the reference.

The protocol and fidelity runs use :class:`SingleExcitationPropagator`
instead.  In the single-excitation sector |-,vac> only gathers the phase
e^{i Omega t/2}, and the dynamics from |+,vac> is an arrowhead matrix whose
poles omega_k - Omega/2 come in equal pairs {k, N-k}.  Each pair couples to
|+,vac> through one bright combination, so one real eigendecomposition of
about N/2 + 2 rows gives a(t) = <+,vac|U(t)|+,vac> and
b(t) = <-,1_N|U(t)|+,vac>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, RegimeError, ResourceLimitError
from .model import (
    ChiSpectrum,
    PhysicalParams,
    effective_coupling,
    spectator_frequencies,
)

__all__ = [
    "BosonModel",
    "FockBasis",
    "SingleExcitationBasis",
    "SingleExcitationPropagator",
    "JointState",
    "PulseShape",
    "build_boson_hamiltonian",
    "evolve_constant",
    "evolve_pulsed",
    "occupation",
    "product_state",
    "excitation_diagonal",
]

DEFAULT_AMPLITUDE_CAP = 2_000_000
DEFAULT_CHI_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class BosonModel:
    """Electron + magnon model, with spectator modes pruned by |chi_k|."""

    params: PhysicalParams
    chi: ChiSpectrum
    fock_cutoff: int = 1
    chi_threshold: float = DEFAULT_CHI_THRESHOLD
    active_modes: tuple = field(init=False)
    omega: np.ndarray = field(init=False)  # omega_k for k = 1..N

    def __post_init__(self):
        if self.chi.N != self.params.N:
            raise DomainError("chi spectrum length must equal params.N")
        if self.fock_cutoff < 1:
            raise DomainError("fock_cutoff must be >= 1")
        mags = np.abs(self.chi.chi[:-1])
        active = (np.flatnonzero(mags >= self.chi_threshold) + 1).tolist()
        active.append(self.params.N)  # memory mode always active, and last
        object.__setattr__(self, "active_modes", tuple(active))
        omega = np.append(spectator_frequencies(self.params), self.params.nuclear_zeeman)
        object.__setattr__(self, "omega", omega)

    @property
    def g(self) -> float:
        return effective_coupling(self.params)

    @cached_property
    def active_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega_k, electron coupling) of the active modes, in their order."""
        idx = np.array(self.active_modes) - 1
        coupling = self.g * self.chi.chi[idx]
        coupling[-1] = self.g
        return self.omega[idx], coupling

    @cached_property
    def propagator(self) -> "SingleExcitationPropagator":
        """The model's single-excitation propagator, built on first use."""
        return SingleExcitationPropagator(self)


class FockBasis:
    """Product basis: electron (x) truncated Fock space of the active modes."""

    def __init__(self, modes: tuple, cutoff: int,
                 amplitude_cap: int = DEFAULT_AMPLITUDE_CAP):
        self.modes = tuple(modes)
        self.cutoff = int(cutoff)
        base = self.cutoff + 1
        n_modes = len(self.modes)
        if base**n_modes > amplitude_cap // 2:
            raise ResourceLimitError(
                f"Fock basis would need {2 * base**n_modes} amplitudes, above the "
                f"cap {amplitude_cap}; prune modes or use SingleExcitationBasis"
            )
        self.mode_dim = base**n_modes
        self.dim = 2 * self.mode_dim
        idx = np.arange(self.mode_dim)
        weights = base ** np.arange(n_modes)
        self.occupations = (idx[:, None] // weights[None, :]) % base
        self._weights = weights
        self._position = {k: p for p, k in enumerate(self.modes)}

    def index(self, electron: int, occs=None) -> int:
        if electron not in (0, 1):
            raise DomainError("electron index must be 0 (up) or 1 (down)")
        if occs is None:
            return electron * self.mode_dim
        occs = np.asarray(occs, dtype=int)
        if occs.size != len(self.modes) or np.any(occs < 0) or np.any(occs > self.cutoff):
            raise DomainError("invalid mode occupation tuple")
        return electron * self.mode_dim + int(occs @ self._weights)

    def mode_position(self, k: int) -> int:
        if k not in self._position:
            raise DomainError(f"mode k={k} is not active in this basis")
        return self._position[k]

    def occupation_diagonal(self, k: int) -> np.ndarray:
        p = self.mode_position(k)
        return np.tile(self.occupations[:, p].astype(float), 2)

    def reduce_electron(self, vec: np.ndarray) -> np.ndarray:
        psi = vec.reshape(2, self.mode_dim)
        return psi @ psi.conj().T

    def reduce_mode(self, vec: np.ndarray, k: int) -> np.ndarray:
        """(cutoff+1)^2 reduced density matrix of mode k."""
        p = self.mode_position(k)
        base = self.cutoff + 1
        stride = base**p
        occ_k = self.occupations[:, p]
        w = np.zeros((base, base), dtype=complex)
        for e in (0, 1):
            block = vec[e * self.mode_dim:(e + 1) * self.mode_dim]
            for n in range(base):
                rows = np.where(occ_k == n)[0]
                for mm in range(base):
                    partners = rows + (mm - n) * stride
                    w[n, mm] += block[rows] @ block[partners].conj()
        return w


class SingleExcitationBasis:
    """Span of {|+,vac>, |-,vac>, |-,1_k>} for the active modes.

    The Hamiltonian conserves total excitation (electron up counts one), so
    initial states in this sector never leave it; the basis makes large-N
    runs linear in N instead of exponential.
    """

    cutoff = 1

    def __init__(self, modes: tuple):
        self.modes = tuple(modes)
        self.dim = 2 + len(self.modes)
        self._position = {k: p for p, k in enumerate(self.modes)}

    def index(self, electron: int, occs=None) -> int:
        if occs is None or not np.any(occs):
            if electron not in (0, 1):
                raise DomainError("electron index must be 0 (up) or 1 (down)")
            return electron
        occs = np.asarray(occs, dtype=int)
        if electron != 1 or occs.sum() != 1 or np.any(occs < 0):
            raise DomainError("single-excitation basis holds |+,vac>, |-,vac>, |-,1_k> only")
        return 2 + int(np.argmax(occs))

    def mode_position(self, k: int) -> int:
        if k not in self._position:
            raise DomainError(f"mode k={k} is not active in this basis")
        return self._position[k]

    def occupation_diagonal(self, k: int) -> np.ndarray:
        p = self.mode_position(k)
        diag = np.zeros(self.dim)
        diag[2 + p] = 1.0
        return diag

    def reduce_electron(self, vec: np.ndarray) -> np.ndarray:
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = abs(vec[0]) ** 2
        rho[0, 1] = vec[0] * np.conj(vec[1])
        rho[1, 0] = np.conj(rho[0, 1])
        rho[1, 1] = abs(vec[1]) ** 2 + np.sum(np.abs(vec[2:]) ** 2)
        return rho

    def reduce_mode(self, vec: np.ndarray, k: int) -> np.ndarray:
        p = self.mode_position(k)
        w = np.zeros((2, 2), dtype=complex)
        pop1 = abs(vec[2 + p]) ** 2
        w[1, 1] = pop1
        w[0, 0] = np.sum(np.abs(vec) ** 2) - pop1
        # only |-,vac> and |-,1_k> share the rest of their configuration
        w[0, 1] = vec[1] * np.conj(vec[2 + p])
        w[1, 0] = np.conj(w[0, 1])
        return w


@dataclass(frozen=True, eq=False)
class JointState:
    """Normalised amplitude vector over an electron (x) magnon basis."""

    vector: np.ndarray
    basis: object

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        object.__setattr__(self, "vector", vec)
        if vec.shape != (self.basis.dim,):
            raise DomainError("state dimension does not match its basis")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise DomainError("joint state must be normalised to 1e-10")


def product_state(model: BosonModel, electron: int, occupations=None,
                  basis=None) -> JointState:
    """|electron> (x) Fock state of the active modes (vacuum by default)."""
    if basis is None:
        basis = SingleExcitationBasis(model.active_modes) if occupations is None \
            else FockBasis(model.active_modes, model.fock_cutoff)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index(electron, occupations)] = 1.0
    return JointState(vec, basis)


def build_boson_hamiltonian(model: BosonModel, basis=None) -> np.ndarray:
    """Dense Hermitian matrix of the bosonized H on the given basis."""
    if basis is None:
        basis = FockBasis(model.active_modes, model.fock_cutoff)
    if tuple(basis.modes) != tuple(model.active_modes):
        raise DomainError("basis modes do not match the model's active modes")
    omega, coupling = model.active_arrays
    half_split = 0.5 * model.params.electron_splitting

    if isinstance(basis, SingleExcitationBasis):
        H = np.zeros((basis.dim, basis.dim), dtype=complex)
        H[0, 0] = half_split
        H[1, 1] = -half_split
        rows = np.arange(2, basis.dim)
        H[rows, rows] = omega - half_split
        H[0, 2:] = coupling
        H[2:, 0] = np.conj(coupling)
        return H

    base = basis.cutoff + 1
    md = basis.mode_dim
    H = np.zeros((basis.dim, basis.dim), dtype=complex)
    occ = basis.occupations
    di = np.arange(md)
    diag_mode = occ.astype(float) @ omega
    H[di, di] = diag_mode + half_split
    H[md + di, md + di] = diag_mode - half_split
    # sigma_+ b_k: |-, n> -> sqrt(n_k) |+, n - 1_k>, plus the conjugate.
    for p in range(len(basis.modes)):
        nk = occ[:, p]
        mask = nk > 0
        if not mask.any():
            continue
        src = di[mask]
        tgt = src - base**p
        amp = coupling[p] * np.sqrt(nk[mask].astype(float))
        H[tgt, md + src] += amp
        H[md + src, tgt] += np.conj(amp)
    return H


def evolve_constant(model: BosonModel, state: JointState, t: float) -> JointState:
    """exp(-i H t) |state> with constant couplings, via eigendecomposition."""
    H = build_boson_hamiltonian(model, state.basis)
    evals, vecs = np.linalg.eigh(H)
    out = vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ state.vector))
    return JointState(out, state.basis)


class SingleExcitationPropagator:
    """a(t) and b(t) of a model from one real eigendecomposition.

    The rows are |+,vac>, |-,1_N> and one bright state per spectator pair
    {k, N-k}.  A pair shares the pole omega_k - Omega/2 (omega_k =
    omega_{N-k}; pairs are matched by index because the two floating-point
    frequencies can differ in the last bits), so it couples to |+,vac> only
    through sum_k conj(c_k)|-,1_k> / r with c_k = g chi_k and
    r = sqrt(sum_k |c_k|^2).  The coupling r is real, so the matrix is real
    symmetric.  The orthogonal dark combinations, and pairs with r = 0, are
    never populated and are left out.
    """

    def __init__(self, model: BosonModel):
        N = model.params.N
        half_split = 0.5 * model.params.electron_splitting
        omega, coupling = model.active_arrays
        spectators = np.array(model.active_modes[:-1], dtype=int)
        pairs, pair_of = np.unique(np.minimum(spectators, N - spectators),
                                   return_inverse=True)
        strength = np.sqrt(np.bincount(pair_of, np.abs(coupling[:-1]) ** 2,
                                       minlength=pairs.size))
        bright = strength > 0.0

        diag = np.concatenate([[half_split, omega[-1] - half_split],
                               model.omega[pairs[bright] - 1] - half_split])
        H = np.diag(diag)
        H[0, 1:] = H[1:, 0] = np.concatenate([[model.g], strength[bright]])
        self.energies, self.vectors = np.linalg.eigh(H)

    def amplitudes(self, t) -> tuple[np.ndarray, np.ndarray]:
        """a(t) = <+,vac|U(t)|+,vac> and b(t) = <-,1_N|U(t)|+,vac> on a time grid."""
        phases = np.exp(-1j * np.outer(np.atleast_1d(t), self.energies))
        a = phases @ self.vectors[0] ** 2
        b = phases @ (self.vectors[1] * self.vectors[0])
        return a, b


@dataclass(frozen=True, eq=False)
class PulseShape:
    """Sampled coupling envelope lam(t) >= 0 on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    kind: str = "custom-sampled"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise DomainError("pulse needs matching 1-d time and value arrays (>= 2 samples)")
        if np.any(np.diff(t) <= 0):
            raise DomainError("pulse time grid must be strictly increasing")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError("pulse samples must be finite and >= 0")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def area(self) -> float:
        """Trapezoid-rule integral of lam(t) over the declared grid."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.values, self.times))

    @classmethod
    def rectangular(cls, height: float, duration: float, samples: int = 2) -> "PulseShape":
        t = np.linspace(0.0, duration, samples)
        return cls(t, np.full(samples, float(height)), kind="rectangular")

    @classmethod
    def gaussian_ramp(cls, peak: float, duration: float, sigma: float | None = None,
                      samples: int = 401) -> "PulseShape":
        """Smooth rise-and-fall envelope, Gaussian around the pulse centre."""
        sigma = sigma if sigma is not None else duration / 6.0
        t = np.linspace(0.0, duration, samples)
        v = peak * np.exp(-((t - duration / 2.0) ** 2) / (2.0 * sigma**2))
        return cls(t, v, kind="gaussian-ramp")

    def with_area(self, target: float) -> "PulseShape":
        """Rescale the envelope so its trapezoid area equals ``target``."""
        if self.area <= 0:
            raise DomainError("cannot rescale a zero-area pulse")
        return PulseShape(self.times, self.values * (target / self.area), kind=self.kind)


def evolve_pulsed(model: BosonModel, state: JointState, pulse: PulseShape) -> JointState:
    """Evolution under a time-dependent coupling lam(t) at resonance.

    H(t) = H_0 + f(t) V, and the area shortcut (a constant run of duration
    area / lam) is exact only when [H_0, V] = 0: at B0 = 0 and with every
    active spectator at the memory frequency omega_N (homogeneous rings,
    whose spectators are pruned, or J = 0).  A spectator with
    omega_k != omega_N makes the couplings at different times fail to
    commute, and the time-ordered evolution that would need is not
    supported, so those models raise RegimeError, as B0 != 0 does.
    """
    if model.params.B0 != 0.0:
        raise RegimeError("pulsed evolution requires B0 = 0 (resonant, commuting regime)")
    omega, _ = model.active_arrays
    if np.any(omega[:-1] != omega[-1]):
        raise RegimeError("pulsed evolution requires every active spectator at the "
                          "memory frequency omega_N; this ring has omega_k != omega_N")
    return evolve_constant(model, state, pulse.area / model.params.lam)


def occupation(state: JointState, k: int) -> float:
    """Expectation <b_k^dag b_k> in a joint state; k must be active."""
    diag = state.basis.occupation_diagonal(k)
    return float(np.real(np.sum(np.abs(state.vector) ** 2 * diag)))


def excitation_diagonal(basis) -> np.ndarray:
    """Diagonal of the conserved excitation count (electron up counts 1)."""
    if isinstance(basis, SingleExcitationBasis):
        return np.concatenate([[1.0, 0.0], np.ones(len(basis.modes))])
    occ_total = basis.occupations.sum(axis=1).astype(float)
    return np.concatenate([occ_total + 1.0, occ_total])
