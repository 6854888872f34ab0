"""Brute-force ground truth on the full spin Hilbert space.

Builds H = H_e + H_n + H_en with genuine spin-s operators for small rings
and evolves states by dense eigendecomposition.  This module is the oracle
the bosonized simulator is validated against; it makes no low-excitation
approximation.

Every matrix element of H is real, so H is a real symmetric matrix: one
real ``eigh`` gives real eigenvectors V, and exp(-iHt)|psi> is
V (exp(-iEt) * V^T psi).  A whole time grid is propagated as one batched
product, a block of rows at a time; each block of complex rows is kept
under ``PROPAGATION_BLOCK_BYTES``, so a grid of any length costs
O(dim^2 + block * dim) memory beyond the rows a caller keeps.

Basis layout: joint index = electron * (2s+1)^N + nuclear index, electron
0 = |+> (up), 1 = |-> (down).  A nuclear configuration is the tuple of
per-site flip numbers m_l in {0..2s} away from the fully polarised ground
state |G> (all m_l = 0); site l has digit weight (2s+1)^(l-1).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import CouplingProfile, PhysicalParams
from .protocol import QubitState

__all__ = [
    "SpinRingBasis",
    "ExactHamiltonian",
    "build_exact",
    "evolve_exact",
    "reduce_electron",
    "up_population",
    "excitation_numbers",
    "product_state",
]

DEFAULT_DIM_CAP = 8192  # 2 * 2^12: N = 12 at s = 1/2
PROPAGATION_BLOCK_BYTES = 16 * 2**20  # complex rows per propagation block
NORM_TOL = 1e-10  # allowed |norm - 1| of a joint state


class SpinRingBasis:
    """Enumeration of the electron (x) nuclear-ring product basis."""

    def __init__(self, N: int, s: float):
        self.N = int(N)
        self.two_s = int(round(2 * s))
        self.s = s
        self.d = self.two_s + 1
        self.nuc_dim = self.d**self.N
        self.dim = 2 * self.nuc_dim
        idx = np.arange(self.nuc_dim)
        weights = self.d ** np.arange(self.N)
        # occupations[i, l] = flips on site l+1 in nuclear configuration i
        self.occupations = (idx[:, None] // weights[None, :]) % self.d
        self._weights = weights

    def nuclear_index(self, flips) -> int:
        flips = np.asarray(flips, dtype=int)
        if flips.size != self.N or np.any(flips < 0) or np.any(flips > self.two_s):
            raise DomainError("invalid nuclear configuration")
        return int(flips @ self._weights)

    def index(self, electron: int, flips) -> int:
        if electron not in (0, 1):
            raise DomainError("electron index must be 0 (up) or 1 (down)")
        return electron * self.nuc_dim + self.nuclear_index(flips)


class ExactHamiltonian:
    """Dense real symmetric H on the exact spin space, with cached eigensystem."""

    def __init__(self, matrix: np.ndarray, params: PhysicalParams,
                 profile: CouplingProfile, basis: SpinRingBasis):
        self.matrix = matrix
        self.params = params
        self.profile = profile
        self.basis = basis
        self._eig = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Real eigenvalues and real orthonormal eigenvectors (columns) of H."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.matrix)
        return self._eig


def build_exact(params: PhysicalParams, profile: CouplingProfile,
                max_dim: int = DEFAULT_DIM_CAP) -> ExactHamiltonian:
    """Assemble H_e + H_n + H_en on the full 2(2s+1)^N space.

    H_e  = +g_e mu_B B0 sigma_z
    H_n  = +g_n mu_n B0 sum_l S_z^l - J sum_l S^l . S^(l+1)   (periodic)
    H_en = (1/2N) sum_l lambda_l (sigma_+ S_-^l + h.c.)

    Spin operators act in the (2s+1)-dimensional representation with
    S_z |m> = (m - s)|m> and S_- |m> = sqrt(m (2s - m + 1)) |m-1>.  The
    signs match the bosonized model: |+> sits at +Omega/2 = +g_e mu_B B0,
    and one flip away from the ground state |G> (all S_z = -s) costs
    omega_k = g_n mu_n B0 + 2Js(1 - cos(2 pi k/N)).

    H is real symmetric (float64): the Zeeman and S_z S_z terms are real
    diagonals, the matrix elements of S_+ and S_- in the S_z basis are real
    square roots, and the site couplings lambda_l are real, so neither the
    transverse exchange nor the hyperfine flip-flop carries a phase.

    The dimension is checked against ``max_dim`` in integer arithmetic
    before anything of that size is allocated.
    """
    if profile.N != params.N:
        raise DomainError("profile length must equal params.N")
    dim = 2 * (params.two_s + 1) ** params.N
    if dim > max_dim:
        raise ResourceLimitError(
            f"exact Hilbert space dimension {dim} exceeds the cap "
            f"{max_dim}; reduce N or s, or raise max_dim explicitly"
        )
    basis = SpinRingBasis(params.N, params.s)
    N, s, two_s, d = params.N, params.s, basis.two_s, basis.d
    nuc = basis.nuc_dim
    occ = basis.occupations
    m = occ.astype(float)
    idx = np.arange(nuc)

    H = np.zeros((dim, dim))

    # Diagonal: nuclear Zeeman, S_z S_z exchange, electron Zeeman.
    sz = m - s
    diag_nuc = params.nuclear_zeeman * sz.sum(axis=1)
    for l in range(N):
        diag_nuc -= params.J * sz[:, l] * sz[:, (l + 1) % N]
    e_zeeman = params.g_e * params.mu_B * params.B0  # energy of |+>; |-> gets the opposite
    di = np.arange(nuc)
    H[di, di] += diag_nuc + e_zeeman
    H[nuc + di, nuc + di] += diag_nuc - e_zeeman

    # Transverse exchange: -(J/2) (S_+^l S_-^(l+1) + S_-^l S_+^(l+1)).
    if params.J != 0.0:
        for l in range(N):
            l2 = (l + 1) % N
            ml, ml2 = occ[:, l], occ[:, l2]
            mask = (ml < two_s) & (ml2 > 0)
            if not mask.any():
                continue
            src = idx[mask]
            tgt = src + d**l - d**l2
            amp = -0.5 * params.J * np.sqrt(
                (ml[mask] + 1.0) * (two_s - ml[mask])
            ) * np.sqrt(ml2[mask] * (two_s - ml2[mask] + 1.0))
            for e in (0, 1):
                H[e * nuc + tgt, e * nuc + src] += amp
                H[e * nuc + src, e * nuc + tgt] += amp

    # Hyperfine: (lambda_l / 2N) (sigma_+ S_-^l + sigma_- S_+^l).
    for l in range(N):
        ml = occ[:, l]
        mask = ml > 0
        if not mask.any():
            continue
        src = idx[mask]            # nuclear part of |-, m>
        tgt = src - d**l           # nuclear part of |+, m - e_l>
        amp = (profile.lambdas[l] / (2.0 * N)) * np.sqrt(
            ml[mask] * (two_s - ml[mask] + 1.0)
        )
        H[tgt, nuc + src] += amp
        H[nuc + src, tgt] += amp

    return ExactHamiltonian(H, params, profile, basis)


def _eigen_coefficients(ham: ExactHamiltonian, state) -> np.ndarray:
    """V^T |state>, after checking the state's shape and norm."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (ham.dim,):
        raise DomainError(
            f"state dimension {state.shape} does not match H dimension {ham.dim}"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise DomainError(f"state must be normalised, |norm - 1| = {abs(norm - 1.0):.3e}")
    vecs = ham.eigensystem()[1]
    # two real products: a complex operand would cast V to a complex copy
    return vecs.T @ state.real + 1j * (vecs.T @ state.imag)


def _time_grid(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if times.ndim != 1:
        raise DomainError(f"times must be a 1-d array, got shape {times.shape}")
    return times


def _propagate(ham: ExactHamiltonian, coeffs: np.ndarray, times: np.ndarray):
    """Yield (rows, exp(-iHt)|psi> for the times of those rows), block by
    block, where coeffs = V^T psi.  A block holds at most
    PROPAGATION_BLOCK_BYTES of complex rows (at least one row)."""
    evals, vecs = ham.eigensystem()
    block = max(1, PROPAGATION_BLOCK_BYTES // (16 * ham.dim))
    for lo in range(0, times.size, block):
        rows = slice(lo, lo + block)
        amps = np.exp(-1j * np.outer(times[rows], evals)) * coeffs
        yield rows, amps.real @ vecs.T + 1j * (amps.imag @ vecs.T)


def evolve_exact(ham: ExactHamiltonian, state: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) |state> via the (cached) eigendecomposition.

    A scalar t gives the evolved vector.  A 1-d array of times gives one
    row per time, (exp(-i E (x) t) * V^T psi) V^T, computed block by block;
    the state is checked once per call.
    """
    coeffs = _eigen_coefficients(ham, state)
    times = _time_grid(np.atleast_1d(t))
    out = np.empty((times.size, ham.dim), dtype=complex)
    for rows, psi in _propagate(ham, coeffs, times):
        out[rows] = psi
    return out[0] if np.ndim(t) == 0 else out


def up_population(ham: ExactHamiltonian, state: np.ndarray, times) -> np.ndarray:
    """<+|rho_e(t)|+>, the electron's |+> population, for a 1-d array of times.

    The sum of |psi(t)|^2 over the |+> block of the electron-major layout,
    as reduce_electron would give it.  The grid is propagated block by
    block and no block is kept, so memory does not grow with the number of
    times.  Every evolved row must keep its norm to NORM_TOL, or
    DomainError is raised.
    """
    coeffs = _eigen_coefficients(ham, state)
    times = _time_grid(times)
    nuc = ham.basis.nuc_dim
    pop = np.empty(times.size)
    for rows, psi in _propagate(ham, coeffs, times):
        weights = psi.real**2 + psi.imag**2
        drift = np.abs(np.sqrt(weights.sum(axis=1)) - 1.0)
        if np.any(drift > NORM_TOL):
            raise DomainError(
                f"evolved state lost its normalisation, |norm - 1| = {drift.max():.3e}"
            )
        pop[rows] = weights[:, :nuc].sum(axis=1)
    return pop


def reduce_electron(state: np.ndarray) -> QubitState:
    """Partial trace over the nuclei: 2x2 electron density matrix.

    The joint state must be laid out electron-major ((+) block first), as
    produced by SpinRingBasis.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1 or state.size % 2 != 0:
        raise DomainError("joint state must be a 1-d vector of even length")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise DomainError("joint state must be normalised")
    psi = state.reshape(2, -1)
    return QubitState(psi @ psi.conj().T)


def excitation_numbers(basis: SpinRingBasis) -> np.ndarray:
    """Diagonal of C = (sigma_z + 1)/2 + sum_l (s + S_z^l) in this basis.

    H_en trades one electron flip for one nuclear flip, so [H, C] = 0.
    """
    flips = basis.occupations.sum(axis=1)
    return np.concatenate([flips + 1.0, flips.astype(float)])


def product_state(basis: SpinRingBasis, electron: int, flips=None) -> np.ndarray:
    """|electron> (x) |m_1..m_N>; defaults to the polarised ground state |G>."""
    if flips is None:
        flips = np.zeros(basis.N, dtype=int)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index(electron, flips)] = 1.0
    return vec
