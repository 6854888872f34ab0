"""Write/read protocol: swap the electron qubit into the memory magnon mode.

Basis conventions (fixed package-wide, mind the cross-alignment):

* ``QubitState`` matrices are ordered (|+>, |->) = (up, down), so
  rho[0, 0] is the spin-up population.
* ``StoredState`` matrices are ordered over memory-mode Fock levels
  (|0_N>, |1_N>).
* The resonant swap maps |-> -> |0_N> and |+> -> -i |1_N> (the dark state
  stays put, the excited branch completes half a Rabi cycle).  After the
  relabelling - <-> 0, + <-> 1 the map is the fixed diagonal phase
  diag(1, e^{-i pi/2}), independent of the stored state.

With the spectators in vacuum the write and read steps stay in the
single-excitation sector, where |-,vac> does not move at B0 = 0.  The
stored state and the leakage are then closed-form functions of
b(t0) = <-,1_N|U(t0)|+,vac>, and the round trip and its process fidelity of
A = a(2 t0) = <+,vac|U(2 t0)|+,vac>; both come from the model's cached
``SingleExcitationPropagator``.  Only stores with occupied spectators are
evolved densely, on a Fock basis, for both the write and the read step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boson import BosonModel, FockBasis, JointState, evolve_constant
from .errors import DomainError, RegimeError
from .model import swap_time

__all__ = [
    "QubitState",
    "StoredState",
    "StoreOutcome",
    "ideal_store_map",
    "store",
    "store_outcome",
    "retrieve",
    "round_trip",
    "roundtrip_unitary",
    "process_fidelity_roundtrip",
    "map_fidelity",
    "uhlmann_fidelity",
    "trace_distance",
]

_VALIDATION_ATOL = 1e-10


def _check_density_matrix(mat: np.ndarray, what: str, atol: float) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise DomainError(f"{what} must be a 2x2 matrix")
    if np.max(np.abs(mat - mat.conj().T)) > atol:
        raise DomainError(f"{what} must be Hermitian")
    if abs(np.trace(mat).real - 1.0) > atol or abs(np.trace(mat).imag) > atol:
        raise DomainError(f"{what} must have unit trace")
    if np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))) < -atol:
        raise DomainError(f"{what} must be positive semidefinite")
    return mat


@dataclass(frozen=True, eq=False)
class QubitState:
    """Electron density matrix in the (|+>, |->) ordering."""

    rho: np.ndarray
    atol: float = _VALIDATION_ATOL

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_density_matrix(self.rho, "qubit state", self.atol))

    @classmethod
    def pure(cls, plus_amp: complex, minus_amp: complex) -> "QubitState":
        v = np.array([plus_amp, minus_amp], dtype=complex)
        v /= np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def up(cls) -> "QubitState":
        return cls.pure(1.0, 0.0)

    @classmethod
    def down(cls) -> "QubitState":
        return cls.pure(0.0, 1.0)

    @classmethod
    def mixed_diagonal(cls, p_plus: float, p_minus: float) -> "QubitState":
        return cls(np.diag([p_plus, p_minus]).astype(complex))

    @staticmethod
    def pauli_inputs() -> list["QubitState"]:
        """The four tomography inputs: |+z>, |-z>, |+x>, |+y>."""
        s = 1.0 / np.sqrt(2.0)
        return [
            QubitState.up(),
            QubitState.down(),
            QubitState.pure(s, s),
            QubitState.pure(s, 1j * s),
        ]

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


@dataclass(frozen=True, eq=False)
class StoredState:
    """Memory-mode density matrix over Fock levels (|0_N>, |1_N>)."""

    w: np.ndarray
    atol: float = _VALIDATION_ATOL

    def __post_init__(self):
        object.__setattr__(self, "w", _check_density_matrix(self.w, "stored state", self.atol))

    def purity(self) -> float:
        return float(np.trace(self.w @ self.w).real)


# Basis map of the ideal swap: columns are the images of |+> and |->.
_SWAP_MAP = np.array([[0.0, 1.0], [-1.0j, 0.0]], dtype=complex)


def ideal_store_map(rho: QubitState) -> StoredState:
    """Analytic image of the swap: w = A rho A^dag with A = [[0,1],[-i,0]].

    Entrywise, w_nm = rho~_nm e^{i (m - n) pi / 2} where rho~ is rho in the
    relabelled ordering (- <-> 0, + <-> 1), i.e. populations swap blocks and
    coherences pick up the fixed -i / +i phases.
    """
    return StoredState(_SWAP_MAP @ rho.rho @ _SWAP_MAP.conj().T)


def _require_resonant(model: BosonModel, what: str):
    if model.params.B0 != 0.0:
        raise RegimeError(f"{what} requires B0 = 0 (resonant storage)")


def _initial_occupations(model: BosonModel, spectator_occupations):
    """Active-mode occupation vector with the memory mode forced to vacuum."""
    modes = model.active_modes
    occs = np.zeros(len(modes), dtype=int)
    if spectator_occupations:
        for k, n in dict(spectator_occupations).items():
            if k == model.params.N:
                if n != 0:
                    raise DomainError("memory mode must start in the vacuum state")
                continue
            if k not in modes:
                raise DomainError(
                    f"spectator mode {k} is not an active mode of the model")
            occs[modes.index(k)] = int(n)
    return occs


@dataclass(frozen=True, eq=False)
class StoreOutcome:
    """Stored state and leakage of a write step, plus what retrieval needs.

    ``occupations`` is None when the spectators start in vacuum; then the
    single-excitation propagator of ``model`` gives everything in closed
    form.  Otherwise it holds the active-mode occupations of the Fock-basis
    store, which ``retrieve`` evolves again from rho.
    """

    stored: StoredState
    leakage: float
    model: BosonModel
    rho: QubitState
    occupations: np.ndarray | None = None


def _evolved_branches(rho: QubitState, model: BosonModel, occs: np.ndarray,
                      t: float) -> list:
    """Evolve each eigenbranch of rho (x) the Fock occupations occs for t.

    Returns [(probability, JointState at t), ...].  Mixing the branches
    with their weights equals evolving a purification of rho with a
    virtual reference and tracing the reference out.
    """
    probs, vecs = np.linalg.eigh(rho.rho)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    basis = FockBasis(model.active_modes, max(model.fock_cutoff, int(occs.max())))
    branches = []
    for p, amp in zip(probs, vecs.T):
        if p == 0.0:
            continue
        init = np.zeros(basis.dim, dtype=complex)
        init[basis.index(0, occs)] = amp[0]
        init[basis.index(1, occs)] = amp[1]
        branches.append((float(p), evolve_constant(model, JointState(init, basis), t)))
    return branches


def store_outcome(rho: QubitState, model: BosonModel,
                  spectator_occupations=None) -> StoreOutcome:
    """Run the write step: evolve rho (x) vacuum for t0 under the model.

    With the spectators in vacuum everything follows from b = b(t0):
    w_11 = rho_++ |b|^2, w_01 = rho_-+ conj(b) and leakage = rho_++ (1 - |b|^2).
    Occupied spectators take the dense Fock-basis route, one evolved
    eigenbranch of rho at a time.
    """
    _require_resonant(model, "store")
    occs = _initial_occupations(model, spectator_occupations)
    if np.any(occs):
        return _fock_store(rho, model, occs)
    _, b = model.propagator.amplitudes(swap_time(model.params))
    b = b[0]
    r = rho.rho
    kept = r[0, 0].real * abs(b) ** 2
    w = np.array([[1.0 - kept, r[1, 0] * np.conj(b)],
                  [r[0, 1] * b, kept]])
    leakage = max(0.0, r[0, 0].real * (1.0 - abs(b) ** 2))
    return StoreOutcome(StoredState(w), float(leakage), model, rho)


def _fock_store(rho: QubitState, model: BosonModel, occs: np.ndarray) -> StoreOutcome:
    """Dense store with occupied spectators.

    The memory mode can reach n_N >= 2 when the Fock cutoff allows it.
    ``StoredState`` spans (|0_N>, |1_N>) only, so that block's population
    is added to w_00: like the leakage, it counts as population that did
    not carry the qubit into |1_N>, and w keeps unit trace.  At cutoff 1
    the block is empty and w is the reduced state's upper 2x2 block.
    """
    w = np.zeros((2, 2), dtype=complex)
    leakage = 0.0
    for p, final in _evolved_branches(rho, model, occs, swap_time(model.params)):
        reduced = final.basis.reduce_mode(final.vector, model.params.N)
        w += p * reduced[:2, :2]
        w[0, 0] += p * np.trace(reduced[2:, 2:]).real
        leakage += p * _branch_leakage(final, occs, model.params.N)
    return StoreOutcome(StoredState(w), float(leakage), model, rho, occs)


def _branch_leakage(final: JointState, initial_occs, memory_mode: int) -> float:
    """Population outside {electron -} (x) {spectators as prepared} (x) {n_N <= 1}."""
    basis = final.basis
    n_pos = basis.mode_position(memory_mode)
    occ = basis.occupations
    sel = occ[:, n_pos] <= 1
    for p in range(len(basis.modes)):
        if p != n_pos:
            sel &= occ[:, p] == initial_occs[p]
    block = final.vector[basis.mode_dim:]  # electron |-> block
    good = float(np.sum(np.abs(block[sel]) ** 2))
    return max(0.0, 1.0 - good)


def store(rho: QubitState, model: BosonModel,
          spectator_occupations=None) -> tuple[StoredState, float]:
    """Write step; returns (memory-mode state, leaked population)."""
    out = store_outcome(rho, model, spectator_occupations)
    return out.stored, out.leakage


def _round_trip_closed_form(rho: QubitState, model: BosonModel) -> QubitState:
    """rho after 2 t0 in the single-excitation sector, from A = a(2 t0).

    rho_++ -> rho_++ |A|^2 and rho_+- -> rho_+- A: an amplitude-damping
    channel with a phase, since |-,vac> does not move at B0 = 0.
    """
    a, _ = model.propagator.amplitudes(2.0 * swap_time(model.params))
    r = rho.rho
    kept = r[0, 0].real * abs(a[0]) ** 2
    coherence = r[0, 1] * a[0]
    return QubitState(np.array([[kept, coherence],
                                [np.conj(coherence), 1.0 - kept]]))


def retrieve(outcome: StoreOutcome) -> QubitState:
    """Read step: evolve a stored state for another t0, reduce the electron.

    With the spectators in vacuum the round trip is a closed-form function
    of a(2 t0).  A Fock-basis store evolves each eigenbranch of rho (x) its
    spectator occupations for 2 t0 under the storing model instead.
    """
    model = outcome.model
    if outcome.occupations is None:
        return _round_trip_closed_form(outcome.rho, model)
    branches = _evolved_branches(outcome.rho, model, outcome.occupations,
                                 2.0 * swap_time(model.params))
    return QubitState(sum(p * final.basis.reduce_electron(final.vector)
                          for p, final in branches))


def round_trip(rho: QubitState, model: BosonModel) -> QubitState:
    """store followed by retrieve."""
    return retrieve(store_outcome(rho, model))


def roundtrip_unitary() -> np.ndarray:
    """Fixed electron unitary of the ideal write+read cycle: diag(-1, 1).

    Two half Rabi cycles flip the sign of the excited branch; the dark
    branch is untouched.
    """
    return np.diag([-1.0 + 0.0j, 1.0 + 0.0j])


def process_fidelity_roundtrip(model: BosonModel) -> float:
    """Process fidelity of the actual round trip against the ideal unitary.

    The round trip has Kraus operators diag(A, 1) and sqrt(1 - |A|^2)|-><+|
    with A = a(2 t0), so against diag(-1, 1) the process fidelity
    sum_i |Tr(U^dag K_i)|^2 / 4 is |1 - A|^2 / 4.
    """
    _require_resonant(model, "round trip")
    a, _ = model.propagator.amplitudes(2.0 * swap_time(model.params))
    return float(abs(1.0 - a[0]) ** 2 / 4.0)


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Root-convention fidelity F = Tr sqrt(sqrt(a) b sqrt(a)) of qubit states, in [0, 1].

    sqrt(a) b sqrt(a) has the eigenvalues of a b, which sum to Tr(a b) and
    multiply to det(a) det(b); for 2x2 matrices this gives
    F^2 = Tr(a b) + 2 sqrt(det(a) det(b)).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DomainError("uhlmann_fidelity compares 2x2 density matrices")
    dets = max(float(np.real(np.linalg.det(a) * np.linalg.det(b))), 0.0)
    f_sq = float(np.real(np.trace(a @ b))) + 2.0 * math.sqrt(dets)
    return min(math.sqrt(max(f_sq, 0.0)), 1.0)


def map_fidelity(rho_in: QubitState, w_out: StoredState) -> float:
    """Fidelity of an actual stored state against the ideal image of rho_in."""
    return uhlmann_fidelity(ideal_store_map(rho_in).w, w_out.w)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) Tr |a - b|."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
