"""Quantum-memory simulator: an electron spin qubit written into and read
back from the zero-momentum spin-wave mode of a ferromagnetic nuclear ring.

Subpackages:

* :mod:`magnon_memory.model`        parameters, dispersion, coupling profiles
* :mod:`magnon_memory.exact`        full-Hilbert-space oracle (small rings)
* :mod:`magnon_memory.boson`        bosonized electron + magnon dynamics
* :mod:`magnon_memory.protocol`     write/read swap and its quality metrics
* :mod:`magnon_memory.decoherence`  inhomogeneity-induced decay, fidelities
* :mod:`magnon_memory.cli`          config-driven CLI, sweeps, figure data
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    MagnonMemoryError,
    RegimeError,
    ResourceLimitError,
    SingularModeError,
)
from .model import (
    ChiSpectrum,
    CouplingProfile,
    PhysicalParams,
    chi_spectrum,
    custom_profile,
    dispersion,
    effective_coupling,
    gaussian_profile,
    homogeneous_profile,
    swap_time,
)
from .boson import (
    BosonModel,
    FockBasis,
    JointState,
    PulseShape,
    SingleExcitationBasis,
    SingleExcitationPropagator,
    build_boson_hamiltonian,
    evolve_constant,
    evolve_pulsed,
    occupation,
)
from .protocol import (
    QubitState,
    StoredState,
    ideal_store_map,
    map_fidelity,
    process_fidelity_roundtrip,
    retrieve,
    round_trip,
    store,
    store_outcome,
    trace_distance,
    uhlmann_fidelity,
)
from .exact import (
    ExactHamiltonian,
    SpinRingBasis,
    build_exact,
    evolve_exact,
    reduce_electron,
)
from .decoherence import (
    AdiabaticityReport,
    FidelityCurve,
    LargeNFidelityParams,
    SmallNFidelityParams,
    adiabaticity,
    decay_rate,
    default_broadening,
    effective_couplings,
    fidelity_large_n,
    fidelity_small_n,
    numeric_fidelity,
    omega_shift,
)
from .cli import max_n_for_temperature, reproduce_figure, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
