"""Ground-state metrology of the single-mode Dicke model.

Exact diagonalization of N two-level atoms collectively coupled to one
bosonic mode in a truncated Fock space, reduced-state quantum Fisher
information and squeezing for both subsystems, Husimi quasi-probability
distributions, and the closed-form thermodynamic-limit observables with
the amplitudes of their critical power laws at the superradiant transition.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, SolverError
from .model import ModelParams
from .solver import GroundState, solve
from .states import SpectralDecomposition, schmidt_decompose
from .metrology import (
    QfiResult,
    husimi_atoms,
    husimi_field,
    qfi_atoms,
    qfi_field,
    quadrature_variance,
    spin_squeezing_xi2,
    spin_variance,
)
from .thermo import (
    CriticalAmplitudes,
    ThermoPoint,
    critical_amplitudes,
    nbar_thermo,
    qfi_atoms_thermo,
    qfi_field_scaled_limit,
    qfi_field_thermo,
    quad_variance_thermo,
    thermo_point,
    xi2_thermo,
)

__all__ = [
    "ConvergenceError",
    "CriticalAmplitudes",
    "GroundState",
    "ModelParams",
    "QfiResult",
    "SolverError",
    "SpectralDecomposition",
    "ThermoPoint",
    "critical_amplitudes",
    "husimi_atoms",
    "husimi_field",
    "nbar_thermo",
    "qfi_atoms",
    "qfi_atoms_thermo",
    "qfi_field",
    "qfi_field_scaled_limit",
    "qfi_field_thermo",
    "quad_variance_thermo",
    "quadrature_variance",
    "schmidt_decompose",
    "solve",
    "spin_squeezing_xi2",
    "spin_variance",
    "thermo_point",
    "xi2_thermo",
]
