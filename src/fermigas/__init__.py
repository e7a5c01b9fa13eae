"""Semiclassical toolkit for a harmonically trapped spin-polarized Fermi gas.

The gas is described by universal dimensionless functions of the reduced
temperature t = k_B T / E_F and the scaled coordinates s = rho/R_F,
q = |k|/K_F; physical units enter only through the scales module.
"""

from .errors import DomainError, FermiGasError, NumericsError
from .fdint import SUPPORTED_ORDERS, fd, fd_derivative, fd_orders
from .scales import (
    PRESETS,
    CharacteristicScales,
    TrapSpec,
    continuum_reliable,
    derive_scales,
    effective_radius,
    from_scaled,
    to_scaled,
)
from .thermo import (
    ThermoState,
    classical_mu,
    heat_capacity,
    internal_energy,
    solve_mu,
    sommerfeld_mu,
    thermo_curve,
    thermo_state,
)
from .profiles import (
    density,
    mean_square_size,
    momentum_density,
    msd_curve,
    normalization,
    phase_space_occupancy,
    profile_curves,
    zero_t_density,
)
from .perturb import (
    PerturbationField,
    ResponseResult,
    density_response,
    fermi_energy_shift,
    mean_field_correction,
)
from .bose import (
    BoseParams,
    PauliPseudopotential,
    bose_chemical_potential,
    bose_profile,
    bose_radius,
    pauli_pseudopotential,
)
from .oracle import (
    ContinuumComparison,
    DiscreteSpectrum,
    ValidityReport,
    breakdown_shell_distance,
    build_spectrum,
    closed_shell_count,
    continuum_comparison,
    counting_check,
    exact_central_density,
    exact_mu,
    semiclassical_central_density,
    validity_report,
)
from .curves import UniversalCurve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
