"""Semiclassical toolkit for a harmonically trapped spin-polarized Fermi gas.

The gas is described by universal dimensionless functions of the reduced
temperature t = k_B T / E_F and the scaled coordinates s = rho/R_F,
q = |k|/K_F; physical units enter only through the scales module.

Names are resolved on first use (PEP 562), so a module, and numpy behind
it, is imported only when something from it is asked for.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("DomainError", "FermiGasError", "NumericsError"),
    "fdint": ("SUPPORTED_ORDERS", "fd", "fd_derivative", "fd_orders"),
    "scales": ("PRESETS", "CharacteristicScales", "TrapSpec", "continuum_reliable",
               "derive_scales", "effective_radius", "from_scaled", "to_scaled"),
    "thermo": ("ThermoState", "classical_mu", "heat_capacity", "internal_energy",
               "solve_mu", "sommerfeld_mu", "thermo_curve", "thermo_state"),
    "profiles": ("density", "mean_square_size", "momentum_density", "msd_curve",
                 "normalization", "phase_space_occupancy", "profile_curves",
                 "zero_t_density"),
    "perturb": ("PerturbationField", "ResponseResult", "density_response",
                "fermi_energy_shift", "mean_field_correction"),
    "bose": ("BoseParams", "PauliPseudopotential", "bose_chemical_potential",
             "bose_profile", "bose_radius", "pauli_pseudopotential"),
    "oracle": ("ContinuumComparison", "DiscreteSpectrum", "ValidityReport",
               "breakdown_shell_distance", "build_spectrum", "closed_shell_count",
               "continuum_comparison", "counting_check", "exact_central_density",
               "exact_mu", "semiclassical_central_density", "validity_report"),
    "curves": ("UniversalCurve",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
