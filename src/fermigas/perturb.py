"""Linear response of the zero-temperature cloud to a small trap change.

A perturbation dV(s)/E_F (spherically symmetric in the effective radius,
held on a dense grid over [0, 1] with linear interpolation) shifts the
Fermi energy so that particle number is conserved:

    dE_F/E_F = int_0^1 dV(s) s^2 sqrt(1-s^2) ds / int_0^1 s^2 sqrt(1-s^2) ds

(the local Fermi wavenumber weights the average) and changes the scaled
density inside the cloud by

    dn * R_F^3/(N lambda) = (12/pi^2) sqrt(1-s^2) (dE_F - dV(s))/E_F,

zero outside.  The local-wavenumber shift itself diverges at the cloud
edge but only the finite dn is exposed.  An interaction of strength u_int
(dimensionless, U*N*lambda/(E_F*R_F^3)) is treated as the one-shot
perturbation dV = u_int * zero_t_density(s), with no self-consistency loop.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_real
from .profiles import zero_t_density

GRID_SIZE = 2048
GRID = np.linspace(0.0, 1.0, GRID_SIZE)
SMALLNESS_GUARD = 0.1

_WEIGHT_NORM = math.pi / 16.0  # int_0^1 s^2 sqrt(1-s^2) ds

# Per-segment Gauss-Legendre nodes in theta = arcsin(s): the sqrt(1-s^2)
# weight becomes the smooth cos^2 factor, so each panel integrates the
# piecewise-linear field to machine precision.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_THETA = np.arcsin(GRID)
_TH_LO = _THETA[:-1, None]
_TH_HI = _THETA[1:, None]
_TH_NODES = _TH_LO + 0.5 * (_TH_HI - _TH_LO) * (_GL_NODES[None, :] + 1.0)
_S_NODES = np.sin(_TH_NODES).ravel()
_W_NODES = (0.5 * (_TH_HI - _TH_LO) * _GL_WEIGHTS[None, :]
            * (np.sin(_TH_NODES) * np.cos(_TH_NODES)) ** 2).ravel()


def _weighted_integral(values_at_nodes) -> float:
    return float((_W_NODES * values_at_nodes).sum())


@dataclass(frozen=True)
class PerturbationField:
    """dV(s)/E_F sampled on the uniform grid over [0, 1]."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (GRID_SIZE,):
            raise DomainError(f"field must have {GRID_SIZE} grid values, "
                              f"got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("field values must be finite on [0, 1]")
        peak = float(np.max(np.abs(v)))
        if peak > SMALLNESS_GUARD + 1e-12:
            raise DomainError(
                f"perturbation too large: max |dV|/E_F = {peak:.4g} exceeds "
                f"the smallness guard {SMALLNESS_GUARD}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn):
        return cls(np.array([fn(float(s)) for s in GRID]))

    @classmethod
    def from_table(cls, s_points, v_points):
        s = np.asarray(s_points, dtype=float)
        v = np.asarray(v_points, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or s.size < 2:
            raise DomainError("field table needs matching 1-d s and value columns")
        if np.any(np.diff(s) <= 0):
            raise DomainError("field table abscissa must be strictly increasing")
        if s[0] > 1e-9 or s[-1] < 1.0 - 1e-9:
            raise DomainError(
                f"field table covers [{s[0]:g}, {s[-1]:g}] but must cover [0, 1]")
        return cls(np.interp(GRID, s, v))

    def interp(self, s):
        return np.interp(s, GRID, self.values)


@dataclass(frozen=True)
class ResponseResult:
    """Fermi-energy shift and the particle-conserving density change."""

    delta_e_fermi: float
    s_grid: np.ndarray = field(repr=False)
    delta_n: np.ndarray = field(repr=False)


def fermi_energy_shift(fld: PerturbationField) -> float:
    """Particle-conserving dE_F/E_F for the given perturbation."""
    return _weighted_integral(fld.interp(_S_NODES)) / _WEIGHT_NORM


def density_response(fld: PerturbationField) -> ResponseResult:
    de = fermi_energy_shift(fld)
    dn = (12.0 / math.pi ** 2) * np.sqrt(1.0 - GRID ** 2) * (de - fld.values)
    return ResponseResult(delta_e_fermi=de, s_grid=GRID.copy(), delta_n=dn)


def mean_field_correction(u_int: float) -> ResponseResult:
    """One-shot response to the interaction field dV = u_int * n0(s)."""
    u_int = check_real("u_int", u_int)
    peak = abs(u_int) * zero_t_density(0.0)
    if peak > SMALLNESS_GUARD + 1e-12:
        raise DomainError(
            f"interaction strength too large: |u_int|*n0(0) = {peak:.4g} "
            f"exceeds the smallness guard {SMALLNESS_GUARD}")
    fld = PerturbationField.from_callable(lambda s: u_int * zero_t_density(s))
    return density_response(fld)
