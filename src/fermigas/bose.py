"""Thomas-Fermi Bose cloud for the same trap, and the Pauli-pseudopotential
estimates that let it mimic the Fermi cloud.

Bose quantities are expressed in trap units (hbar = M = omega_r = 1,
lengths in sigma_r, energies in hbar*omega_r), which makes the inverted
parabola literal:

    n_B(rho) = (R_B^2/2U)(1 - rho^2/R_B^2),   R_B = (15 lambda U N / 4 pi)^(1/5)

with U the contact-interaction strength (U = 4 pi a for scattering length
a in units of sigma_r).  Restoring units, n_B = (M omega_r^2 / 2U)(R_B^2 - rho^2).
"""

import math
import warnings

from .errors import DomainError, check_finite
from .record import Record
from .scales import CharacteristicScales, _trap_scales

TF_PARAMETER_FLOOR = 10.0


class BoseParams(Record):
    """Repulsive Bose gas in the same trap; interaction in trap units."""

    n_particles: int
    lam: float
    u_bose: float = None
    a_scatt: float = None

    def __post_init__(self):
        _trap_scales(self.n_particles, self.lam)
        if (self.u_bose is None) == (self.a_scatt is None):
            raise DomainError("give exactly one of u_bose or a_scatt")
        if self.u_bose is None:
            given, value = "a_scatt", check_finite("a_scatt", self.a_scatt, positive=True)
            object.__setattr__(self, "u_bose", 4.0 * math.pi * value)
        else:
            given, value = "u_bose", check_finite("u_bose", self.u_bose, positive=True)
            object.__setattr__(self, "a_scatt", value / (4.0 * math.pi))
        # the Thomas-Fermi regime needs a repulsive interaction, and R_B^5 a float
        if not 0.0 < bose_radius(self) < math.inf:
            raise DomainError(f"{given} = {value!r} at n_particles = {self.n_particles!r} and "
                              f"lambda = {self.lam!r}: R_B^5 = 15 lambda U N/(4 pi) leaves "
                              "the float range")
        tf = self.u_bose * self.n_particles / self.lam
        if tf < TF_PARAMETER_FLOOR:
            warnings.warn(
                f"Thomas-Fermi parameter U*N/lambda = {tf:.3g} < "
                f"{TF_PARAMETER_FLOOR}; the inverted-parabola profile is "
                f"unreliable here", stacklevel=2)


def bose_radius(p: BoseParams) -> float:
    """Condensate radius R_B in units of sigma_r."""
    return (15.0 * p.lam * p.u_bose * p.n_particles / (4.0 * math.pi)) ** 0.2


def bose_chemical_potential(p: BoseParams) -> float:
    """Thomas-Fermi chemical potential R_B^2/2 in units of hbar*omega_r."""
    return 0.5 * bose_radius(p) ** 2


def bose_profile(s_b: float, p: BoseParams) -> float:
    """Condensate density at rho = s_b * R_B, in units of sigma_r^-3."""
    s_b = check_finite("s_b", s_b)
    if s_b >= 1.0:
        return 0.0
    rb = bose_radius(p)
    return rb * rb / (2.0 * p.u_bose) * (1.0 - s_b * s_b)


class PauliPseudopotential(Record):
    """Order-of-magnitude effective repulsion mimicking Pauli exclusion."""

    u_eff: float     # J m^3, E_F * R_F^3 / N
    a_eff: float     # m, the interparticle spacing 1/K_F
    kf_a_eff: float  # always 1: the gas is not dilute in this effective sense


def pauli_pseudopotential(scales: CharacteristicScales) -> PauliPseudopotential:
    return _pauli_pseudopotential(scales)[0]


def _pauli_pseudopotential(scales: CharacteristicScales):
    """pauli_pseudopotential(scales) and its u_eff in trap units, hbar omega_r sigma_r^3,
    refused with one message if either leaves the float range."""
    spec = scales.spec
    try:
        u_eff = scales.e_fermi * scales.r_fermi ** 3 / spec.n_particles
        u_trap = u_eff / (scales.level_spacing * scales.sigma_r ** 3)
    except ArithmeticError:  # R_F^3 or sigma_r^3 past the float range, or a zero divisor
        u_eff = u_trap = math.inf
    if not (0.0 < u_eff < math.inf and 0.0 < u_trap < math.inf):
        raise DomainError(f"mass = {spec.mass!r} and omega_r = {spec.omega_r!r} give a Pauli "
                          "pseudopotential outside the float range")
    a_eff = 1.0 / scales.k_fermi
    return PauliPseudopotential(u_eff=u_eff, a_eff=a_eff, kf_a_eff=scales.k_fermi * a_eff), u_trap
