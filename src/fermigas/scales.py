"""Physical trap parameters and the characteristic scales derived from them.

Everything downstream works in reduced variables; this module is the only
place where SI units appear.  The characteristic energy of a cloud of N
spin-polarized fermions in a trap with radial frequency omega_r and axial
anisotropy lambda is

    E_F = hbar * omega_r * (6 * lambda * N)**(1/3)

with companion length R_F (classical excursion at E_F), wavenumber K_F
(free-particle momentum at E_F) and ground-state width sigma_r, and
R_F/sigma_r = K_F sigma_r = (48 lambda N)^(1/6).  _trap_scales checks
(N, lambda) for every entry point here, in bose and in oracle: N a whole
number >= 1, lambda > 0 and finite, and 48 N lambda finite.  It is the one
place that computes E_F/(hbar omega_r) and R_F/sigma_r.  derive_scales also
refuses a trap whose SI scales leave the float range, naming mass and omega_r.
Level energies are quoted without the zero-point offset throughout.
continuum_reliable and validity_table say where the continuum picture holds.
"""

import math
from .errors import (DomainError, check_count, check_finite, check_real, check_sequence,
                     check_temperature, to_float)
from .record import Record

# CODATA, 10 significant digits; hard-coded for reproducibility.
HBAR = 1.054571817e-34       # J s
K_BOLTZMANN = 1.380649e-23   # J/K

_SEMI_N0 = 2.0 / (math.sqrt(3.0) * math.pi ** 2)  # continuum n(0) sigma^3 / sqrt(N*lam)


def _trap_scales(n_particles, lam) -> tuple:
    """(lambda, E_F/(hbar omega_r), R_F/sigma_r = K_F sigma_r) of N >= 1 particles, a
    whole number, at finite lambda > 0; DomainError unless 48 N lambda is finite as well."""
    n_particles = check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    stretch = (48.0 * n_particles * lam) ** (1.0 / 6.0)
    if stretch == math.inf:
        raise DomainError(f"48 * n_particles * lambda must be finite, got n_particles = "
                          f"{n_particles!r} and lambda = {lam!r}")
    return lam, (6.0 * lam * n_particles) ** (1.0 / 3.0), stretch


class TrapSpec(Record):
    """Trap and gas parameters: mass [kg], omega_r [rad/s], anisotropy, N."""

    mass: float
    omega_r: float
    lam: float
    n_particles: int

    def __post_init__(self):
        check_finite("mass", self.mass, positive=True)
        check_finite("omega_r", self.omega_r, positive=True)
        _trap_scales(self.n_particles, self.lam)


class CharacteristicScales(Record, hidden=("spec",)):
    """Derived scale bundle linking the physical trap to reduced variables."""

    e_fermi: float        # J
    t_fermi: float        # K
    r_fermi: float        # m
    k_fermi: float        # 1/m
    sigma_r: float        # m
    level_spacing: float  # J, hbar*omega_r without the zero-point offset
    spec: TrapSpec


def derive_scales(spec: TrapSpec) -> CharacteristicScales:
    _, e_reduced, stretch = _trap_scales(spec.n_particles, spec.lam)
    level_spacing = HBAR * spec.omega_r
    e_fermi = level_spacing * e_reduced
    try:
        sigma_r = math.sqrt(HBAR / (spec.mass * spec.omega_r))
        k_fermi = stretch / sigma_r
    except ZeroDivisionError:  # mass * omega_r or sigma_r rounded to 0
        sigma_r = k_fermi = 0.0
    values = (e_fermi, e_fermi / K_BOLTZMANN, stretch * sigma_r, k_fermi, sigma_r, level_spacing)
    if not all(0.0 < v < math.inf for v in values):
        raise DomainError(f"mass = {spec.mass!r} and omega_r = {spec.omega_r!r} give SI "
                          "scales outside the float range")
    return CharacteristicScales(*values, spec=spec)


def effective_radius(x: float, y: float, z: float, lam: float) -> float:
    """Single coordinate rho on which every trap profile depends."""
    x, y, z = check_real("x", x), check_real("y", y), check_real("z", z)
    lam = check_finite("lambda", lam, positive=True)
    rho = math.sqrt(x * x + y * y + lam * lam * z * z)
    if rho == math.inf:
        raise DomainError(f"x = {x!r}, y = {y!r}, z = {z!r} and lambda = {lam!r}: "
                          "x^2 + y^2 + lambda^2 z^2 overflows the float range")
    return rho


def _convert(spec: TrapSpec, names, values, convert) -> tuple:
    """convert(derive_scales(spec), *values) of values each finite and >= 0,
    refused naming the value whose result leaves the float range."""
    values = [check_finite(name, value) for name, value in zip(names, values)]
    results = convert(derive_scales(spec), *values)
    for name, value, result in zip(names, values, results):
        if result == math.inf:
            raise DomainError(f"{name} = {value!r} converts to a value past the float range")
    return results


def to_scaled(spec: TrapSpec, rho: float, wavenumber: float, temperature: float):
    """Map (rho [m], |k| [1/m], T [K]) to the dimensionless triple (s, q, t)."""
    return _convert(spec, ("rho", "wavenumber", "temperature"), (rho, wavenumber, temperature),
                    lambda sc, rho, k, temp: (rho / sc.r_fermi, k / sc.k_fermi,
                                              K_BOLTZMANN * temp / sc.e_fermi))


def from_scaled(spec: TrapSpec, s: float, q: float, t: float):
    """Inverse of to_scaled: recover (rho [m], |k| [1/m], T [K])."""
    return _convert(spec, ("s", "q", "reduced temperature"), (s, q, t),
                    lambda sc, s, q, t: (s * sc.r_fermi, q * sc.k_fermi,
                                         t * sc.e_fermi / K_BOLTZMANN))


def continuum_reliable(spec: TrapSpec, t: float) -> bool:
    """True when k_B*T is at least the largest level spacing, max(1, lam) hbar*omega_r (the
    radial 1, the axial lam), i.e. t*(6*lam*N)^(1/3) >= max(1, lam)."""
    t = check_temperature(t)
    lam, e_fermi, _ = _trap_scales(spec.n_particles, spec.lam)
    return t * e_fermi >= max(1.0, lam)


def validity_table(n_particles: int, lam: float, radii) -> tuple:
    """oracle.validity_report as floats: ([(s, margin, cell_scale) per radius],
    shell_thickness_sigma, inv_k_fermi_sigma), radii a non-empty sequence in [0, 1.2].
    The margin is inf at s = 0, the cell scale nan at s = 0 and for s >= 1."""
    lam, _, stretch = _trap_scales(n_particles, lam)
    radii = [to_float("radii", r) for r in check_sequence("radii", radii)]
    if not all(0.0 <= s <= 1.2 for s in radii):  # NaN fails both comparisons
        raise DomainError(f"radii must lie in [0, 1.2], got {radii!r}")
    central = _SEMI_N0 * math.sqrt(n_particles * lam)
    rows = []
    for s in radii:
        inside = max(1.0 - s * s, 0.0)
        n_sigma3 = central * inside ** 1.5
        if s == 0.0:
            rows.append((s, math.inf, math.nan))
            continue
        cell = math.nan
        if s < 1.0:
            l_min = n_sigma3 ** (-1.0 / 3.0)
            l_max = stretch * inside / (2.0 * s)
            cell = math.sqrt(l_min * l_max)
        rows.append((s, n_sigma3 / (s * stretch), cell))
    return rows, float(n_particles) ** (-1.0 / 6.0), 1.0 / stretch


# Spin-polarized 6Li in a TOP trap (intrinsic anisotropy sqrt(8)), the
# standard worked example shipped with the package.
PRESETS = {
    "li6-top": TrapSpec(mass=9.988e-27, omega_r=3800.0, lam=math.sqrt(8.0),
                        n_particles=100_000),
}
