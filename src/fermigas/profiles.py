"""Universal phase-space, spatial and momentum distributions.

All functions work in the scaled variables s = rho/R_F, q = |k|/K_F and
t = k_B T/E_F.  The scaled spatial density (n R_F^3 / N lambda) is

    (6/pi^(3/2)) t^(3/2) f_(3/2)((m(t) - s^2)/t)

which reduces to (8/pi^2)(1 - s^2)^(3/2) at t = 0, and the scaled
momentum density (n~ K_F^3 / N) is the identical function of q: position
and momentum enter the Hamiltonian quadratically, so both marginals share
one functional form and the momentum distribution is isotropic.

The radial moments are closed forms, no quadrature: the norm is the
constraint 6 t^3 f_3(m/t) = 1 and <s^2> = 9 t^4 f_4(m/t) = u/2 (virial).

t = 0 is special-cased to the closed forms; physical units enter only
through the scales module.
"""

import math

from .curves import UniversalCurve, linspace, sample_count
from .errors import DomainError, check_finite, check_real, check_sequence, check_temperature
from .fdint import _closed_forms, fermi
from .thermo import _TINY_T, _solved, internal_energy

_DENSITY_SCALE = 6.0 / math.pi ** 1.5


def phase_space_occupancy(s, q, t, m) -> float:
    """Fermi factor at scaled energy q^2 + s^2; a step function at t = 0."""
    s = check_finite("s", s)
    q = check_finite("q", q)
    t = check_temperature(t)
    x = q * q + s * s - check_real("m", m)
    if t == 0.0:
        return 1.0 if x < 0 else (0.5 if x == 0 else 0.0)
    return fermi(x / t)


def zero_t_density(s) -> float:
    """Scaled density of the zero-temperature cloud, zero beyond s = 1."""
    s = check_finite("s", s)
    if s >= 1.0:
        return 0.0
    return (8.0 / math.pi ** 2) * (1.0 - s * s) ** 1.5


def density(s, t) -> float:
    """Scaled spatial density at effective radius s and temperature t."""
    s = check_finite("s", s)
    t = check_temperature(t)
    if t <= _TINY_T:
        return zero_t_density(s)
    return _warm_densities((s,), t, _solved(t)[0])[0]


def _warm_densities(radii, t: float, m: float) -> list:
    """Scaled densities at each radius s and t > _TINY_T, given its solved m;
    0 where (m - s^2)/t overflows to -inf, far outside the cloud, as f_(3/2) is there."""
    scale = _DENSITY_SCALE * t ** 1.5
    return [scale * _closed_forms((1.5,), eta)[0] if eta > -math.inf else 0.0
            for eta in ((m - s * s) / t for s in radii)]


def momentum_density(q, t) -> float:
    """Scaled momentum density; identical in form to the spatial one."""
    return density(check_finite("q", q), t)


def normalization(t) -> float:
    """4 pi int_0^inf s^2 n(s) ds = 6 t^3 f_3(m/t), which is 1 by the choice of m.

    With x = s^2/t this is the Fermi-Dirac identity
    int_0^inf x^(a-1) f_k(eta - x) dx = Gamma(a) f_(k+a)(eta), k = a = 3/2.
    """
    t = check_temperature(t)
    if t <= _TINY_T:
        return 1.0
    f3 = _solved(t)[1]  # first: the solve's cap keeps t ** 3 below the double range
    return 6.0 * t ** 3 * f3


def mean_square_size(t) -> float:
    """Mean-square cloud size <rho^2>/R_F^2 = 4 pi int_0^inf s^4 n(s) ds.

    int_0^inf x^(a-1) f_k(eta - x) dx = Gamma(a) f_(k+a)(eta), x = s^2/t,
    k = 3/2, a = 5/2 gives 9 t^4 f_4(m/t) = u/2 (virial theorem); 3/8 at t = 0.
    """
    return 0.5 * internal_energy(t)


def msd_curve(t_grid):
    """Tabulate <rho^2>/R_F^2 = mean_square_size(t) over a non-empty grid of t >= 0."""
    ts = [check_temperature(t) for t in check_sequence("temperature grid", t_grid)]
    return UniversalCurve("t", "msd", tuple((t, mean_square_size(t)) for t in ts))


def profile_curves(t_list, n_samples=300, s_max=None):
    """One density curve per temperature of a non-empty list, covering >= 0.999 of the norm."""
    ts = [check_temperature(t) for t in check_sequence("temperature list", t_list)]
    n = sample_count("n_samples", n_samples)
    if s_max is not None:
        s_max = check_finite("s_max", s_max, positive=True)
        grid = linspace(0.0, s_max, n)
        # a subnormal s_max rounds the step to repeated or overshooting radii
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError(f"s_max = {s_max!r} and n_samples = {n_samples!r} give a radius "
                              "grid that is not strictly increasing")
    curves = []
    for t in ts:
        if t <= _TINY_T:
            if s_max is None:
                grid = linspace(0.0, 1.0, n)
            values = [zero_t_density(s) for s in grid]
        else:
            m = _solved(t)[0]
            if s_max is None:
                grid = linspace(0.0, math.sqrt(max(m, 0.0) + 25.0 * t), n)
            values = _warm_densities(grid, t, m)
        curves.append(UniversalCurve("s", "density", tuple(zip(grid, values))))
    return curves
