"""Universal phase-space, spatial and momentum distributions.

All functions work in the scaled variables s = rho/R_F, q = |k|/K_F and
t = k_B T/E_F.  The scaled spatial density (n R_F^3 / N lambda) is

    (6/pi^(3/2)) t^(3/2) f_(3/2)((m(t) - s^2)/t)

which reduces to (8/pi^2)(1 - s^2)^(3/2) at t = 0, and the scaled
momentum density (n~ K_F^3 / N) is the identical function of q: position
and momentum enter the Hamiltonian quadratically, so both marginals share
one functional form and the momentum distribution is isotropic.

t = 0 is special-cased to the closed forms; physical units enter only
through the scales module.
"""

import math

import numpy as np

from .curves import UniversalCurve
from .errors import DomainError
from .fdint import fd, fermi
from .quadrature import adaptive_gl_split
from .thermo import _TINY_T, _check_t, solve_mu

_MOMENT_TOL = 1e-10


def _check_nonneg(name, value):
    v = float(value)
    if not (math.isfinite(v) and v >= 0):
        raise DomainError(f"{name} must be finite and non-negative, got {value!r}")
    return v


def phase_space_occupancy(s, q, t, m) -> float:
    """Fermi factor at scaled energy q^2 + s^2; a step function at t = 0."""
    s = _check_nonneg("s", s)
    q = _check_nonneg("q", q)
    t = _check_nonneg("t", t)
    x = q * q + s * s - float(m)
    if t == 0.0:
        return 1.0 if x < 0 else (0.5 if x == 0 else 0.0)
    return float(fermi(x / t))


def zero_t_density(s) -> float:
    """Scaled density of the zero-temperature cloud, zero beyond s = 1."""
    s = _check_nonneg("s", s)
    if s >= 1.0:
        return 0.0
    return (8.0 / math.pi ** 2) * (1.0 - s * s) ** 1.5


def density(s, t) -> float:
    """Scaled spatial density at effective radius s and temperature t."""
    s = _check_nonneg("s", s)
    t = _check_nonneg("t", t)
    if t <= _TINY_T:
        return zero_t_density(s)
    return _warm_density(s, t, solve_mu(t))


def _warm_density(s, t: float, m: float):
    """Scaled density at t > _TINY_T for a float or an array of radii s."""
    return (6.0 / math.pi ** 1.5) * t ** 1.5 * fd(1.5, (m - s * s) / t)


def momentum_density(q, t) -> float:
    """Scaled momentum density; identical in form to the spatial one."""
    return density(q, t)


def _outer_cutoff(t: float) -> float:
    # occupancy < exp(-40) beyond; always covers the t = 0 cloud edge
    if t <= _TINY_T:
        return 1.0
    m = solve_mu(t)
    return max(1.0, math.sqrt(max(m, 0.0) + 40.0 * t))


def _radial_moment(t: float, power: int) -> float:
    """4*pi * int_0^smax s^power * density(s, t) ds via adaptive quadrature.

    The s range is split at the Fermi edge sqrt(m) and, 40 t further in, at
    sqrt(m - 40 t): without that split the error estimate of the inner
    panel can miss the start of the edge and the result 1e-9 with it
    (seen at t = 1.7495e-3, 1.7445e-3 and 1.0741e-2).
    """
    smax = _outer_cutoff(t)
    if t <= _TINY_T:
        f = np.vectorize(zero_t_density)
        edges = [0.0, 1.0]
    else:
        m = solve_mu(t)

        def f(x):
            return _warm_density(x, t, m)

        edges = [0.0] + [math.sqrt(e) for e in (m - 40.0 * t, m) if e > 0.0] + [smax]

    def integrand(x):
        return np.asarray(f(x)) * x ** power

    return 4.0 * math.pi * adaptive_gl_split(integrand, edges, abs_tol=_MOMENT_TOL)


def normalization(t) -> float:
    """Integral of the scaled density over all space (equals 1)."""
    t = _check_nonneg("t", t)
    return _radial_moment(t, 2)


def mean_square_size(t) -> float:
    """Mean-square cloud size <rho^2>/R_F^2; 3/8 at t = 0 (beta integral)."""
    t = _check_nonneg("t", t)
    if t <= _TINY_T:
        return 0.375
    return _radial_moment(t, 4)


def profile_curves(t_list, n_samples=300, s_max=None):
    """One sampled density curve per temperature, covering >= 0.999 of the norm."""
    ts = [_check_t(t) for t in t_list]
    if not ts:
        raise DomainError("temperature list is empty")
    if n_samples < 2:
        raise DomainError(f"need at least 2 samples per curve, got {n_samples}")
    if s_max is not None:
        s_max = _check_nonneg("s_max", s_max)
    curves = []
    for t in ts:
        if t <= _TINY_T:
            grid = np.linspace(0.0, 1.0 if s_max is None else s_max, int(n_samples))
            values = [zero_t_density(x) for x in grid.tolist()]
        else:
            m = solve_mu(t)
            hi = math.sqrt(max(m, 0.0) + 25.0 * t) if s_max is None else s_max
            grid = np.linspace(0.0, hi, int(n_samples))
            values = _warm_density(grid, t, m).tolist()
        samples = tuple(zip(grid.tolist(), values))
        curves.append(UniversalCurve("s", "density", samples))
    return curves
