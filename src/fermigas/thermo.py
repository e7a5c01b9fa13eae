"""Reduced equation of state of the trapped ideal Fermi gas.

All quantities are universal functions of the reduced temperature
t = k_B T / E_F: the chemical potential m = mu/E_F solves

    6 t^3 f_3(m/t) = 1,

the energy per particle is u = 18 t^4 f_4(m/t) (in units of E_F), evaluated
as 3 t f_4/f_3 after dividing by the solved constraint, and the heat
capacity per particle follows from implicit differentiation of the
constraint:

    c = 12 f_4(eta)/f_3(eta) - 9 f_3(eta)/f_2(eta),   eta = m/t.

At large eta the two terms, each about 3 eta, cancel to about pi^2 t.  For
eta >= 1 (t below about 0.425) c therefore uses the exact inversion identity
f_k(eta) = P_k(eta) + (-1)^(k+1) r_k, r_k = f_k(-eta), P_k the terminating
Sommerfeld polynomial, with the polynomial part of 12 f_4 f_2 - 9 f_3^2
cancelled in closed form (y = pi^2/eta^2):

    c = D / ((P_3 + r_3)(P_2 - r_2)),
    D = (pi^2 eta^4/12)(1 + 2y/5 + 7y^2/15) - 12 (P_4 r_2 + P_2 r_4 - r_2 r_4)
        - 9 (2 P_3 r_3 + r_3^2).

Heat capacity is taken at fixed particle number and fixed trap
frequencies.  t = 0 is handled symbolically (m = 1, u = 3/4, c = 0).

The solve starts Newton at a closed-form estimate of m (_mu_estimate); each
constraint evaluation steps f_3 and f_2 in one loop (fdint._f3_f2: one exp,
the bits of fdint's closed forms).  The cache keeps with m the values that
_solved lists, so after the solve u and c cost one f_4 (or r_4) call, and
profiles.normalization none.  One function, _state, forms (m, u, c);
internal_energy, heat_capacity, thermo_state and thermo_curve read it, so
each has the bits of the others.  Every public entry checks t once
(errors.check_temperature) before the cache.  Tables over many temperatures
(thermo_curve, profiles.msd_curve, profile_curves) solve each temperature
once, so each sample has the scalar call's bits.  No numpy is used.
"""

import math
from functools import lru_cache

from .curves import UniversalCurve
from .errors import DomainError, NumericsError, check_finite, check_sequence, check_temperature
from .fdint import _TAYLOR_RADIUS, _closed_forms, _f3_f2, _reflection, band
from .record import Record

_RESIDUAL_TOL = 1e-12

# below this the O(t^2) corrections to the t = 0 values fall under double
# resolution while eta = m/t overflows intermediate powers
_TINY_T = 1e-9

# the factor 6 t^3 of the constraint overflows a double just above this (at 3.1e102)
_T_MAX_MU = 3e102


class ThermoState(Record):
    """Solved reduced state at one temperature."""

    t: float
    m: float
    u: float
    c: float


def _limit_form(name, t, m):
    """m of a limiting form at t; DomainError naming t where it overflows to -inf."""
    if m == -math.inf:
        raise DomainError(f"reduced temperature must keep the {name} form of m finite, "
                          f"got {t!r}")
    return m


def sommerfeld_mu(t: float) -> float:
    """Low-temperature expansion 1 - (pi^2/3) t^2 (exact to this order)."""
    t = check_temperature(t)
    return _limit_form("Sommerfeld", t, 1.0 - (math.pi ** 2 / 3.0) * t * t)


def classical_mu(t: float) -> float:
    """High-temperature form -t ln(6 t^3)."""
    t = check_finite("reduced temperature", t, positive=True)
    # log-space form: t**3 underflows for subnormal-range t
    return _limit_form("classical", t, -t * (math.log(6.0) + 3.0 * math.log(t)))


def monotone_root(g, lo: float, hi: float, x=None) -> tuple:
    """Root x of an increasing constraint on [lo, hi], as (x, r(x)).

    g(x) returns (r, dr/dx) with r = value/target - 1.  Newton steps start
    from x, clamped into the bracket (its midpoint if x is None), and every
    evaluation tightens the bracket.  An end is evaluated only when a step
    would leave the bracket across it; its residual must then straddle the
    root (r < 0 at lo, r > 0 at hi), and Newton goes on from it.  A step that
    leaves across an evaluated end is replaced by bisection.  The search
    stops at a Newton step too small to move x or, once both ends are known
    to straddle, a bracket of at most 4 ulp; the second stop ends it when
    noise in the constraint stalls Newton.  The x returned is the last x
    evaluated, so what g keeps from its last call is at that x, as solve_mu's
    cache needs.  Used by solve_mu and by both routes of the oracle's exact_mu:
    the level sum and the pole sum, which reads its last evaluation's share.
    """
    if not lo < hi:
        raise NumericsError(f"bracket [{lo!r}, {hi!r}] does not straddle the root: "
                            "its ends are out of order")
    lo_unseen = hi_unseen = True  # an end whose residual is not known yet
    x = 0.5 * (lo + hi) if x is None else min(max(lo, x), hi)
    for _ in range(200):
        r, dr = g(x)
        if (lo_unseen and x == lo and not r < 0.0) or (hi_unseen and x == hi and not r > 0.0):
            raise NumericsError(f"bracket [{lo!r}, {hi!r}] does not straddle the root "
                                f"(residual {r:.3e} at {x!r})")
        if r < 0.0:
            lo, lo_unseen = x, False
        else:
            hi, hi_unseen = x, False
        step = r / dr if dr > 0.0 else math.copysign(math.inf, r)  # dr underflows far out
        if (x - step == x or not (lo_unseen or hi_unseen)
                and hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi)))):
            return x, r
        x -= step
        if not lo < x < hi:
            end, unseen = (lo, lo_unseen) if step > 0.0 else (hi, hi_unseen)
            x = end if unseen else 0.5 * (lo + hi)
    raise NumericsError(f"no convergence in 200 steps on [{lo!r}, {hi!r}]")


def _residual_error(t: float, m: float, residual: float):
    eta = m / t
    return NumericsError(f"constraint residual {residual:.3e} above tolerance at t={t!r}, "
                         f"eta={eta!r} ({band(3.0, eta)} band)")


def _mu_estimate(t: float) -> float:
    """Closed-form start for solve_mu at 0 < t: below t = 0.33 the real root of
    m^3 + pi^2 t^2 m = 1 (the Sommerfeld polynomial P_3 of the constraint,
    r_3 dropped), else t ln z from f_3 = z - z^2/8 = w = 1/(6 t^3) inverted to
    first order, z = w (1 + w/8).  It is within 3.2e-15 of m, relative, for
    t <= 0.01; its error in eta = m/t is at most 0.04 (at t = 0.33), 1.5e-4
    for t >= 1 and 1.6e-10 for t >= 10."""
    if t < 0.33:
        p = (math.pi * t) ** 2
        return (2.0 * math.sqrt(p / 3.0)
                * math.sinh(math.asinh(1.5 / p * math.sqrt(3.0 / p)) / 3.0))
    log_w = -math.log(6.0) - 3.0 * math.log(t)
    return t * (log_w + math.log1p(math.exp(log_w) / 8.0))


@lru_cache(maxsize=4096)
def _solved(t) -> tuple:
    """(m, f_3, a_3, a_2) at a checked t (a float from check_temperature, which
    this does not repeat): m = m(t), and from the solve's last constraint
    evaluation, which monotone_root makes at the m it returns, the f_3(m/t)
    it formed and its kernel values: (a_3, a_2) = (f_3, f_2) at eta = m/t < 1,
    else (r_3, r_2) = (f_3(-eta), f_2(-eta)), f_3 then formed from r_3.
    (1.0,) at t <= _TINY_T, where nothing reads kernel values.  _state forms
    u and c from these; callers that have checked t read this cache
    directly, without solve_mu's extra call."""
    if t <= _TINY_T:
        return (1.0,)
    if t > _T_MAX_MU:
        raise DomainError(f"reduced temperature must be at most {_T_MAX_MU:g} for m, "
                          f"got {t!r}")

    c3, c2 = 6.0 * t ** 3, 6.0 * t * t
    f3 = a3 = a2 = None

    def constraint(m):
        # 6 t^3 f_3(m/t) - 1 rises with m at the rate 6 t^2 f_2(m/t)
        nonlocal f3, a3, a2
        eta = m / t
        a3, a2 = _f3_f2(eta)
        if eta < _TAYLOR_RADIUS:
            f3 = a3
            return c3 * a3 - 1.0, c2 * a2
        f3 = _reflection(3.0, eta, a3)
        return c3 * f3 - 1.0, c2 * _reflection(2.0, eta, a2)

    try:
        lo = -t * (math.log(6.0) + 3.0 * math.log(t)) - 5.0 * t  # classical_mu(t) - 5t
        m, residual = monotone_root(constraint, lo, 1.0 + 5.0 * t, _mu_estimate(t))
    except NumericsError as exc:
        raise NumericsError(f"chemical-potential solve at t={t}: {exc}") from exc
    if abs(residual) > _RESIDUAL_TOL:
        raise _residual_error(t, m, residual)
    return m, f3, a3, a2


def solve_mu(t: float) -> float:
    """Reduced chemical potential m(t); exactly 1 at t = 0.  t is checked
    before the cache, so a list or an array is refused by name."""
    return _solved(check_temperature(t))[0]


# solve_mu's cache is _solved's: clearing it drops the kept values with m
solve_mu.cache_info, solve_mu.cache_clear = _solved.cache_info, _solved.cache_clear


def _state(t) -> tuple:
    """(m, u, c) at a checked t: at t <= _TINY_T the t = 0 limits (1, 3/4, pi^2 t),
    whose O(t^2) and O(t^3) corrections fall below resolution; else _solved's kept
    values and one kernel call a_4 = f_4, or r_4 at eta = m/t >= 1, where each
    a_k is r_k.  u = 18 t^4 f_4(m/t) over the solved 6 t^3 f_3(m/t) = 1 is
    3 t f_4/f_3, which no power of t can overflow and the rounding of m moves
    far less than f_4 alone; f_4 = P_4 - r_4 at eta >= 1, as _closed_forms forms
    it.  c is the plain ratio below eta = 1, else the module docstring's
    inversion identity."""
    if t <= _TINY_T:
        return 1.0, 0.75, math.pi ** 2 * abs(t)
    m, f3, a3, a2 = _solved(t)
    eta = m / t
    a4 = _closed_forms((4.0,), eta if eta < _TAYLOR_RADIUS else -eta)[0]
    if eta < _TAYLOR_RADIUS:
        return m, 3.0 * t * a4 / f3, 12.0 * a4 / a3 - 9.0 * a3 / a2
    e2, pi2 = eta * eta, math.pi ** 2
    y = pi2 / e2
    p2, p3 = 0.5 * e2 + pi2 / 6.0, eta * (e2 + pi2) / 6.0
    p4 = e2 * e2 / 24.0 + pi2 * e2 / 12.0 + 7.0 * pi2 * pi2 / 360.0
    d = (pi2 * e2 * e2 / 12.0 * (1.0 + 0.4 * y + (7.0 / 15.0) * y * y)
         - 12.0 * (p4 * a2 + p2 * a4 - a2 * a4) - 9.0 * (2.0 * p3 * a3 + a3 * a3))
    return m, 3.0 * t * _reflection(4.0, eta, a4) / f3, d / ((p3 + a3) * (p2 - a2))


def internal_energy(t: float) -> float:
    """Energy per particle u(t) in units of E_F; 3/4 at t = 0."""
    return _state(check_temperature(t))[1]


def heat_capacity(t: float) -> float:
    """Heat capacity per particle c(t) in units of k_B, 0 at t = 0; within
    2.2e-15 of mpmath for t in [0.01, 0.7]."""
    return _state(check_temperature(t))[2]


def thermo_state(t: float) -> ThermoState:
    """m, u and c at one reduced temperature t >= 0, with the bits of solve_mu,
    internal_energy and heat_capacity, from one f_4 call after the solve."""
    t = check_temperature(t)
    return ThermoState(t, *_state(t))


def thermo_curve(t_grid):
    """Tabulate (m(t), c(t)) over a non-empty, strictly increasing grid of t >= 0.

    Each sample has the bits of solve_mu(t) and heat_capacity(t), and each t
    is solved once; an empty grid is refused by name, an unsorted one by UniversalCurve.
    """
    ts = [check_temperature(t) for t in check_sequence("temperature grid", t_grid)]
    states = [_state(t) for t in ts]
    return (UniversalCurve("t", "m", tuple((t, s[0]) for t, s in zip(ts, states))),
            UniversalCurve("t", "c", tuple((t, s[2]) for t, s in zip(ts, states))))
