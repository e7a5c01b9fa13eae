"""Complete Fermi-Dirac integrals f_k(eta) = -Li_k(-exp(eta)) of fixed order.

fd(k, eta) gives (1/Gamma(k)) int_0^inf u^(k-1)/(exp(u - eta) + 1) du for k in
{1/2, 1, 3/2, 2, 5/2, 3, 4} from one of five regimes, which band(k, eta) names:

* series (eta <= -1, every k): sum_j (-1)^(j+1) z^j / j^k, z = exp(eta), by
  Horner, cut after the first n with z^n < 2^-60 (42 terms at eta = -1).
* taylor (|eta| < 1, integer k): 36 terms of sum_n eta_D(k - n) eta^n / n!,
  where eta_D(s) = (1 - 2^(1-s)) zeta(s) is the Dirichlet eta function.
* reflection (eta >= 1, integer k): the terminating Sommerfeld polynomial
  plus (-1)^(k+1) times the series at -eta; exact, so nothing cancels.
* trapezoid (-1 < eta < 40, half-integer k): with x = u^2, Gamma(k) f_k is
  the integral over the real line of u^(2k-1)/(exp(u^2 - eta) + 1), whose
  power is even, so the integrand is meromorphic.  Its trapezoid sum of step
  1/4 less the residues at the poles u = sqrt(eta + i(2j+1)pi) is exact
  (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).  The nodes are tabled
  as (e^(u^2), 2h u^p), so a call takes one exp, e^-eta; they end where
  u^2 exceeds eta + 48 and are summed from the outermost in.  The poles
  end where a term falls below 2^-60 of the sum: at most 36 nodes and 4
  pole terms.
* sommerfeld (eta >= 40, half-integer k): the bracket series, cut at its
  first term below 2^-60 of the sum; the terms fall until then, so no
  later term can move it.  The reflection term has a cos(pi k) = 0 prefactor.

The series, node, pole and Sommerfeld cuts keep one rule: what each
drops is below 2^-60 of its sum.

Each coefficient is an exact ratio of integers rounded to double once, and
is tabled at import: the series cut to every term count, the Sommerfeld
terms c_n k(k-1)...(k-2n+1) and Gamma of each order.  The worst relative
errors against mpmath at 40 digits are: series 2.6e-16, taylor 4.6e-16,
reflection 4.7e-16, trapezoid 8.3e-16 and sommerfeld 8.1e-16.

fd_orders(orders, eta) gives several orders at one eta: the regime is
picked once, and the series and reflection orders share one exp.  Every
regime is float code, and an array runs it element by element, so every
value has the bits of its own scalar call.  numpy is imported only for
array inputs.  fd, fd_orders and fd_derivative are the entry for outside
callers, which checks the order (a number, not text) and maps arrays; the
package's modules pass a float eta and supported orders straight to
_closed_forms, the kernel entry behind them.
"""

import cmath
import math
from bisect import bisect_left
from itertools import accumulate

from .errors import DomainError, check_real, to_float

SUPPORTED_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)

_SERIES_CUTOFF = -1.0
_TAYLOR_RADIUS = 1.0
_SOMMERFELD_CUTOFF = 40.0
_SERIES_SPAN = 60.0 * math.log(2.0)  # exp(-n |eta|) < 2^-60 once n |eta| exceeds this
_SERIES_TERMS = int(_SERIES_SPAN) + 1  # terms needed at |eta| = 1
_TAYLOR_TERMS = 36
_STEP = 0.25  # trapezoid step h in u = sqrt(x)
_NEGLIGIBLE = 2.0 ** -60  # a Sommerfeld or pole term this far below the sum is dropped
_TAIL = 48.0  # last trapezoid node: (n h)^2 <= eta + _TAIL, which drops under 2^-60 of the sum
# nodes off the centre, u <= 9: node 37 and on hold under 2^-65 of the sum below eta = 40
_NODES = 36
_POLE_PHASE = -2j * math.pi / _STEP  # exp(_POLE_PHASE u) - 1: the pole terms' denominator
_FOUR_PI = 4.0 * math.pi
# pi, ln 2 and zeta(3) to 62-63 decimals, as exact (numerator, denominator)
_PI = (314159265358979323846264338327950288419716939937510582097494459, 10 ** 62)
_LN2 = (693147180559945309417232121458176568075500134360255254120680009, 10 ** 63)
_ZETA3 = (120205690315959428539973816151144999076498629234049888179227156, 10 ** 62)


def _tangent_numbers(n_max):
    """[0, T_1, ..., T_(n_max)], tan x = sum_n T_n x^(2n-1)/(2n-1)! (Brent and
    Zimmermann, Modern Computer Arithmetic, algorithm TangentNumbers)."""
    t = [0] + [math.factorial(n - 1) for n in range(1, n_max + 1)]
    for k in range(2, n_max + 1):
        for j in range(k, n_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


_T = _tangent_numbers(25)
_PI_POWERS = list(accumulate(range(25), lambda pq, _: (pq[0] * _PI[0] ** 2, pq[1] * _PI[1] ** 2),
                             initial=(1, 1)))  # (p^(2n), q^(2n)) for pi = p/q


def _dirichlet_eta(s) -> tuple:
    """eta_D(s) = f_s(0) as an exact (numerator, denominator), integer s <= 50.

    f_0 = (1 + tanh(eta/2))/2 gives eta_D(1 - 2n) = (-1)^(n-1) T_n / 4^n and
    eta_D(-2n) = 0; eta_D(2n) = (1 - 2^(1-2n)) zeta(2n), with zeta(2n) =
    T_n pi^(2n) / (2 (4^n - 1) (2n-1)!).
    """
    if s in (1, 3):
        return _LN2 if s == 1 else (3 * _ZETA3[0], 4 * _ZETA3[1])
    if s == 0:
        return 1, 2
    if s < 0:
        n = (1 - s) // 2
        return (0, 1) if s % 2 == 0 else ((-1) ** (n - 1) * _T[n], 4 ** n)
    n = s // 2
    p, q = _PI_POWERS[n]
    return (4 ** n - 2) * _T[n] * p, 2 * 4 ** n * (4 ** n - 1) * math.factorial(s - 1) * q


# 2 eta_D(2n) for n = 1..25: coefficients of eta^(-2n) in the Sommerfeld
# bracket, multiplied by the falling product k(k-1)...(k-2n+1)
_SOMMERFELD_C = tuple(2 * p / q for p, q in map(_dirichlet_eta, range(2, 51, 2)))


# integer k: the Taylor coefficients eta_D(k - n)/n! of f_k, highest power
# first, and the terminating Sommerfeld polynomial, twice those with k - n even
# and n <= k
_TAYLOR = {float(k): tuple(reversed([p / (q * math.factorial(n)) for n, (p, q) in
                                     enumerate(map(_dirichlet_eta, range(k, k - _TAYLOR_TERMS, -1)))]))
           for k in (1, 2, 3, 4)}
_POLYNOMIAL = {k: tuple(2.0 * c if i % 2 == 0 else 0.0 for i, c in enumerate(t[-1 - int(k):]))
               for k, t in _TAYLOR.items()}
# j^-k for j = _SERIES_TERMS down to 1: sqrt(j^-2k) to 128 bits for half-integer k
_SERIES = {k: tuple(1 / j ** round(k) if k in _TAYLOR
                    else math.ldexp(math.isqrt((1 << 256) // j ** round(2 * k)), -128)
                    for j in range(_SERIES_TERMS, 0, -1))
           for k in SUPPORTED_ORDERS}
# _SERIES_BY[k][n]: the last n coefficients, the Horner sum of the first n terms
_SERIES_BY = {k: tuple(c[_SERIES_TERMS - n:] for n in range(_SERIES_TERMS + 1))
              for k, c in _SERIES.items()}
_HALF_ORDERS = tuple(k for k in SUPPORTED_ORDERS if k not in _TAYLOR)


def _sommerfeld_terms(k: float) -> tuple:
    """c_n k(k-1)...(k-2n+1) for n = 1..25, the falling product grown one
    factor pair at a time."""
    terms, prod = [], 1.0
    for n, c in enumerate(_SOMMERFELD_C, start=1):
        prod *= (k - (2 * n - 2)) * (k - (2 * n - 1))
        terms.append(c * prod)
    return tuple(terms)


# half-integer k: the bracket's coefficients and Gamma(k + 1)
_SOMMERFELD = {k: (_sommerfeld_terms(k), math.gamma(k + 1.0)) for k in _HALF_ORDERS}


def _trapezoid_table(k: float) -> tuple:
    """The trapezoid nodes u = n h of a half-integer order from n = _NODES
    down to 1, and to 0 with half weight where the power p = 2k - 1 is 0:
    their keys -u^2 (exact, ascending) for the cut, the pairs
    (e^(u^2), 2 h u^p), the pole terms' power p - 1 and Gamma(k)."""
    p = round(2.0 * k - 1.0)
    us = [n * _STEP for n in range(_NODES, -1 if p == 0 else 0, -1)]
    return ([-u * u for u in us], [(math.exp(u * u), 2.0 * _STEP * u ** p if u else _STEP) for u in us],
            p - 1, math.gamma(k))


_TRAPEZOID = {k: _trapezoid_table(k) for k in _HALF_ORDERS}
# Im(eta + i(2j+1)pi), the heights of the poles u_j^2; at most 4 are reached
# on the band
_POLE_HEIGHTS = tuple((2 * j + 1) * math.pi for j in range(8))


def _require_order(k) -> float:
    k = to_float("order", k, "a supported Fermi-Dirac order")
    if k not in SUPPORTED_ORDERS:
        raise DomainError(f"unsupported Fermi-Dirac order {k!r}; "
                          f"supported: {SUPPORTED_ORDERS}")
    return k


def _horner(coefficients, x: float) -> float:
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


def _series(k: float, x: float, z: float) -> float:
    """sum_j (-1)^(j+1) z^j / j^k for z = exp(-x), x = |eta| >= 1."""
    total, minus_z = 0.0, -z
    for c in _SERIES_BY[k][int(_SERIES_SPAN / x) + 1]:
        total = total * minus_z + c
    return z * total


def _reflection(k: float, eta: float, z: float) -> float:
    """f_k for integer k at eta >= 1, z = exp(-eta): the Sommerfeld
    polynomial plus (-1)^(k+1) times the series at -eta."""
    total = 0.0
    for c in _POLYNOMIAL[k]:
        total = total * eta + c
    reflection = _series(k, eta, z)
    return total + (reflection if k % 2 else -reflection)


def _sommerfeld(k: float, eta: float) -> float:
    """The bracket of a half-integer order, cut at its first term below 2^-60
    of the sum; inf where eta ** k overflows a double.  For eta >= 40 the
    terms shrink past that point, so no later term can change the sum."""
    terms, gamma = _SOMMERFELD[k]
    bracket, power = 1.0, 1.0
    inv_eta2 = 1.0 / (eta * eta)
    for c in terms:
        power *= inv_eta2
        term = c * power
        if abs(term) < _NEGLIGIBLE * bracket:
            break
        bracket += term
    try:
        return eta ** k / gamma * bracket
    except OverflowError:
        return math.inf


def _trapezoid(k: float, eta: float) -> float:
    """f_k for half-integer k on -1 < eta < _SOMMERFELD_CUTOFF: Gamma(k) f_k =
    T_h - 4 pi sum_(j>=0) Im[u_j^(2k-2) / (exp(-2 pi i u_j/h) - 1)], the
    trapezoid sum of step h in u = sqrt(x) less its pole correction.  A node
    term u^p/(e^(u^2 - eta) + 1) is (2h u^p)/(e^(u^2) e^-eta + 1) from the
    table, with one exp per call.  The nodes with u^2 <= eta + _TAIL run
    from the outermost in, the small terms first."""
    keys, nodes, power, gamma = _TRAPEZOID[k]
    w = math.exp(-eta)
    trapezoid = 0.0
    for e, c in nodes[bisect_left(keys, -(eta + _TAIL)):]:
        trapezoid += c / (e * w + 1.0)
    poles, floor = 0.0, _NEGLIGIBLE * trapezoid
    for height in _POLE_HEIGHTS:
        u = cmath.sqrt(complex(eta, height))
        term = _FOUR_PI * u ** power / (cmath.exp(_POLE_PHASE * u) - 1.0)
        poles += term.imag
        if abs(term) < floor:
            break
    return (trapezoid - poles) / gamma


def band(k: float, eta: float) -> str:
    """Name of the regime that evaluates f_k at eta; DomainError where fd
    refuses the order or eta."""
    k = _require_order(k)
    eta = check_real("eta", eta)
    if eta <= _SERIES_CUTOFF:
        return "series"
    if k in _TAYLOR:
        return "taylor" if eta < _TAYLOR_RADIUS else "reflection"
    return "sommerfeld" if eta >= _SOMMERFELD_CUTOFF else "trapezoid"


def fermi(x: float) -> float:
    """Fermi factor 1/(exp(x) + 1) of a float x, overflow safe for any x and
    within 2 ulp of the exact value."""
    ex = math.exp(-abs(x))
    return (ex if x >= 0 else 1.0) / (1.0 + ex)


def _closed_forms(ks, eta: float) -> list:
    """[f_k(eta) for k in ks] at one float eta: the regime is picked once, and
    the series and reflection orders share z = exp(-|eta|)."""
    if not math.isfinite(eta):
        check_real("eta", eta)  # refuses it
    values = []
    if eta <= _SERIES_CUTOFF:  # no order overflows here
        z = math.exp(eta)
        for k in ks:
            values.append(_series(k, -eta, z))
    elif eta < _TAYLOR_RADIUS:
        for k in ks:
            values.append(_horner(_TAYLOR[k], eta) if k in _TAYLOR else _trapezoid(k, eta))
    else:
        z = math.exp(-eta)
        half = _trapezoid if eta < _SOMMERFELD_CUTOFF else _sommerfeld
        for k in ks:
            values.append(_reflection(k, eta, z) if k in _TAYLOR else half(k, eta))
        if math.inf in values:
            raise DomainError(f"f_{ks[values.index(math.inf)]:g}(eta) overflows a double "
                              f"at eta = {eta!r}")
    return values


def fd_orders(orders, eta) -> list:
    """[fd(k, eta) for k in orders], bit for bit, sharing one exp per eta: floats
    for a number eta, else arrays of eta's shape.  eta and each of its entries
    is a number as check_real takes it, never text, bytes or None."""
    ks = tuple(map(_require_order, orders))
    if isinstance(eta, float):  # np.asarray alone costs ~1 us
        return _closed_forms(ks, eta)
    if isinstance(eta, (str, bytes)) or not hasattr(eta, "__len__"):  # a scalar
        return _closed_forms(ks, check_real("eta", eta))
    import numpy as np

    eta = np.asarray(eta, dtype=object)  # each entry as given: text is refused, not parsed
    values = [_closed_forms(ks, check_real("eta", e)) for e in eta.ravel().tolist()]
    if eta.ndim == 0:
        return values[0]
    out = np.array(values, dtype=float).reshape(eta.size, len(ks))
    return [row.reshape(eta.shape) for row in out.T]


def fd(order, eta):
    """f_k(eta) for a supported order k: a float for a float eta, else an
    array of eta's shape."""
    return fd_orders((order,), eta)[0]


def fd_derivative(order, eta):
    """d f_k / d eta, which equals f_(k-1)(eta)."""
    k = _require_order(order)
    if k - 1.0 not in SUPPORTED_ORDERS:
        raise DomainError(f"order {k} - 1 is outside the supported set")
    return fd(k - 1.0, eta)
