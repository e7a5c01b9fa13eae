"""Complete Fermi-Dirac integrals f_k(eta) = -Li_k(-exp(eta)) of fixed order.

fd(k, eta) gives (1/Gamma(k)) int_0^inf u^(k-1)/(exp(u - eta) + 1) du for k in
{1/2, 1, 3/2, 2, 5/2, 3, 4} from one of five regimes, which band(k, eta) names:

* series (eta <= -1, every k): sum_j (-1)^(j+1) z^j / j^k, z = exp(eta), by
  Horner, cut after the first n with z^n < 2^-60 (42 terms at eta = -1).
* taylor (|eta| < 1, integer k): 36 terms of sum_n eta_D(k - n) eta^n / n!,
  where eta_D(s) = (1 - 2^(1-s)) zeta(s) is the Dirichlet eta function.
* reflection (eta >= 1, integer k): the terminating Sommerfeld polynomial
  plus (-1)^(k+1) times the series at -eta; exact, so nothing cancels.
* quadrature (-1 < eta < 30, half-integer k): a fixed Gauss-Legendre rule in
  v = sqrt(u), 6 panels of 24 nodes on each side of the Fermi edge.
* sommerfeld (eta >= 30, half-integer k): the bracket series, truncated at
  its smallest term; the reflection term has a cos(pi k) = 0 prefactor.

Each coefficient is an exact ratio of integers rounded to double once.  The
worst relative errors against mpmath at 40 digits are: series 2.6e-16,
taylor 4.6e-16, reflection 4.7e-16, quadrature 7.3e-16 and sommerfeld
6.3e-16 (5.0e-15 for k = 1/2 at eta = 30 itself).

fd_orders(orders, eta) gives several orders with one exp per eta.  An array
runs the same float code element by element and its quadrature elements
through the rule in batches, each row reduced on its own, so every value
has the bits of its own scalar call.  numpy is imported only for the rule
(whose nodes are built on first use), for fermi and for array inputs: a
float eta outside the rule's band never loads it.
"""

import math
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError

SUPPORTED_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)

_SERIES_CUTOFF = -1.0
_TAYLOR_RADIUS = 1.0
_SOMMERFELD_CUTOFF = 30.0
_SERIES_SPAN = 60.0 * math.log(2.0)  # exp(-n |eta|) < 2^-60 once n |eta| exceeds this
_SERIES_TERMS = int(_SERIES_SPAN) + 1  # terms needed at |eta| = 1
_TAYLOR_TERMS = 36
_TAIL_DECADES = 60.0  # the rule's integrand is below exp(-60) beyond its cutoff
_PANELS = 6
_NODES = 24
_BATCH = 256  # rows per batch: each (rows x 288) temporary stays near 0.6 MB
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


def _require_order(k) -> float:
    k = float(k)
    if k not in SUPPORTED_ORDERS:
        raise DomainError(f"unsupported Fermi-Dirac order {k!r}; "
                          f"supported: {SUPPORTED_ORDERS}")
    return k


def _horner(coefficients, x: float) -> float:
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


def _series(k: float, eta: float, z: float) -> float:
    """sum_j (-1)^(j+1) z^j / j^k for z = exp(-|eta|), |eta| >= 1."""
    terms = int(_SERIES_SPAN / abs(eta)) + 1
    return z * _horner(_SERIES[k][_SERIES_TERMS - terms:], -z)


def _sommerfeld(k: float, eta: float) -> float:
    """The optimally truncated bracket of a half-integer order; inf where
    eta ** k overflows a double."""
    bracket, prod, power, prev = 1.0, 1.0, 1.0, math.inf
    inv_eta2 = 1.0 / (eta * eta)
    for n, c in enumerate(_SOMMERFELD_C, start=1):
        prod *= (k - (2 * n - 2)) * (k - (2 * n - 1))
        power *= inv_eta2
        term = c * prod * power
        if abs(term) >= prev:
            break  # asymptotic tail started growing: truncate at smallest term
        bracket += term
        prev = abs(term)
    try:
        return eta ** k / math.gamma(k + 1.0) * bracket
    except OverflowError:
        return math.inf


def _closed_form(k: float, eta: float, z: float):
    """f_k(eta) with z = exp(-|eta|), or None where the rule evaluates it."""
    if eta <= _SERIES_CUTOFF:
        return _series(k, eta, z)
    if k in _TAYLOR:
        if eta < _TAYLOR_RADIUS:
            return _horner(_TAYLOR[k], eta)
        reflection = _series(k, eta, z)
        return _horner(_POLYNOMIAL[k], eta) + (reflection if k % 2 else -reflection)
    return _sommerfeld(k, eta) if eta >= _SOMMERFELD_CUTOFF else None


def band(k: float, eta: float) -> str:
    """Name of the regime that evaluates f_k at eta."""
    if eta <= _SERIES_CUTOFF:
        return "series"
    if float(k) in _TAYLOR:
        return "taylor" if eta < _TAYLOR_RADIUS else "reflection"
    return "sommerfeld" if eta >= _SOMMERFELD_CUTOFF else "quadrature"


def fermi(x):
    """Fermi factor 1/(exp(x) + 1) elementwise, overflow safe for any x."""
    import numpy as np

    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, ex, 1.0) / (1.0 + ex)


@lru_cache(maxsize=None)
def _rule_nodes():
    """Node fractions and weights of _PANELS equal panels of an _NODES-point
    Gauss-Legendre rule on [0, 1], built on first use."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(_NODES)
    return (((np.arange(_PANELS)[:, None] + 0.5 * (x + 1.0)) / _PANELS).ravel(),
            np.tile(0.5 * w / _PANELS, _PANELS))


def _fixed_rule(orders, eta):
    """f_k for each k in orders at every element of a 1-D sequence eta inside
    the middle band, as rows of a (len(orders), len(eta)) array."""
    import numpy as np

    fractions, weights = _rule_nodes()
    e = np.asarray(eta, dtype=float)[:, None]
    lo = np.sqrt(np.maximum(e, 0.0))
    hi = np.sqrt(np.maximum(e, 0.0) + _TAIL_DECADES)
    v = np.concatenate([lo * fractions, lo + (hi - lo) * fractions], axis=1)
    w = np.concatenate([lo * weights, (hi - lo) * weights], axis=1)
    occupation = fermi(v * v - e)
    # a per-row sum, unlike a matrix product, rounds the same in any batch
    return np.array([(w * v ** (2.0 * k - 1.0) * occupation).sum(axis=1)
                     * (2.0 / math.gamma(k)) for k in orders])


def _closed_forms(ks, eta: float) -> list:
    """[f_k(eta) for k in ks] at one float eta, None where the rule runs."""
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    z = math.exp(-abs(eta))
    values = [_closed_form(k, eta, z) for k in ks]
    if math.inf in values:
        raise DomainError(f"f_{ks[values.index(math.inf)]:g}(eta) overflows a double "
                          f"at eta = {eta!r}")
    return values


def fd_orders(orders, eta) -> list:
    """[fd(k, eta) for k in orders], bit for bit, sharing one exp per eta: floats
    for a float eta, else arrays of eta's shape."""
    ks = tuple(map(_require_order, orders))
    if isinstance(eta, float):  # np.asarray alone costs ~1 us
        values = _closed_forms(ks, eta)
        if None in values:
            rule = iter(_fixed_rule([k for k, v in zip(ks, values) if v is None],
                                    [eta])[:, 0].tolist())
            values = [next(rule) if v is None else v for v in values]
        return values
    import numpy as np

    try:
        eta = np.asarray(eta, dtype=float)
    except OverflowError:  # an int beyond the double range
        raise DomainError("eta must be finite, got an integer beyond the float range") from None
    if eta.ndim == 0:
        return fd_orders(ks, float(eta))
    flat = eta.ravel()
    # one row per order; a None of the rule's band becomes nan until the rule fills it
    out = np.array([_closed_forms(ks, e) for e in flat.tolist()], dtype=float)
    out = out.reshape(flat.size, len(ks)).T
    half = [j for j, k in enumerate(ks) if k not in _TAYLOR]
    rows = np.flatnonzero((flat > _SERIES_CUTOFF) & (flat < _SOMMERFELD_CUTOFF)) if half else []
    for start in range(0, len(rows), _BATCH):
        part = rows[start:start + _BATCH]
        out[np.ix_(half, part)] = _fixed_rule([ks[j] for j in half], flat[part])
    return [row.reshape(eta.shape) for row in out]


def fd(order, eta):
    """f_k(eta) for a supported order k: a float for a float eta, else an
    array of eta's shape."""
    return fd_orders((order,), eta)[0]


def fd_derivative(order, eta):
    """d f_k / d eta, which equals f_(k-1)(eta)."""
    k = _require_order(order)
    if float(k - 1.0) not in SUPPORTED_ORDERS:
        raise DomainError(f"order {k} - 1 is outside the supported set")
    return fd(k - 1.0, eta)
