"""Complete Fermi-Dirac integrals of fixed order.

fd(k, eta) evaluates

    f_k(eta) = (1/Gamma(k)) * int_0^inf  u^(k-1) / (exp(u - eta) + 1) du

for the closed order set k in {1/2, 1, 3/2, 2, 5/2, 3, 4}, equivalently
-Li_k(-exp(eta)).  Three regimes are used, since no single representation
reaches 1e-10 relative accuracy everywhere:

* eta <= -1: alternating fugacity series sum_j (-1)^(j+1) exp(j eta)/j^k.
* eta >= 30: asymptotic (Sommerfeld) bracket series, its coefficients built
  from zeta(2n) = |B_2n| (2 pi)^(2n) / (2 (2n)!) in exact rational
  arithmetic and rounded to double once.  For integer k the bracket
  terminates and the exponentially small remainder is exactly
  (-1)^(k+1) f_k(-eta), restoring full precision; for half-integer k that
  reflection term carries a cos(pi k) = 0 prefactor, so the optimally
  truncated bracket alone is within 5.0e-15 of mpmath (k = 1/2, eta = 30).
* otherwise: one fixed Gauss-Legendre rule after the substitution u = v^2,
  which removes the u^(k-1) endpoint singularity.  Six panels of 24 nodes
  cover [0, sqrt(eta)] and six more cover [sqrt(eta), sqrt(max(eta,0)+60)],
  so the Fermi edge v = sqrt(eta) is a panel boundary and the integrand is
  below exp(-60) beyond the cutoff.  The node fractions and weights are
  built once; a whole array of eta is evaluated as one numpy expression.
  Against mpmath at 30 digits over 4242 (order, eta) points in the band
  the worst relative error is 5.9e-16 (5.6e-15 for the adaptive rule it
  replaced).

fd accepts a float or an array of eta.  Series and Sommerfeld elements run
the scalar code above; middle-band elements go through the rule in one
batch, and a float in the middle band is a batch of one.  Each row of the
batch is reduced on its own, so a value does not depend on the batch it
came in: scalar and array calls agree bit for bit.

fd_orders(orders, eta) gives several orders in one pass of the same band
dispatch, of which fd is the one-order case.  The rule then builds the
nodes and the Fermi factor 1/(exp(v^2 - eta) + 1) once per eta and reduces
w v^(2k-1) f row by row for each order, so every order keeps the bits of
its own fd call.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

SUPPORTED_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)

_SERIES_CUTOFF = -1.0
_SOMMERFELD_CUTOFF = 30.0
_TAIL_DECADES = 60.0
_PANELS = 6
_NODES = 24
_BATCH = 256  # rows per batch: each (rows x 288) temporary stays near 0.6 MB
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


def _even_bernoulli(n_max):
    """B_0, B_2, ..., B_(2 n_max) from sum_(i<=m) C(m+1, i) B_i = 0, in which
    the odd B_i vanish except B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(2, 2 * n_max + 1, 2):
        even_terms = sum(math.comb(m + 1, i) * b[i // 2] for i in range(0, m, 2))
        b.append((Fraction(m + 1, 2) - even_terms) / (m + 1))
    return b


# 2*(1 - 2^(1-2n))*zeta(2n) for n = 1..25: coefficients of eta^(-2n) in the
# Sommerfeld bracket, multiplied by the falling product k(k-1)...(k-2n+1).
# Exact Bernoulli form with a 63-digit rational pi; float pi**(2n) loses 2e-15.
_SOMMERFELD_C = tuple(
    float((1 - Fraction(2) ** (1 - 2 * n)) * abs(b) * (2 * _PI) ** (2 * n)
          / math.factorial(2 * n))
    for n, b in enumerate(_even_bernoulli(25)[1:], start=1)
)


def _require_order(k) -> float:
    k = float(k)
    if k not in SUPPORTED_ORDERS:
        raise DomainError(f"unsupported Fermi-Dirac order {k!r}; "
                          f"supported: {SUPPORTED_ORDERS}")
    return k


def _fugacity_series(k: float, eta: float) -> float:
    total = 0.0
    sign = 1.0
    for j in range(1, 100_000):
        term = sign * math.exp(j * eta) / j ** k
        total += term
        if abs(term) <= 1e-17 * abs(total) or term == 0.0:
            break
        sign = -sign
    return total


def _sommerfeld(k: float, eta: float) -> float:
    bracket = 1.0
    prod = 1.0
    prev = math.inf
    inv_eta2 = 1.0 / (eta * eta)
    power = 1.0
    for n, c in enumerate(_SOMMERFELD_C, start=1):
        prod *= (k - (2 * n - 2)) * (k - (2 * n - 1))
        if prod == 0.0:
            break
        power *= inv_eta2
        term = c * prod * power
        if abs(term) >= prev:
            break  # asymptotic tail started growing: truncate at smallest term
        bracket += term
        prev = abs(term)
    value = eta ** k / math.gamma(k + 1.0) * bracket
    if k == int(k):
        correction = _fugacity_series(k, -eta)
        value += correction if int(k) % 2 == 1 else -correction
    return value


def fermi(x):
    """Fermi factor 1/(exp(x) + 1) elementwise, overflow safe for any x."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, ex, 1.0) / (1.0 + ex)


# Node fractions and weights of _PANELS equal panels of an _NODES-point
# Gauss-Legendre rule on [0, 1].
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_NODES)
_FRACTIONS = ((np.arange(_PANELS)[:, None] + 0.5 * (_gl_x + 1.0)) / _PANELS).ravel()
_WEIGHTS = np.tile(0.5 * _gl_w / _PANELS, _PANELS)


def _fixed_rule(orders, eta):
    """f_k for each k in orders at every element of a 1-D array eta inside
    the middle band, as rows of a (len(orders), eta.size) array."""
    e = eta[:, None]
    lo = np.sqrt(np.maximum(e, 0.0))
    hi = np.sqrt(np.maximum(e, 0.0) + _TAIL_DECADES)
    v = np.concatenate([lo * _FRACTIONS, lo + (hi - lo) * _FRACTIONS], axis=1)
    w = np.concatenate([lo * _WEIGHTS, (hi - lo) * _WEIGHTS], axis=1)
    occupation = fermi(v * v - e)
    # a per-row sum, unlike a matrix product, rounds the same in any batch
    return np.array([(w * v ** (2.0 * k - 1.0) * occupation).sum(axis=1)
                     * (2.0 / math.gamma(k)) for k in orders])


def band(eta: float) -> str:
    """Name of the regime that evaluates f_k at eta."""
    if eta <= _SERIES_CUTOFF:
        return "series"
    return "sommerfeld" if eta >= _SOMMERFELD_CUTOFF else "quadrature"


def _fd_scalar(orders, eta: float) -> list:
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= _SERIES_CUTOFF:
        return [_fugacity_series(k, eta) for k in orders]
    if eta >= _SOMMERFELD_CUTOFF:
        values = []
        try:
            for k in orders:
                values.append(_sommerfeld(k, eta))
        except OverflowError:  # eta ** k beyond the double range
            raise DomainError(f"f_{k:g}(eta) overflows a double at eta = {eta!r}") from None
        return values
    return _fixed_rule(orders, np.array([eta]))[:, 0].tolist()


def fd_orders(orders, eta) -> list:
    """[f_k(eta) for k in orders]: several supported orders at once.

    A float eta gives floats; an array gives arrays of its shape.  Middle-band
    elements share one Fermi factor across the orders, and each value equals
    fd(k, eta) bit for bit.
    """
    ks = tuple(map(_require_order, orders))
    if isinstance(eta, float):  # np.asarray alone costs ~1 us
        return _fd_scalar(ks, eta)
    try:
        eta = np.asarray(eta, dtype=float)
    except OverflowError:  # an int beyond the double range
        raise DomainError("eta must be finite, got an integer beyond the float range") from None
    if eta.ndim == 0:
        return _fd_scalar(ks, float(eta))
    flat = eta.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise DomainError(f"eta must be finite, got {float(flat[~finite][0])!r}")
    out = np.empty((len(ks), flat.size))
    middle = (flat > _SERIES_CUTOFF) & (flat < _SOMMERFELD_CUTOFF)
    for i in np.flatnonzero(~middle):
        out[:, i] = _fd_scalar(ks, float(flat[i]))
    rows = np.flatnonzero(middle)
    for start in range(0, rows.size, _BATCH):
        part = rows[start:start + _BATCH]
        out[:, part] = _fixed_rule(ks, flat[part])
    return [row.reshape(eta.shape) for row in out]


def fd(order, eta):
    """Complete Fermi-Dirac integral f_k(eta) for a supported order k.

    A float eta gives a float; an array gives an array of its shape.
    """
    return fd_orders((order,), eta)[0]


def fd_derivative(order, eta):
    """d f_k / d eta, which equals f_(k-1)(eta)."""
    k = _require_order(order)
    if float(k - 1.0) not in SUPPORTED_ORDERS:
        raise DomainError(f"order {k} - 1 is outside the supported set")
    return fd(k - 1.0, eta)
