"""Shared independent oracles for the test suite."""

import math

import mpmath
from scipy.integrate import quad
from scipy.special import expit

from quadrature import adaptive_gl_split


def brute_fd(k, eta):
    """Adaptive quadrature of the defining Fermi-Dirac integral.

    Independent reference route: scipy's Gauss-Kronrod machinery on the raw
    integrand, with an interior break point at the Fermi edge.
    """
    def integrand(u):
        x = u - eta
        if x > 0:
            occ = math.exp(-x) / (1.0 + math.exp(-x))
        else:
            occ = 1.0 / (1.0 + math.exp(x))
        return u ** (k - 1.0) * occ

    points = [eta] if eta > 0 else None
    value, _ = quad(integrand, 0.0, max(eta, 0.0) + 60.0,
                    points=points, limit=400, epsabs=1e-300, epsrel=1e-12)
    return value / math.gamma(k)


def adaptive_fd(k, eta):
    """f_k(eta) by adaptive Gauss-Legendre panels in v = sqrt(u).

    The integrand 2 v^(2k-1) / (exp(v^2 - eta) + 1) is split at the Fermi
    edge v = sqrt(eta) and cut off at u = max(eta, 0) + 60; panels are
    bisected until stable to 1e-13 of the magnitude of f_k.
    """
    vmax = math.sqrt(max(eta, 0.0) + 60.0)
    edges = [0.0, math.sqrt(eta), vmax] if eta > 0.0 else [0.0, vmax]
    scale = max(math.exp(min(eta, 0.0)), max(eta, 0.0) ** k / math.gamma(k + 1.0))

    def integrand(v):
        return 2.0 * v ** (2.0 * k - 1.0) * expit(eta - v * v)

    raw = adaptive_gl_split(integrand, edges, abs_tol=1e-13 * max(scale, 1e-3))
    return raw / math.gamma(k)


def mp_fd(k, eta):
    """f_k(eta) = -Li_k(-e^eta) from mpmath at its working precision.

    For eta <= -1 this is the direct alternating sum of (-1)^(j+1) e^(j eta)/j^k,
    which converges at least as fast as e^(-j): mpmath's polylog loses the
    value deep in that band (f_1(-100) = log(1 + e^-100) came out 4.48e-44,
    not 3.72e-44, at 40 digits).
    """
    order = int(k) if k == int(k) else mpmath.mpf(k)
    if eta <= -1:
        z = mpmath.exp(eta)
        return mpmath.nsum(lambda j: (-1) ** (int(j) + 1) * z ** j / j ** order,
                           [1, mpmath.inf], method="direct")
    return mpmath.re(-mpmath.polylog(order, -mpmath.exp(eta)))


def mp_thermo(t):
    """(m, u, c) at t > 0 from mpmath at its working precision.

    m is the root of 6 t^3 f_3(m/t) = 1 by damped Newton steps from the
    Sommerfeld or classical form; u = 18 t^4 f_4 and
    c = 12 f_4/f_3 - 9 f_3/f_2 at eta = m/t.  c cancels about
    2 log10(eta) digits, so set the precision with that in mind.
    """
    t = mpmath.mpf(t)
    m = 1 - mpmath.pi ** 2 * t ** 2 / 3 if t < 0.5 else -t * mpmath.log(6 * t ** 3)
    for _ in range(200):
        step = ((6 * t ** 3 * mp_fd(3, m / t) - 1) / (6 * t ** 2 * mp_fd(2, m / t)))
        m -= max(min(step, 5 * t), -5 * t)
        if abs(step) <= mpmath.mpf(10) ** (4 - mpmath.mp.dps) * max(1, abs(m)):
            break
    else:
        raise ArithmeticError(f"reference m(t) did not converge at t={t}")
    eta = m / t
    f2, f3, f4 = mp_fd(2, eta), mp_fd(3, eta), mp_fd(4, eta)
    return m, 18 * t ** 4 * f4, 12 * f4 / f3 - 9 * f3 / f2


def mp_exact_mu(n_particles, lam, t_abs):
    """Chemical potential of the level sum eps = n_x + n_y + lam n_z, rooted
    in mpmath at its working precision from the fugacity series

        N = sum_j (-1)^(j+1) z^j / ((1 - e^(-j/T))^2 (1 - e^(-lam j/T))),

    z = e^(mu/T), which expands every occupation in powers of z and sums
    each power over the whole spectrum in closed form, with no cutoff.  The
    series converges for mu < 0 only, so the root must lie there.
    """
    n = mpmath.mpf(n_particles)
    beta, lam = 1 / mpmath.mpf(t_abs), mpmath.mpf(lam)
    tiny = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)

    def count(u):
        # (sum, d sum/du) at u = mu/T < 0
        total = slope = mpmath.mpf(0)
        for j in range(1, 100_000):
            term = ((-1) ** (j + 1) * mpmath.exp(j * u)
                    / (mpmath.expm1(-j * beta) ** 2 * -mpmath.expm1(-lam * j * beta)))
            total += term
            slope += j * term
            if abs(term) <= tiny * abs(total):
                return total, slope
        raise ArithmeticError(f"fugacity series did not converge at u={u}")

    # every occupation is below its classical e^(-x), so the sum is below
    # z Z_1, Z_1 the one-particle partition function, and the root above
    # ln(N / Z_1); halving toward 0 finds a point past the root, from which
    # Newton on this convex, increasing sum falls monotonically onto it
    u = mpmath.log(n * mpmath.expm1(-beta) ** 2 * -mpmath.expm1(-lam * beta))
    if u >= 0:
        raise ArithmeticError("the root lies at mu >= 0, outside the series")
    while count(u)[0] <= n:
        u /= 2
    for _ in range(200):
        total, slope = count(u)
        step = (total - n) / slope
        u -= step
        if abs(step) <= mpmath.mpf(10) ** (4 - mpmath.mp.dps) * abs(u):
            return u / beta
    raise ArithmeticError(f"reference mu did not converge for N={n_particles}")
