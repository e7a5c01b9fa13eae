"""Exact discrete-spectrum reference computations.

The single-particle levels are eps = n_x + n_y + lambda*n_z in units of
hbar*omega_r, zero-point suppressed: axial row n_z holds p + 1 states at
fl(base + p), base = lambda*n_z, p = n_x + n_y.  The T = 0 counts read the
bases alone (_count): counting_check counts at E_F - (1 + lambda/2), and
exact_mu bisects from there, on levels, for the one the Nth state fills.
The level sum and build_spectrum enumerate ladders: base splits exactly
into an integer a and a fraction frac, so the row lies on the ladder
frac + k, k an integer, with fl(frac + k) == fl(base + p).  Rows with equal
frac share a ladder and each adds a ramp k - a + 1 of degeneracies: one
np.bincount of their second differences and two running sums give them
all, with no per-cell array.  Integer lambda has one ladder; irrational
lambda has one per row.  A level is kept iff its float energy is <= the
cutoff, so a smaller cutoff's ladders are a larger one's masked by energy,
in order: _levels keeps each lambda's at the largest cutoff asked so far,
up to MAX_ENTRIES entries that stay in memory, and masks them; only
build_spectrum sorts.  The entries plus four per row are capped at
MAX_ENTRIES, by _rows on the lower bound max(rows, floor(cutoff) + 1)
before any per-row array, then on their count.  Counts refuse 2^53 states
or more up to their cutoff, so as to be exact floats; the level sum weighs
levels by the float g/N and needs no such guard.

At T > 0, below T* = _POLE_T or where the pole sum (below) does not apply,
exact_mu solves sum_levels (g/N) f((eps - mu)/T) = 1 by one monotone_root
search on [-60 T - 1, hi], hi = 2^(1/3) E_F + 2, which holds more than 2N
states (at least the volume hi^3/(6 lambda) under it), so mu <= hi, and at
T = 0 the level above the Nth state is at most hi.
Ladders are enumerated only up to the cutoff E_c = hi + 12 T.  Every level
above it has x = (eps - mu)/T > 12, where f = e^-x - e^-2x + e^-3x to
within 2.3e-16 (e^-36) relative; per axial row these terms are geometric
series in p: _tail_sums gives their sums S_j over all levels above E_c in
closed form, so each step adds the tail as
sum_j (-1)^(j+1) e^(-j (E_c - mu)/T) S_j/N and no level is dropped.  Both
routes start Newton at the continuum estimate solve_mu(t) E_F - (1 + lambda/2),
raised by (2 + lambda^2) f_1(eta) / (24 T f_2(eta)), eta = m/t, for the
constant term -(2 + lambda^2)/(24 lambda) of the smooth level density (Brack
and van Zyl, PRL 86, 1574 (2001)), or at the bracket's low end if either
fails or t rounds to 0; the estimate picks only the start.  Each Newton step
exponentiates the L window levels, u = e^((eps - mu)/T), then takes
f = 1/(1 + u) and numpy's pairwise sums of the positive terms (g/N) f and
(g/N) f (1 - f), in two buffers allocated once.  The window's occupied fraction is within
(X + (log2(L) + 24)/2) em of exact, relative, em = 2^-52, with
X = sum g f (1 - f)|x| / sum g f, below 0.9 at t <= 0.2 (README "Numerics"
derives it): 4.8e-15 at the 157,678 levels of N = 1e6, lambda = sqrt 8,
t = 0.2.  The tail holds at most Gamma(3, 12)/2 = 5.2e-4 of N in the
classical limit, and less when degenerate, so its rounding adds a few em
of that share.  No BLAS routine runs, so the results do not depend on the
BLAS library or its thread count.

The pole sum (_pole_mu) needs no spectrum.  With mu_b = mu + 1 + lambda/2,
N = (1/2 pi i) int Z(beta) e^(beta mu_b) pi T/sin(pi T beta) dbeta, Z(beta) =
[2 sinh(beta/2)]^-2 [2 sinh(lambda beta/2)]^-1, is the sum of its residues
(Brack and Bhaduri, Semiclassical Physics (1997), ch. 3): at beta = 0 the cubic
mu_b^3/(6 lambda) + (pi^2 T^2/6 - (2 + lambda^2)/24) mu_b/lambda; the shell
terms of the double poles 2 pi i k and simple poles 2 pi i j/lambda, which
merge into triple poles where fl(k lambda) is an integer j, one test for both
loops, and decay as e^-y, y = 2 pi^2 k T, with 1/sinh y = 2 e^-y/(1 - e^-2y);
and the reflection terms (-1)^(m+1) Z(m/T) e^(-m mu_b/T) at beta = -m/T, fast
only well above the lowest level.  So the route needs the root above T/2, and
searches [T/2, hi]; at most _POLE_TERMS terms; and shell terms summing, in
absolute value, below N at hi, which fails near a lambda whose k lambda is near
an integer it does not round to.  At T >= T* = 0.1 it measured within 3.5e-16
of the level sum on the oracle and cli workloads' inputs; below, e^-y > e^-2k.

These sums validate the continuum treatment.  Note the continuum density
of states is asymptotic to the spectrum counted from the bottom of the
potential, so continuum comparisons are reported both raw and with the
suppressed zero-point energy (1 + lambda/2) restored; the adjusted gap is
the meaningful convergence measure.

Every entry point that takes (N, lambda) checks them, and gets E_F in
hbar*omega_r and R_F/sigma, from scales._trap_scales, which refuses
48 N lambda past the float range with one message naming both.

numpy is imported by the functions that enumerate the spectrum, so the
closed forms and the pole sum run without it; validity_report wraps the
floats of scales.validity_table in arrays.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading

from .errors import DomainError, NumericsError, check_count, check_finite
from .fdint import _closed_forms
from .record import Record
from .scales import _SEMI_N0, _trap_scales, validity_table
from .thermo import _check_t, monotone_root, solve_mu

MAX_ENTRIES = 5_000_000
_KEPT, _KEPT_LOCK = {}, threading.Lock()  # lambda: (cutoff, *ladders), oldest first
# top closed shell of exact_central_density, whose exact integer binomial
# grows faster than linearly in the shell: 9.4 s at K = 1e6, 3.5 ms at 1e4
MAX_SHELL = 1_000_000

# exact_mu brackets mu by _CUTOFF_SCALE E_F + 2, which holds more than twice N
# states, enumerates the levels up to _TAIL_GAP T above that and sums the rest
# per axial row in closed form
_CUTOFF_SCALE = 2.0 ** (1.0 / 3.0)
_TAIL_GAP = 12.0

# largest |occupied fraction - 1| that exact_mu accepts
_OCCUPATION_TOL = 1e-10

# exact_mu's pole sum: from T* hbar*omega_r up, in at most _POLE_TERMS k, j and m terms
_POLE_T = 0.1
_POLE_TERMS = 1000
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


class DiscreteSpectrum(Record, hidden=("energies", "degeneracies")):
    """Sorted levels (energy in hbar*omega_r, degeneracy) below the cutoff."""

    lam: float
    cutoff: float
    energies: np.ndarray
    degeneracies: np.ndarray

    @property
    def state_count(self) -> int:
        return int(self.degeneracies.sum())


def _tops(base, cutoff: float):
    """Each axial row's largest p with fl(base + p) <= cutoff."""
    top = (cutoff - base) // 1.0  # the difference is rounded: off by at most one
    top -= base + top > cutoff
    top += base + (top + 1.0) <= cutoff
    return top


def _levels(lam: float, cutoff: float):
    """_ladders(lam, cutoff) bit for bit, in fresh arrays (module docstring)."""
    with _KEPT_LOCK:
        kept = _KEPT.get(lam)
        if kept is None or not cutoff <= kept[0]:
            _KEPT.pop(lam, None)  # freed before the larger build
            kept = (cutoff, *_ladders(lam, cutoff)[:3])
            for array in kept[1:]:
                array.flags.writeable = False
            while sum(e.size + 4 * b.size for _, e, _, b in (kept, *_KEPT.values())) > MAX_ENTRIES:
                del _KEPT[next(iter(_KEPT))]
            _KEPT[lam] = kept
    _, energies, degs, base = kept
    inside, base = energies <= cutoff, base[base <= cutoff]
    return energies[inside], degs[inside], base, _tops(base, cutoff)


def _check_entries(lam: float, cutoff: float, entries, rows, bound=""):
    if entries + 4 * rows > MAX_ENTRIES:  # a row costs four entries' bytes
        raise DomainError(f"lambda = {lam!r}, cutoff = {cutoff!r}: the spectrum has "
                          f"{bound}{entries:.16g} ladder entries and {rows:.16g} axial rows, "
                          f"above the {MAX_ENTRIES} entry cap counting each row as 4 entries")


def _rows(lam: float, cutoff: float):
    """Each axial row's base lambda*n_z <= cutoff, refused if the rows alone pass the entry cap."""
    import numpy as np

    # floor(cutoff/lambda) + 1 rows as a float (inf past float range, not an
    # OverflowError), moved by one to the rows of float base <= cutoff
    rows = float(np.floor(cutoff / lam)) + 1.0
    rows -= cutoff - lam * (rows - 1.0) < 0.0
    rows += lam * rows <= cutoff
    # a ladder holds its first row's top + 1 entries and a distinct slot for
    # the integer part of each of its rows' bases, so the entries are at least
    # max(rows, floor(cutoff) + 1): refuse on that before any per-row array
    _check_entries(lam, cutoff, max(rows, math.floor(cutoff) + 1.0), rows, "at least ")
    return lam * np.arange(int(rows))


def _count(lam: float, base, eps: float):
    """(states <= eps, refused at 2^53, the highest level <= eps, the lowest level above it and
    its degeneracy): row n_z holds (t + 1)(t + 2)/2 states to its top t, t + 2 at base + t + 1."""
    top = _tops(base, eps).clip(min=-1.0)  # a row above eps holds none
    # twice the state count: a sum of even integers, exact below 2^54
    states = float(((top + 1.0) * (top + 2.0)).sum()) / 2.0
    if states >= 2.0 ** 53:
        raise DomainError(f"lambda = {lam!r}, cutoff = {eps!r}: the spectrum holds "
                          f"{states:.6g} states, at or above the 2^53 cap of exact float counts")
    above = top + 1.0 + base
    high = float(above.min())
    low = float((top + base).max(where=top >= 0.0, initial=-math.inf))
    return int(states), low, high, int((top + 2.0).sum(where=above == high))


def _ladders(lam: float, cutoff: float):
    """Every level of float energy <= cutoff as unsorted (energies,
    degeneracies) arrays with one entry per k of each ladder frac + k, k an
    integer; two ladders may share a float energy.  Also returns each axial
    row's base lambda*n_z and top p, for n_z = 0..rows - 1."""
    import numpy as np

    base = _rows(lam, cutoff)
    top = _tops(base, cutoff)
    a = np.floor(base)
    frac = base - a  # exact, so fl(frac + (a + p)) == fl(base + p)
    fracs, first, ladder = np.unique(frac, return_index=True, return_inverse=True)
    # ladder j holds k = lo_j..lo_j + top: its first row has the lowest a,
    # and a + top, the largest k with fl(frac + k) <= cutoff, is the same
    # for every row of the ladder
    lo = a[first]
    size = top[first] + 1.0
    start = np.cumsum(size) - size
    total = int(start[-1] + size[-1])
    _check_entries(lam, cutoff, total, top.size)
    # row n_z adds the ramp k - a + 1 on k = a..a + top: second differences
    # +1 at its first slot, -(top + 2) and +(top + 1) after its last
    at = (start - lo)[ladder] + a
    degs = np.bincount(np.concatenate((at, at + top + 1.0, at + top + 2.0)).astype(np.intp),
                       np.concatenate((np.ones_like(top), -(top + 2.0), top + 1.0)),
                       minlength=total + 2)[:total]
    np.cumsum(degs, out=degs)
    np.cumsum(degs, out=degs)
    # entry start_j + i of ladder j is k = lo_j + i, an exact float integer
    sizes = size.astype(np.intp)
    energies = np.repeat(lo - start, sizes)
    energies += np.arange(total)
    energies += np.repeat(fracs, sizes)
    return energies, degs, base, top


def build_spectrum(lam: float, cutoff: float) -> DiscreteSpectrum:
    """Exhaustively enumerate all levels with energy <= cutoff."""
    import numpy as np

    lam = check_finite("lambda", lam, positive=True)
    cutoff = check_finite("cutoff", cutoff)
    energies, degs, base, _ = _levels(lam, cutoff)
    _count(lam, base, cutoff)  # exact float counts
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    degs = degs[order]
    del order
    starts = np.flatnonzero(np.r_[True, energies[1:] != energies[:-1]])
    degs = np.add.reduceat(degs, starts)
    return DiscreteSpectrum(lam=lam, cutoff=cutoff, energies=energies[starts],
                            degeneracies=degs)


def closed_shell_count(n: int) -> int:
    """Particles filling isotropic shells 0..n completely, n a non-negative integer."""
    try:
        shell = operator.index(n)
    except TypeError:  # a float, even an integral one, or no number
        shell = -1
    if shell < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    return (shell + 1) * (shell + 2) * (shell + 3) // 6


def exact_mu(n_particles: int, lam: float, t_abs: float):
    """Chemical potential (hbar*omega_r units) from the exact level sum.

    t_abs is k_B T in units of hbar*omega_r.  At t_abs = 0 the gas must
    fill closed shells; the chemical potential is then reported at the
    midpoint of the gap between the last filled and first empty level.
    """
    lam, e_fermi, _ = _trap_scales(n_particles, lam)
    return _exact_mu(n_particles, lam, e_fermi, check_finite("t_abs", t_abs), None)


def _tail_sums(cutoff: float, t_abs: float, lam: float, base, top) -> list:
    """[S_1, S_2, S_3], S_j = sum of g e^(-j (eps - cutoff)/T) over the levels
    above the cutoff, from the axial rows' base and top that
    _levels(lam, cutoff) returned.  With q = e^(-j/T), row n_z adds
    e^(-j (base - cutoff)/T) sum_(p >= p0) (p + 1) q^p, p0 = top + 1, which is
    e^(-j (base + p0 - cutoff)/T) ((p0 + 1)/(1 - q) + q/(1 - q)^2); the rows
    n_z >= rows, wholly above the cutoff, add
    e^(-j (lambda rows - cutoff)/T) / ((1 - e^(-j lambda/T)) (1 - q)^2)."""
    import numpy as np

    rows = top.size
    powers = np.empty((3, rows))
    # e^(-(eps_0 - cutoff)/T) of each row's first level above the cutoff:
    # eps_0 = fl(base + p0) as in the ladders, and eps_0 - cutoff is exact
    first = top + 1.0
    first += base
    first -= cutoff
    np.divide(first, -t_abs, out=powers[0])
    np.exp(powers[0], out=powers[0])
    np.multiply(powers[0], powers[0], out=powers[1])
    np.multiply(powers[1], powers[0], out=powers[2])
    plain = np.add.reduce(powers, 1).tolist()
    powers *= top + 2.0  # p0 + 1
    ramped = np.add.reduce(powers, 1).tolist()
    past = math.exp(-(lam * rows - cutoff) / t_abs)
    sums = []
    for j, (row_sum, ramp_sum) in enumerate(zip(plain, ramped), 1):
        gap = -math.expm1(-j / t_abs)  # 1 - q
        beyond = past ** j / -math.expm1(-j * lam / t_abs)
        sums.append((ramp_sum + (row_sum * math.exp(-j / t_abs) + beyond) / gap) / gap)
    return sums


def _pole_sum(n_particles: int, lam: float, t_abs: float, hi: float):
    """(residual, (n_k, n_j, n_m)): residual(mu) = (N(mu)/N - 1, dN/dmu / N) from
    the poles k <= n_k, j <= n_j and m <= n_m, or None (module docstring)."""
    zp, pt = 1.0 + 0.5 * lam, math.pi * t_abs
    top, step = hi + zp, 2.0 * math.pi * pt  # step: y = 2 pi^2 k T of the k = 1 pole
    # a term is at most 2 pi T e^-y w^2 (1 + 1/lambda), w = top + pi T + lambda,
    # below 2^-60 N past y = cut; the poles kept lie below Im beta = 2 pi (n_k + 1/2),
    # halfway between two k poles, so no j pole is kept apart from a k pole near it
    w = top + pt + lam
    reach = (math.log(2.0 * pt * w * w * (1.0 + 1.0 / lam) / n_particles) + 41.6) / step - 0.5
    if not (reach + 1.0) * (1.0 + lam) < _POLE_TERMS:  # or NaN past the float range
        return None
    n_k = max(math.ceil(reach), 0)
    head = _SPLIT * lam - (_SPLIT * lam - lam)  # lambda = head + tail, 26 bits each

    def gap(k, j):  # k lambda - j, rounded once: k head and k tail are exact
        return (k * head - j) + k * (lam - head)

    ks, js = [], []
    for k in range(1, n_k + 1):
        e = math.exp(-k * step)
        csch, coth = 2.0 * e / (1.0 - e * e), (1.0 + e * e) / (1.0 - e * e)
        j = round(k * lam)
        if k * lam == j:  # the k pole and the j pole merge into a triple pole
            pre = (-2.0 if j % 2 else 2.0) * pt * csch / lam
            a0 = 0.5 * pt * pt * (coth * coth + csch * csch) + (2.0 + lam * lam) / 24.0
            ks.append((pre * pt * coth, pre * a0, -0.5 * pre))
        else:  # sin(pi k lambda) = (-1)^j sin(pi (k lambda - j))
            d = math.pi * gap(k, j)
            c = (-1.0 if j % 2 else 1.0) * pt * csch / math.sin(d)
            ks.append((-c, -c * (pt * coth + 0.5 * lam / math.tan(d)), 0.0))
    for j in range(1, int((n_k + 0.5) * lam) + 1):
        k, p = round(j / lam), 0.0
        if k * lam != j:  # else summed with its k pole
            e = math.exp(-j * step / lam)
            s = math.sin(math.pi * gap(k, j) / lam)  # +-sin(pi j/lambda)
            p = (-1.0 if j % 2 else 1.0) * pt * e / ((1.0 - e * e) * lam * s * s)
        js.append((0.0, p, 0.0))
    if not sum(abs(q) * top + abs(p) + abs(r) * top * top for q, p, r in ks + js) < n_particles:
        return None
    # (-1)^(m+1) Z(m/T) e^(m zp/T), finite as T^3/lambda is, each term below the one
    # before at mu >= T/2, up to one below 2^-60 N there
    x_lo, ms = math.exp(-0.5 - 2.0 * zp / t_abs), []
    for m in range(1, _POLE_TERMS + 1):
        ms.append((1.0 if m % 2 else -1.0)
                  / (math.expm1(-m / t_abs) ** 2 * -math.expm1(-m * lam / t_abs)))
        if abs(ms[-1]) * x_lo ** m < 2.0 ** -60 * n_particles:
            break
    else:
        return None
    c1 = pt * pt / 6.0 - (2.0 + lam * lam) / 24.0

    def residual(mu):
        mb = mu + zp  # counted from the potential bottom
        total = complex(mb * (mb * mb / 6.0 + c1) / lam, 0.0)
        slope = complex((0.5 * mb * mb + c1) / lam, 0.0)
        # the real parts of sum_n e^(i n theta) (q mu + i (p + r mu^2)) and of its
        # slope, over the k poles (theta = 2 pi mu) and the j poles (2 pi mu/lambda)
        for terms, turns, omega in ((ks, mb, 2.0 * math.pi), (js, mb / lam, 2.0 * math.pi / lam)):
            w1, w = cmath.exp(complex(0.0, 2.0 * math.pi * math.remainder(turns, 1.0))), 1.0
            for n, (q, p, r) in enumerate(terms, 1):
                w *= w1
                c = complex(q * mb, p + r * mb * mb)
                total += w * c
                slope += w * complex(q - n * omega * c.imag, 2.0 * r * mb + n * omega * c.real)
        x, xm = math.exp(-(mb + zp) / t_abs), 1.0
        for m, weight in enumerate(ms, 1):
            xm *= x
            total += weight * xm
            slope -= m * weight * xm / t_abs
        return total.real / n_particles - 1.0, slope.real / n_particles

    return residual, (n_k, len(js), len(ms))


def _pole_mu(n_particles: int, lam: float, t_abs: float, hi: float, start: float):
    """exact_mu from the pole sum, or None where it does not apply (module docstring)."""
    lo = 0.5 * t_abs
    found = _pole_sum(n_particles, lam, t_abs, hi) if lo < hi else None
    if found is None:
        return None
    residual, terms = found
    # the route needs N(T/2) < N, which N(start) < N implies when start >= T/2;
    # the search reuses N(start)
    start = min(max(lo, start), hi)
    known = {start: residual(start)}
    if not (known[start][0] < 0.0 or residual(lo)[0] < 0.0):
        return None
    where = (f"N = {n_particles}, lambda = {lam!r}, t_abs = {t_abs!r} by the pole sum "
             "over k <= {}, j <= {} and m <= {}".format(*terms))
    return _solve(lambda mu: known.pop(mu, None) or residual(mu), lo, hi, start,
                  n_particles, where)


def _solve(constraint, lo: float, hi: float, start: float, n_particles: int, where: str):
    """exact_mu's one root search and residual check; failures name the solve (where)."""
    try:
        mu, residual = monotone_root(constraint, lo, hi, start)
    except NumericsError as exc:
        raise NumericsError(f"mu search for {where}: {exc}") from exc
    if abs(residual) > _OCCUPATION_TOL:
        raise NumericsError(
            f"occupation residual {abs(residual) * n_particles:.3e} particles above "
            f"tolerance at mu = {mu!r} for {where}")
    return mu


def _exact_mu(n_particles: int, lam: float, e_fermi: float, t_abs: float, m_continuum):
    """exact_mu of checked arguments, E_F in hbar*omega_r; m_continuum is
    solve_mu(t_abs / E_F), or None to solve it here."""
    hi = _CUTOFF_SCALE * e_fermi + 2.0
    if t_abs == 0.0:
        base = _rows(lam, hi)
        _count(lam, base, hi)  # exact float counts
        # bisect from the continuum Fermi level: the Nth state's level stays in [lower, upper)
        lower, upper, eps = 0.0, hi, e_fermi - (1.0 + 0.5 * lam)
        while (found := _count(lam, base, eps))[0] != n_particles:
            count, low, high, _ = found
            lower, upper = (high, upper) if count < n_particles else (lower, low)
            if not lower < upper:
                raise DomainError(f"N = {n_particles} leaves a partially filled level at T = 0; "
                                  "the ground state is ambiguous")
            eps = min(0.5 * (lower + upper), math.nextafter(upper, -math.inf))
            base = base[:int(upper / lam) + 2]  # rows above upper hold no state below it
        return 0.5 * (found[1] + found[2])
    lo = -60.0 * t_abs - 1.0  # the lowest level is 0, n_z = p = 0
    try:
        # Newton from the continuum mu with the zero point removed, moved for
        # the constant -(2 + lambda^2)/(24 lambda) of the smooth level density
        t = t_abs / e_fermi
        if m_continuum is None:
            m_continuum = solve_mu(t)
        f2, f1 = _closed_forms((2.0, 1.0), m_continuum / t)
        m_continuum += (2.0 + lam * lam) / (24.0 * e_fermi ** 2 * t) * (f1 / f2)
        start = m_continuum * e_fermi - (1.0 + 0.5 * lam)
    except (DomainError, NumericsError, ZeroDivisionError):  # t rounds to 0 at a subnormal T
        start = lo
    if t_abs >= _POLE_T and (mu := _pole_mu(n_particles, lam, t_abs, hi, start)) is not None:
        return mu
    import numpy as np

    # the level sum: mu <= hi, so every level above the cutoff has (eps - mu)/T > _TAIL_GAP
    cutoff = hi + _TAIL_GAP * t_abs
    if not cutoff < MAX_ENTRIES:  # row 0 alone holds floor(cutoff) + 1 ladder entries
        raise DomainError(f"t_abs = {t_abs!r} at N = {n_particles}, lambda = {lam!r}: the level "
                          f"sum runs up to {cutoff!r}, past the {MAX_ENTRIES} entry cap")
    energies, degs, base, top = _levels(lam, cutoff)  # unsorted: no order needed
    with np.errstate(over="ignore"):  # (eps - E_c)/T is -inf at a subnormal T: e^-inf = 0
        s1, s2, s3 = (s / n_particles for s in _tail_sums(cutoff, t_abs, lam, base, top))
    del base, top
    weights = np.divide(degs, n_particles, out=degs)  # in place
    occ, filled = np.empty_like(energies), np.empty_like(energies)  # four arrays of levels live

    def constraint(mu):
        # occupied fraction - 1 and its slope sum g f (1 - f)/(N T), pairwise,
        # plus the tail sum_j (-1)^(j+1) z^j S_j/N, z = e^((mu - cutoff)/T)
        np.subtract(energies, mu, out=occ)
        np.divide(occ, t_abs, out=occ)
        np.exp(occ, out=occ)  # inf far above mu: 1/(1 + inf) = 0, no NaN
        np.add(occ, 1.0, out=occ)
        np.divide(1.0, occ, out=occ)
        np.multiply(weights, occ, out=filled)
        occupied = float(filled.sum())
        np.subtract(1.0, occ, out=occ)
        np.multiply(filled, occ, out=filled)
        z = math.exp((mu - cutoff) / t_abs)
        return (occupied + z * (s1 - z * (s2 - z * s3)) - 1.0,
                (float(filled.sum()) + z * (s1 - z * (2.0 * s2 - 3.0 * z * s3))) / t_abs)

    where = (f"N = {n_particles}, lambda = {lam!r}, t_abs = {t_abs!r} "
             f"over {energies.size} levels")
    with np.errstate(over="ignore"):  # e^x overflows to inf above mu
        return _solve(constraint, lo, hi, start, n_particles, where)


def exact_central_density(n_closed_shell: int, lam: float = 1.0) -> float:
    """n(0) * sigma^3 of the closed shells 0..K (isotropic trap only): with
    |psi_2m(0)|^2 sigma sqrt(pi) the x^m coefficient of (1 - x)^(-1/2), the
    eigenfunction sum is the x^(K//2) coefficient of (1 - x)^(-5/2)."""
    check_count("n_closed_shell", n_closed_shell)
    if lam != 1.0:
        raise DomainError("the closed-shell central density is implemented for lambda = 1")
    # K + 1 < (6N)^(1/3) < K + 2, so the search starts at or above the top shell K
    estimate = (6.0 * n_closed_shell) ** (1.0 / 3.0)
    if estimate > MAX_SHELL + 2:
        raise DomainError(f"N = {n_closed_shell:.6g} fills shells above the top-shell "
                          f"cap {MAX_SHELL}")
    top = int(estimate)
    while closed_shell_count(top) > n_closed_shell:
        top -= 1
    if closed_shell_count(top) != n_closed_shell:
        raise DomainError(
            f"N = {n_closed_shell} is not a closed-shell count; occupation "
            "of the top shell would be ambiguous")
    m = top // 2
    # C(M + 3/2, M) = C(2M + 3, M + 1)(M + 1)(M + 2)/(3 * 2^(2M + 1)), rounded once
    binomial = math.comb(2 * m + 3, m + 1) * (m + 1) * (m + 2) / (3 << (2 * m + 1))
    return binomial / math.pi ** 1.5


def semiclassical_central_density(n_particles: int, lam: float = 1.0) -> float:
    """Continuum central density n(0) * sigma^3 = (2/sqrt(3) pi^2) sqrt(N*lam)."""
    return _SEMI_N0 * math.sqrt(n_particles * _trap_scales(n_particles, lam)[0])


class ValidityReport(Record, hidden=("radii", "margin", "cell_scale")):
    """Semiclassical self-consistency margins along the cloud radius."""

    radii: np.ndarray
    margin: np.ndarray           # n(r) sigma^3 / (r/sigma)
    cell_scale: np.ndarray       # suggested cell size l/sigma
    shell_thickness_sigma: float  # breakdown estimate N^(-1/6)
    inv_k_fermi_sigma: float      # 1/(K_F sigma), same up to (48 lam)^(1/6)


def validity_report(n_particles: int, lam: float, radii) -> ValidityReport:
    import numpy as np

    rows, shell, inv_kf = validity_table(n_particles, lam, radii)
    s, margin, cell = (np.array(column) for column in zip(*rows))
    return ValidityReport(radii=s, margin=margin, cell_scale=cell,
                          shell_thickness_sigma=shell, inv_k_fermi_sigma=inv_kf)


def breakdown_shell_distance(n_particles: int, lam: float = 1.0) -> float:
    """Distance from the cloud edge, in units of sigma, at which the density
    drops to one particle per quantum volume (n(r) sigma^3 = 1)."""
    lam, _, stretch = _trap_scales(n_particles, lam)
    x = (1.0 / (_SEMI_N0 * math.sqrt(n_particles * lam))) ** (2.0 / 3.0)
    if x >= 1.0:
        raise DomainError(
            f"N = {n_particles} is too small: the whole cloud is below one "
            "particle per quantum volume")
    s_star = math.sqrt(1.0 - x)
    return (1.0 - s_star) * stretch


class ContinuumComparison(Record):
    """Exact vs continuum chemical potential at one (N, lambda, t)."""

    mu_exact: float        # hbar*omega_r units, zero-point suppressed
    mu_continuum: float    # m(t) * E_F in hbar*omega_r units
    zero_point: float      # suppressed offset (1 + lambda/2)
    gap_raw: float         # |mu_exact - mu_continuum| / E_F
    gap_adjusted: float    # |mu_exact + zero_point - mu_continuum| / E_F


def continuum_comparison(n_particles: int, lam: float, t: float) -> ContinuumComparison:
    """Compare the exact level-sum chemical potential with the continuum one.

    The continuum energy variable tracks the oscillator energy measured
    from the potential bottom, so the adjusted gap restores the suppressed
    zero point before differencing.
    """
    lam, e_fermi, _ = _trap_scales(n_particles, lam)
    t = _check_t(t)
    m = solve_mu(t)  # once: (t E_F)/E_F need not round back to t
    mu_ex = _exact_mu(n_particles, lam, e_fermi, t * e_fermi, m)  # finite: solve_mu caps t
    mu_cont = m * e_fermi
    zp = 1.0 + 0.5 * lam
    return ContinuumComparison(
        mu_exact=mu_ex, mu_continuum=mu_cont, zero_point=zp,
        gap_raw=abs(mu_ex - mu_cont) / e_fermi,
        gap_adjusted=abs(mu_ex + zp - mu_cont) / e_fermi,
    )


def counting_check(n_particles: int, lam: float = 1.0):
    """T = 0 state counting: continuum N = E_F^3/(6 lam) vs the discrete
    cumulative count with the zero point restored.  Returns (difference,
    outermost shell degeneracy), counted on the axial rows up to E_F + 1."""
    lam, e_fermi, _ = _trap_scales(n_particles, lam)
    base = _rows(lam, e_fermi + 1.0)
    _count(lam, base, e_fermi + 1.0)  # exact float counts
    count, _, _, edge = _count(lam, base, e_fermi - (1.0 + 0.5 * lam))
    return abs(count - int(n_particles)), edge
