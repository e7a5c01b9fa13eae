"""Exact discrete-spectrum reference computations.

The single-particle levels are eps = n_x + n_y + lambda*n_z in units of
hbar*omega_r, zero-point suppressed.  Row n_z holds p + 1 states at
lambda*n_z + p, p = n_x + n_y.  Its base splits exactly into an integer a
and a fraction frac, so the row lies on the ladder frac + k, k an integer,
with fl(frac + k) == fl(lambda*n_z + p).  Rows with equal frac share a
ladder and each adds a ramp k - a + 1 of degeneracies: one np.bincount of
their second differences and two running sums give them all, with no
per-cell array.  Integer lambda has one ladder, the (n+1)(n+2)/2 shells of
the isotropic trap; irrational lambda has one per row.  build_spectrum
sorts the entries and merges equal energies; exact_mu sums over them
unsorted.  Work and memory grow with the entries and the axial rows, capped
at MAX_ENTRIES and MAX_ROWS before any per-entry or per-row array; a
spectrum of 2^53 states or more is refused, so every count is an exact float.

exact_mu solves sum_levels (g/N) f((eps - mu)/T) = 1 by one monotone_root
search on the whole spectrum's bracket.  Newton starts at the continuum
estimate solve_mu(t) E_F - (1 + lambda/2), or at the bracket's low end if
solve_mu fails; the estimate picks only the start.  The L levels are
exponentiated once, b = e^((eps - ref)/T) at ref = the start (again only
if a step lands more than _REUSE_SPAN T from ref), and each Newton step
is the rescale u = b e^((ref - mu)/T), f = 1/(1 + u) and numpy's pairwise
sums of the positive terms (g/N) f and (g/N) f (1 - f), in buffers
allocated once.  The occupied fraction is within
(X + 2|d| + (log2(L) + 27)/2) em of exact, relative, em = 2^-52, with
d = (mu - ref)/T, |d| <= 30, and X = sum g f (1 - f)|x| / sum g f with
x = (eps - mu)/T, below 0.9 at t <= 0.2 (README "Numerics" derives it):
5.4e-15 at the 840,000 levels of N = 1e6, lambda = sqrt 8.  No BLAS routine
runs, so the results do not depend on the BLAS library or its thread count.

These sums validate the continuum treatment.  Note the continuum density
of states is asymptotic to the spectrum counted from the bottom of the
potential, so continuum comparisons are reported both raw and with the
suppressed zero-point energy (1 + lambda/2) restored; the adjusted gap is
the meaningful convergence measure.

numpy is imported by the functions that enumerate the spectrum, so the
semiclassical estimates (validity_table and the other closed forms) run
without it; validity_report wraps validity_table's floats in arrays.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericsError, check_count, check_finite, to_float
from .record import Record
from .thermo import _check_t, monotone_root, solve_mu

MAX_ENTRIES = 5_000_000
# an axial row costs 130-165 transient bytes, four entries' worth, so this
# holds the per-row arrays to the ~191 MB peak at the entry cap
MAX_ROWS = MAX_ENTRIES // 4
# top closed shell of exact_central_density, whose exact integer binomial
# grows faster than linearly in the shell: 9.4 s at K = 1e6, 3.5 ms at 1e4
MAX_SHELL = 1_000_000

# exact_mu enumerates levels up to _CUTOFF_SCALE E_F + 36 t_abs + 2, which
# holds about twice N states and leaves the occupation below exp(-36) there
_CUTOFF_SCALE = 2.0 ** (1.0 / 3.0)

# largest |occupied fraction - 1| that exact_mu accepts
_OCCUPATION_TOL = 1e-10

# exact_mu reuses e^((eps - ref)/T) while |mu - ref| <= _REUSE_SPAN T: a span
# below 709 keeps math.exp((ref - mu)/T) finite; the rounding grows with it
_REUSE_SPAN = 30.0

_SEMI_N0 = 2.0 / (math.sqrt(3.0) * math.pi ** 2)  # prefactor of sqrt(N*lam)


class DiscreteSpectrum(Record, hidden=("energies", "degeneracies")):
    """Sorted levels (energy in hbar*omega_r, degeneracy) below the cutoff."""

    lam: float
    cutoff: float
    energies: np.ndarray
    degeneracies: np.ndarray

    @property
    def state_count(self) -> int:
        return int(self.degeneracies.sum())


def _ladders(lam: float, cutoff: float):
    """Every level with energy <= cutoff as unsorted (energies, degeneracies)
    arrays with one entry per k of each ladder frac + k, k an integer; two
    ladders may share a float energy."""
    import numpy as np

    lam = check_finite("lambda", lam, positive=True)
    cutoff = check_finite("cutoff", cutoff)
    where = f"lambda = {lam!r}, cutoff = {cutoff!r}"
    if cutoff / lam >= MAX_ROWS:  # floor(cutoff/lam) + 1 axial rows > MAX_ROWS
        raise DomainError(f"{where}: the spectrum has {np.floor(cutoff / lam) + 1.0:.7g} "
                          f"axial rows, above the {MAX_ROWS} row cap")
    base = lam * np.arange(math.floor(cutoff / lam) + 1)
    top = np.floor(cutoff - base)  # row n_z holds p = 0..top
    rows = top >= 0.0  # the last row's base can round to above the cutoff
    base, top = base[rows], top[rows]
    # twice the state count: a sum of even integers, exact below 2^54
    states = float(((top + 1.0) * (top + 2.0)).sum()) / 2.0
    if states >= 2.0 ** 53:
        raise DomainError(f"{where}: the spectrum holds {states:.6g} states, at or above "
                          "the 2^53 cap of exact float counts")
    a = np.floor(base)
    frac = base - a  # exact, so fl(frac + (a + p)) == fl(base + p)
    fracs, first, ladder = np.unique(frac, return_index=True, return_inverse=True)
    # ladder j holds k = lo_j..hi_j: its first row has the lowest a and runs
    # past every other row's a, so no k in between is empty
    lo = a[first]
    hi = lo.copy()
    np.maximum.at(hi, ladder, a + top)
    size = hi - lo + 1.0
    start = np.cumsum(size) - size
    total = int(start[-1] + size[-1])
    if total > MAX_ENTRIES:
        raise DomainError(f"{where}: the spectrum has {total} ladder entries, above the "
                          f"{MAX_ENTRIES} entry cap")
    # row n_z adds the ramp k - a + 1 on k = a..a + top: second differences
    # +1 at its first slot, -(top + 2) and +(top + 1) after its last
    at = (start - lo)[ladder] + a
    degs = np.bincount(np.concatenate((at, at + top + 1.0, at + top + 2.0)).astype(np.intp),
                       np.concatenate((np.ones_like(top), -(top + 2.0), top + 1.0)),
                       minlength=total + 2)[:total]
    np.cumsum(degs, out=degs)
    np.cumsum(degs, out=degs)
    # k as a running sum of unit steps that jumps from hi_(j-1) to lo_j
    jump = lo.copy()
    jump[1:] -= hi[:-1]
    energies = np.ones(total)
    energies[start.astype(np.intp)] = jump
    np.cumsum(energies, out=energies)
    energies += np.repeat(fracs, size.astype(np.intp))
    return energies, degs


def build_spectrum(lam: float, cutoff: float) -> DiscreteSpectrum:
    """Exhaustively enumerate all levels with energy <= cutoff."""
    import numpy as np

    lam = check_finite("lambda", lam, positive=True)
    energies, degs = _ladders(lam, cutoff)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    degs = degs[order]
    del order
    starts = np.flatnonzero(np.r_[True, energies[1:] != energies[:-1]])
    degs = np.add.reduceat(degs, starts)
    return DiscreteSpectrum(lam=lam, cutoff=float(cutoff), energies=energies[starts],
                            degeneracies=degs)


def closed_shell_count(n: int) -> int:
    """Particles filling isotropic shells 0..n completely."""
    return (n + 1) * (n + 2) * (n + 3) // 6


def exact_mu(n_particles: int, lam: float, t_abs: float):
    """Chemical potential (hbar*omega_r units) from the exact level sum.

    t_abs is k_B T in units of hbar*omega_r.  At t_abs = 0 the gas must
    fill closed shells; the chemical potential is then reported at the
    midpoint of the gap between the last filled and first empty level.
    """
    check_count("n_particles", n_particles)
    return _exact_mu(n_particles, check_finite("lambda", lam, positive=True),
                     check_finite("t_abs", t_abs), None)


def _exact_mu(n_particles: int, lam: float, t_abs: float, m_continuum):
    """exact_mu of checked arguments; m_continuum is solve_mu(t_abs / E_F), or
    None to solve it here."""
    import numpy as np

    e_fermi_est = (6.0 * lam * n_particles) ** (1.0 / 3.0)
    cutoff = _CUTOFF_SCALE * e_fermi_est + 36.0 * t_abs + 2.0
    if t_abs == 0.0:
        spectrum = build_spectrum(lam, cutoff)
        energies, degs = spectrum.energies, spectrum.degeneracies
    else:
        energies, degs = _ladders(lam, cutoff)  # unsorted: the sums need no order
    states = int(degs.sum())
    if states < n_particles:
        raise DomainError(
            f"cutoff {cutoff:.3g} holds only {states} states for N = {n_particles}")
    if t_abs == 0.0:
        cumulative = np.cumsum(degs)
        idx = int(np.searchsorted(cumulative, n_particles))
        if cumulative[idx] != n_particles:
            raise DomainError(
                f"N = {n_particles} leaves a partially filled level at T = 0; "
                "the ground state is ambiguous")
        return 0.5 * (energies[idx] + energies[idx + 1])

    weights = np.divide(degs, n_particles, out=degs)  # in place
    # e^((eps - mu)/T) = b e^((ref - mu)/T); five arrays of levels live
    b, occ, filled = (np.empty_like(energies) for _ in range(3))
    ref = math.nan

    def constraint(mu):
        # occupied fraction - 1 and its slope sum g f (1 - f)/(N T), pairwise
        nonlocal ref
        if not abs(ref - mu) <= _REUSE_SPAN * t_abs:  # ref is nan at the first call
            ref = mu
            np.subtract(energies, ref, out=b)
            np.divide(b, t_abs, out=b)
            np.exp(b, out=b)  # inf far above mu: 1/(1 + inf) = 0, no NaN
        np.multiply(b, math.exp((ref - mu) / t_abs), out=occ)
        np.add(occ, 1.0, out=occ)
        np.divide(1.0, occ, out=occ)
        np.multiply(weights, occ, out=filled)
        occupied = float(filled.sum())
        np.subtract(1.0, occ, out=occ)
        np.multiply(filled, occ, out=filled)
        return occupied - 1.0, float(filled.sum()) / t_abs

    where = (f"N = {n_particles}, lambda = {lam!r}, t_abs = {t_abs!r} "
             f"over {energies.size} levels")
    lo = float(energies.min()) - 60.0 * t_abs - 1.0
    try:
        # Newton from the continuum mu with the zero point removed
        if m_continuum is None:
            m_continuum = solve_mu(t_abs / e_fermi_est)
        start = m_continuum * e_fermi_est - (1.0 + 0.5 * lam)
    except (DomainError, NumericsError):
        start = lo
    try:
        with np.errstate(over="ignore"):  # e^x overflows to inf above mu
            mu, residual = monotone_root(constraint, lo, float(energies.max()), start)
    except NumericsError as exc:
        raise NumericsError(f"mu search for {where}: {exc}") from exc
    if abs(residual) > _OCCUPATION_TOL:
        raise NumericsError(
            f"occupation residual {abs(residual) * n_particles:.3e} particles above "
            f"tolerance at mu = {mu!r} for {where}")
    return mu


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
    check_count("n_particles", n_particles)
    return _SEMI_N0 * math.sqrt(n_particles * check_finite("lambda", lam, positive=True))


class ValidityReport(Record, hidden=("radii", "margin", "cell_scale")):
    """Semiclassical self-consistency margins along the cloud radius."""

    radii: np.ndarray
    margin: np.ndarray           # n(r) sigma^3 / (r/sigma)
    cell_scale: np.ndarray       # suggested cell size l/sigma
    shell_thickness_sigma: float  # breakdown estimate N^(-1/6)
    inv_k_fermi_sigma: float      # 1/(K_F sigma), same up to (48 lam)^(1/6)


def validity_table(n_particles: int, lam: float, radii) -> tuple:
    """validity_report as floats: ([(s, margin, cell_scale) per radius],
    shell_thickness_sigma, inv_k_fermi_sigma).  The margin is inf at s = 0,
    the cell scale nan at s = 0 and for s >= 1."""
    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    radii = [to_float("radii", r) for r in radii]
    if not radii:
        raise DomainError("need at least one radius")
    if not all(0.0 <= s <= 1.2 for s in radii):  # NaN fails both comparisons
        raise DomainError(f"radii must lie in [0, 1.2], got {radii!r}")
    stretch = (48.0 * n_particles * lam) ** (1.0 / 6.0)
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


def validity_report(n_particles: int, lam: float, radii) -> ValidityReport:
    import numpy as np

    rows, shell, inv_kf = validity_table(n_particles, lam, radii)
    s, margin, cell = (np.array(column) for column in zip(*rows))
    return ValidityReport(radii=s, margin=margin, cell_scale=cell,
                          shell_thickness_sigma=shell, inv_k_fermi_sigma=inv_kf)


def breakdown_shell_distance(n_particles: int, lam: float = 1.0) -> float:
    """Distance from the cloud edge, in units of sigma, at which the density
    drops to one particle per quantum volume (n(r) sigma^3 = 1)."""
    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    x = (1.0 / (_SEMI_N0 * math.sqrt(n_particles * lam))) ** (2.0 / 3.0)
    if x >= 1.0:
        raise DomainError(
            f"N = {n_particles} is too small: the whole cloud is below one "
            "particle per quantum volume")
    s_star = math.sqrt(1.0 - x)
    return (1.0 - s_star) * (48.0 * n_particles * lam) ** (1.0 / 6.0)


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
    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    t = _check_t(t)
    e_fermi = (6.0 * lam * n_particles) ** (1.0 / 3.0)
    m = solve_mu(t)  # once: (t E_F)/E_F need not round back to t
    mu_ex = _exact_mu(n_particles, lam, check_finite("t_abs", t * e_fermi), m)
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
    outermost shell degeneracy)."""
    import numpy as np

    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    e_fermi = (6.0 * lam * n_particles) ** (1.0 / 3.0)
    spectrum = build_spectrum(lam, e_fermi + 1.0)
    zp = 1.0 + 0.5 * lam
    threshold = e_fermi - zp
    idx = int(np.searchsorted(spectrum.energies, threshold, side="right"))
    cumulative = int(spectrum.degeneracies[:idx].sum())
    edge_deg = int(spectrum.degeneracies[min(idx, len(spectrum.energies) - 1)])
    return abs(cumulative - n_particles), edge_deg
