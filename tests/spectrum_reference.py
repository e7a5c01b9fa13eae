"""Loop-form and sorted-spectrum references for the exact oracle.

The oracle computes these sums as array identities; the plain loops and
the sort-and-merge counting they replace stay here so the tests can
compare the two routes term by term.
"""

import math

import numpy as np

import fermigas as fg
from fermigas.errors import DomainError, check_count, check_finite


def dict_spectrum(lam, cutoff):
    """(energies, degeneracies) by planar shells stacked over the axial
    ladder, equal energies merged in a dict keyed by the float energy; a
    level is kept iff its float energy is at or below the cutoff."""
    levels = {}
    for nz in range(int(math.floor(cutoff / lam)) + 2):
        base = lam * nz
        for p in range(max(int(math.floor(cutoff - base)) + 2, 0)):
            e = p + base
            if e <= cutoff:
                levels[e] = levels.get(e, 0) + p + 1
    energies = np.array(sorted(levels), dtype=float)
    return energies, np.array([levels[e] for e in energies], dtype=float)


def sorted_counting_check(n_particles, lam=1.0):
    """counting_check by the sort-and-merge route: build_spectrum's sorted,
    merged levels, a binary search for the threshold, the count below it
    and the degeneracy of the level just above it."""
    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    e_fermi = (6.0 * lam * n_particles) ** (1.0 / 3.0)
    spectrum = fg.build_spectrum(lam, e_fermi + 1.0)
    threshold = e_fermi - (1.0 + 0.5 * lam)
    idx = int(np.searchsorted(spectrum.energies, threshold, side="right"))
    cumulative = int(spectrum.degeneracies[:idx].sum())
    return abs(cumulative - n_particles), int(spectrum.degeneracies[idx])


def sorted_zero_t_mu(n_particles, lam):
    """The T = 0 exact_mu by the sort-and-merge route: build_spectrum's
    sorted, merged levels up to 2^(1/3) E_F + 2, their running state count,
    a binary search for N in it and the midpoint of the gap above."""
    check_count("n_particles", n_particles)
    lam = check_finite("lambda", lam, positive=True)
    e_fermi = (6.0 * lam * n_particles) ** (1.0 / 3.0)
    spectrum = fg.build_spectrum(lam, 2.0 ** (1.0 / 3.0) * e_fermi + 2.0)
    cumulative = np.cumsum(spectrum.degeneracies)
    idx = int(np.searchsorted(cumulative, n_particles))
    if cumulative[idx] != n_particles:
        raise DomainError(f"N = {n_particles} leaves a partially filled level at T = 0; "
                          "the ground state is ambiguous")
    return float(0.5 * (spectrum.energies[idx] + spectrum.energies[idx + 1]))


def origin_weight(m):
    """|psi_2m(0)|^2 * sigma * sqrt(pi) for the 1-d oscillator, by recurrence."""
    w = 1.0
    for i in range(1, m + 1):
        w *= (2 * i - 1) / (2 * i)
    return w


def eigenfunction_origin_density(n):
    """|psi_n(0)|^2 * sigma * sqrt(pi); zero for odd n by parity."""
    if n % 2 == 1:
        return 0.0
    return origin_weight(n // 2)


def summed_central_density(top):
    """n(0) * sigma^3 of the isotropic shells 0..top by the double loop over
    even (n_x, n_y) and a vector sum over even n_z."""
    w = np.array([origin_weight(m) for m in range(top // 2 + 1)])
    total = 0.0
    for nx in range(0, top + 1, 2):
        for ny in range(0, top + 1 - nx, 2):
            nz = np.arange(0, top - nx - ny + 1, 2)
            total += w[nx // 2] * w[ny // 2] * float(np.sum(w[nz // 2]))
    return total / math.pi ** 1.5
