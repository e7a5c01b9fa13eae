import gc
import math
import random
import re
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.optimize import brentq
from scipy.special import expit, gammaln

import fermigas as fg
from conftest import mp_exact_mu
from pole_reference import complex_residual
from fermigas import DomainError, NumericsError, oracle, perturb
from fermigas.thermo import monotone_root
from spectrum_reference import (dict_spectrum, eigenfunction_origin_density, origin_weight,
                                sorted_counting_check, sorted_zero_t_mu, summed_central_density)


@pytest.fixture
def level_sum(monkeypatch):
    """Send exact_mu at every T > 0 down the level sum, never the pole sum."""
    monkeypatch.setattr(oracle, "_POLE_T", math.inf)


def refuse_tail_sums(*args):
    raise AssertionError("the level sum ran")


@pytest.fixture
def pole_sum(monkeypatch):
    """Fail the test if exact_mu at T > 0 runs the level sum, the one caller of _tail_sums."""
    monkeypatch.setattr(oracle, "_tail_sums", refuse_tail_sums)


def test_isotropic_shell_degeneracies():
    sp = fg.build_spectrum(1.0, 2.5)
    assert sp.energies.tolist() == [0.0, 1.0, 2.0]
    assert sp.degeneracies.tolist() == [1.0, 3.0, 6.0]


def test_isotropic_cumulative_count_is_stars_and_bars():
    sp = fg.build_spectrum(1.0, 20.1)
    cumulative = np.cumsum(sp.degeneracies)
    for n in range(21):
        assert cumulative[n] == fg.closed_shell_count(n)


@pytest.mark.parametrize("n", [-1, 2.5, 3.0, math.nan, "3", None])
def test_closed_shell_count_refuses_all_but_non_negative_integers(n):
    with pytest.raises(DomainError, match=rf"^n must be a non-negative integer, got {re.escape(repr(n))}$"):
        fg.closed_shell_count(n)


def test_irrational_anisotropy_keeps_planar_shells_distinct():
    lam = math.sqrt(8.0)
    cutoff = 12.0
    sp = fg.build_spectrum(lam, cutoff)
    pairs = sum(int(math.floor(cutoff - lam * nz)) + 1
                for nz in range(int(math.floor(cutoff / lam)) + 1))
    assert len(sp.energies) == pairs  # no merged degeneracies beyond p-shells


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 1.0, 1.7, 2.0, math.sqrt(8.0), 3.0])
@pytest.mark.parametrize("n_particles", [1, 20, 1_000, 30_000])
@pytest.mark.parametrize("t", [0.0, 0.02, 0.05, 0.2])
def test_spectrum_matches_dict_enumeration(lam, n_particles, t):
    e_fermi = (6.0 * lam * n_particles) ** (1 / 3)
    # past exact_mu's window, which ends 12 t_abs above at most 2^(1/3) E_F + 2
    cutoff = 2 ** (1 / 3) * e_fermi + 36.0 * t * e_fermi + 2.0
    sp = fg.build_spectrum(lam, cutoff)
    energies, degeneracies = dict_spectrum(lam, cutoff)
    assert np.array_equal(sp.energies, energies)
    assert np.array_equal(sp.degeneracies, degeneracies)
    assert sp.state_count == int(degeneracies.sum())


@pytest.mark.parametrize("lam, cutoff", [(1.0 / 3.0, 70.66666666666666),
                                         (math.sqrt(8.0), 17.31370849898476)])
def test_spectrum_at_a_rounded_level_energy_matches_dict_enumeration(lam, cutoff):
    # each cutoff is a level's float energy that a floor of the rounded
    # cutoff/lambda or cutoff - lambda n_z misses (see the tail sums below)
    sp = fg.build_spectrum(lam, cutoff)
    energies, degeneracies = dict_spectrum(lam, cutoff)
    assert cutoff in energies
    assert np.array_equal(sp.energies, energies)
    assert np.array_equal(sp.degeneracies, degeneracies)


def test_cell_cap():
    # a million-state spectrum is fine when it has few cells
    assert fg.build_spectrum(1.0, 200.0).state_count == fg.closed_shell_count(200)
    # 12.5e6 (n_z, p) cells, but one ladder of 5,001 entries
    assert fg.build_spectrum(1.0, 5000.0).energies.size == 5001
    # the T = 0 count's own first point, E_F - (1 + lambda/2), reads 8,171,208 axial rows
    with pytest.raises(DomainError, match="cap"):
        fg.exact_mu(10**7, 1e-7, 0.0)
    # refused before any per-axial-level work: 1e300 levels would never
    # finish, and at 5e-324 the row count cutoff/lambda overflows to inf
    for lam, rows in ((1e-300, re.escape("9.999999999999999e+299")), (5e-324, "inf")):
        with pytest.raises(DomainError, match=rf"^lambda = {lam!r}, cutoff = 1\.0: the spectrum "
                                              rf"has {rows} axial rows, above the 1000000 rows "
                                              "of the 5000000 entry cap"):
            fg.build_spectrum(lam, 1.0)


def test_entry_and_state_caps():
    # 1.77e7 entries, one ladder per axial row
    with pytest.raises(DomainError, match=r"^lambda = 2\.8284271247461903, cutoff = 10000\.0: "
                                          r"the spectrum has 17684439 ladder entries and 3536 "
                                          r"axial rows, above the 5000000 entry cap counting "
                                          r"each row as 4 entries$"):
        fg.build_spectrum(math.sqrt(8.0), 1e4)
    # under each cap alone (4.37e6 entries, 1.25e6 rows), but the per-row and
    # per-entry arrays together would peak near 280 MB; every row holds at
    # least one ladder entry, so it is refused on its rows before the per-row arrays
    with pytest.raises(DomainError, match=r"^lambda = 4\.800385538807578e-06, cutoff = 6\.0: "
                                          r"the spectrum has 1249900 axial rows, above the "
                                          r"1000000 rows of the 5000000 entry cap"):
        fg.build_spectrum(4.800385538807578e-06, 6.0)
    # 400,001 entries but 1.07e16 states, past exact float integers
    with pytest.raises(DomainError, match=r"^lambda = 1\.0, eps = 400000\.0: the spectrum "
                                          r"holds 1\.06668e\+16 states at or below eps, at or "
                                          r"above the 2\^53 cap of exact float counts$"):
        fg.build_spectrum(1.0, 4e5)
    # 9.0001e15 states, just below 2^53, still counted exactly: row 0 holds
    # p <= 300,000 and rows 2q - 1 and 2q hold p <= 300,000 - q
    sp = fg.build_spectrum(0.5, 3e5)
    assert sp.state_count == math.comb(300_002, 2) + 2 * math.comb(300_002, 3)
    # refused on the axial rows before the per-row work: 3.6e7 entries, and
    # 4.95e6 rows of one entry each
    with pytest.raises(DomainError, match=r"^lambda = 0\.001, cutoff = 4999\.0: the spectrum "
                                          r"has 4999001 axial rows, above the 1000000 rows of "
                                          r"the 5000000 entry cap counting each row as 5 "
                                          r"entries$"):
        fg.build_spectrum(0.001, 4999.0)
    with pytest.raises(DomainError, match=r"^lambda = 2e-07, cutoff = 0\.99: the spectrum has "
                                          r"4950001 axial rows, above the 1000000 rows of the "
                                          r"5000000 entry cap counting each row as 5 entries$"):
        fg.build_spectrum(2e-7, 0.99)
    # up to 2^(1/3) E_F + 2 + 36 t_abs the spectrum holds 7.89e6 entries, past
    # the cap; the level sum's window ends 12 t_abs above 2^(1/3) E_F + 2
    lam = math.sqrt(8.0)
    e_fermi = (6.0 * lam * 10_000_000) ** (1 / 3)
    assert fg.exact_mu(10_000_000, lam, 0.3 * e_fermi) == pytest.approx(
        fg.solve_mu(0.3) * e_fermi - (1.0 + 0.5 * lam), rel=1e-3)


def test_entry_cap_refuses_before_the_per_row_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-row work")

    monkeypatch.setattr(np, "arange", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    for lam, cutoff in ((4.800385538807578e-06, 6.0), (0.001, 4999.0), (2e-7, 0.99),
                        (5e-324, 1.0)):
        with pytest.raises(DomainError, match="entry cap"):
            fg.build_spectrum(lam, cutoff)


def test_exact_mu_of_ten_million_isotropic_particles():
    # refused by the former cap at 1.1e7 cells, though the sum has 4,724
    # shells; the reference sums the shells (n+1)(n+2)/2 directly
    n_particles = 10_000_000
    t_abs = 0.3 * (6.0 * n_particles) ** (1 / 3)
    shells = np.arange(int(1.5 * (6.0 * n_particles) ** (1 / 3) + 45.0 * t_abs) + 1)
    degs = (shells + 1.0) * (shells + 2.0) / 2.0

    def excess(mu):
        return math.fsum(degs * expit((mu - shells) / t_abs)) - n_particles

    expected = brentq(excess, -60.0 * t_abs - 1.0, float(shells[-1]), xtol=1e-14,
                      rtol=8.9e-16)
    assert fg.exact_mu(n_particles, 1.0, t_abs) == pytest.approx(expected, rel=1e-14)


# The series sums every level with no cutoff; exact_mu sums the levels more
# than 12 t_abs above its bracket by the same Boltzmann series per axial row,
# so no tail is dropped (a cutoff at 36 t_abs dropped Gamma(3, 36)/2 =
# 1.6e-13 of N, and mu rose by up to 1e-13 to make up for it).
@pytest.mark.parametrize("n_particles, lam, t", [
    (2, 0.5, 50.0), (1_000, 1.0, 5.0), (100_000, 1.0, 2.0), (10_000, 1.0, 0.6),
    (10_000, math.sqrt(8.0), 0.6), (1_000, 0.5, 1.0), (30, 1.0, 1e3),
    # 1.73e16 states, past exact float counts, which only build_spectrum needs
    (10_000_000, 1.0, 100.0), (10_000_000, 0.5, 100.0)])
def test_exact_mu_against_fugacity_series(n_particles, lam, t):
    t_abs = t * (6.0 * lam * n_particles) ** (1 / 3)
    with mp.workdps(40):
        expected = float(mp_exact_mu(n_particles, lam, t_abs))
    assert fg.exact_mu(n_particles, lam, t_abs) == pytest.approx(expected, rel=1e-15)


# the last two cutoffs are float energies of levels that a floor of a rounded
# quotient or difference misses: at lambda = 1/3, 212 lambda rounds down to
# 70.66666666666666, but the cutoff over lambda to 211.99999999999997; at
# lambda = sqrt(8), 4 lambda + 6 rounds to 17.31370849898476, but the cutoff
# less 4 lambda to 5.999999999999998
@pytest.mark.parametrize("lam, cutoff, t_abs", [
    (1.0, 20.5, 0.7), (0.5, 13.0, 3.0), (math.sqrt(8.0), 31.7, 1.3), (2.5, 9.99, 40.0),
    (0.3, 6.2, 0.05), (1.0 / 3.0, 70.66666666666666, 2.0),
    (math.sqrt(8.0), 17.31370849898476, 0.5)])
def test_tail_sums_against_direct_level_sums(lam, cutoff, t_abs):
    # S_j = sum of g e^(-j (eps - cutoff)/T) over every level above the
    # cutoff, summed here level by level until the terms are negligible
    energies, degs, base, top = oracle._ladders(lam, cutoff)
    sums = oracle._tail_sums(cutoff, t_abs, lam, base, top)
    far = cutoff + 50.0 * t_abs + 2.0
    levels = [(lam * nz + p, p + 1.0) for nz in range(int(far / lam) + 1)
              for p in range(int(far - lam * nz) + 1)]
    for j, s_j in enumerate(sums, 1):
        expected = math.fsum(g * math.exp(-j * (eps - cutoff) / t_abs)
                             for eps, g in levels if eps > cutoff)
        assert s_j == pytest.approx(expected, rel=1e-13)
    # the window holds every level whose float energy is at or below the
    # cutoff, and each row's tail starts above it, so each level counts once
    window, inside = {}, {}
    for eps, g in zip(energies.tolist(), degs.tolist()):
        window[eps] = window.get(eps, 0.0) + g
    for eps, g in levels:
        if eps <= cutoff:
            inside[eps] = inside.get(eps, 0.0) + g
    assert window == inside
    assert float(energies.max()) <= cutoff < float((base + top + 1.0).min())
    assert cutoff < lam * top.size


def _bits(spectrum):
    return (spectrum.lam, spectrum.cutoff, spectrum.energies.tobytes(),
            spectrum.degeneracies.tobytes())


def test_returned_arrays_cannot_change_later_results():
    lam = math.sqrt(8.0)
    spectrum = fg.build_spectrum(lam, 25.0)
    expected = _bits(spectrum)
    spectrum.energies[:] = 0.0
    spectrum.degeneracies[:] = 0.0
    assert _bits(fg.build_spectrum(lam, 25.0)) == expected
    t_abs = 0.1 * (6.0 * lam * 300) ** (1 / 3)
    assert fg.exact_mu(300, lam, t_abs) == fg.exact_mu(300, lam, t_abs)


def test_nothing_built_outlives_its_call(monkeypatch, level_sum):
    # build_spectrum and the level sum each enumerate their own ladders, and
    # no array of them stays alive once the results are dropped
    refs, real_ladders = [], oracle._ladders

    def watched(lam, cutoff):
        arrays = real_ladders(lam, cutoff)
        refs.extend(map(weakref.ref, arrays))
        return arrays

    monkeypatch.setattr(oracle, "_ladders", watched)
    lam = math.sqrt(8.0)
    results = [fg.build_spectrum(lam, 60.0), fg.exact_mu(300, lam, 2.5)]
    assert len(refs) == 8
    del results
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * 8


def test_zero_temperature_closed_shells():
    # N = 4 fills shells 0 and 1 (1 + 3 states): gap midpoint 1.5
    assert fg.exact_mu(4, 1.0, 0.0) == 1.5
    # N = 20 fills shells 0..3: gap midpoint 3.5
    mu = fg.exact_mu(20, 1.0, 0.0)
    assert mu == 3.5 and type(mu) is float
    assert type(fg.continuum_comparison(20, 1.0, 0.0).mu_exact) is float


def test_zero_temperature_partial_shell_rejected():
    with pytest.raises(DomainError, match="partial"):
        fg.exact_mu(5, 1.0, 0.0)


def test_zero_temperature_anisotropic_filling():
    # lam = sqrt(8): the first axial excitation sits at 2.828, so N = 6
    # fills the planar shells 0, 1, 2 and the gap midpoint follows
    lam = math.sqrt(8.0)
    assert fg.exact_mu(6, lam, 0.0) == pytest.approx((2.0 + lam) / 2.0, rel=1e-14)


def test_integer_anisotropy_merges_levels():
    # lam = 2: energy 2 collects (p=2, nz=0) and (p=0, nz=1), and so on
    sp = fg.build_spectrum(2.0, 3.0)
    assert sp.energies.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert sp.degeneracies.tolist() == [1.0, 2.0, 4.0, 6.0]


def test_anisotropic_finite_temperature_residual():
    lam = math.sqrt(8.0)
    mu = fg.exact_mu(300, lam, 2.5)
    sp = fg.build_spectrum(lam, (6.0 * lam * 600) ** (1 / 3) + 36.0 * 2.5 + 2.0)
    occ = 1.0 / (np.exp(np.clip((sp.energies - mu) / 2.5, -700, 700)) + 1.0)
    assert abs(float(np.dot(sp.degeneracies, occ)) - 300) <= 1e-10 * 300


def test_anisotropic_continuum_comparison():
    lam = math.sqrt(8.0)
    comp = fg.continuum_comparison(5_000, lam, 0.25)
    assert comp.zero_point == pytest.approx(1.0 + lam / 2.0)
    assert comp.gap_adjusted <= 0.01
    assert comp.gap_raw > comp.gap_adjusted


def test_finite_temperature_occupation_residual():
    spectrum_mu = fg.exact_mu(500, 1.0, 3.0)
    sp = fg.build_spectrum(1.0, (6 * 2 * 500) ** (1 / 3) + 36 * 3.0 + 2.0)
    occ = 1.0 / (np.exp((sp.energies - spectrum_mu) / 3.0) + 1.0)
    assert abs(float(np.dot(sp.degeneracies, occ)) - 500) <= 1e-10 * 500


def reference_levels(n_particles, lam, t_abs):
    """(energies, degeneracies, cutoff): planar shells stacked over the
    axial ladder up to a wider cutoff, 1.5 E_F + 45 T."""
    cutoff = 1.5 * (6.0 * lam * n_particles) ** (1 / 3) + 45.0 * t_abs
    energies, degs = [], []
    for nz in range(int(cutoff / lam) + 1):
        p = np.arange(int(cutoff - lam * nz) + 1)
        energies.append(p + lam * nz)
        degs.append(p + 1.0)
    return np.concatenate(energies), np.concatenate(degs), cutoff


def brentq_exact_mu(n_particles, lam, t_abs):
    """Independent route: reference_levels, scipy's logistic occupation and
    Brent's method."""
    energies, degs, cutoff = reference_levels(n_particles, lam, t_abs)

    def excess(mu):
        return math.fsum(degs * expit((mu - energies) / t_abs)) - n_particles

    return brentq(excess, -60.0 * t_abs - 1.0, cutoff, xtol=1e-14, rtol=8.9e-16)


# (t, N, lambda): the oracle workload's t range [0.02, 0.2], and its largest N
# at the anisotropy with the most levels
BRENTQ_CASES = ([(t, n, lam) for t in (0.02, 0.05, 0.2) for n in (1_000, 10_000)
                 for lam in (0.5, 1.0, math.sqrt(8.0))]
                + [(t, 30_000, math.sqrt(8.0)) for t in (0.02, 0.05, 0.2)])


@pytest.mark.parametrize("t, n_particles, lam", BRENTQ_CASES)
def test_exact_mu_against_brentq_reference(lam, n_particles, t):
    t_abs = t * (6.0 * lam * n_particles) ** (1 / 3)
    assert fg.exact_mu(n_particles, lam, t_abs) == pytest.approx(
        brentq_exact_mu(n_particles, lam, t_abs), rel=1e-14)


def test_occupation_residual_failure_names_the_solve(monkeypatch, level_sum):
    monkeypatch.setattr(oracle, "_OCCUPATION_TOL", -1.0)  # every residual fails
    with pytest.raises(NumericsError, match=r"occupation residual \d\.\d{3}e[-+]\d+ particles "
                                            r"above tolerance at mu = \d+\.\d+ for N = 1000, "
                                            r"lambda = 1\.0, t_abs = 3\.6 over \d+ levels$"):
        fg.exact_mu(1000, 1.0, 3.6)


def test_root_search_failure_names_the_solve(monkeypatch, level_sum):
    def stuck(g, lo, hi, x=None):
        raise NumericsError(f"no convergence in 200 steps on [{lo!r}, {hi!r}]")

    monkeypatch.setattr(oracle, "monotone_root", stuck)
    with pytest.raises(NumericsError, match=r"^mu search for N = 1000, lambda = 0\.5, "
                                            r"t_abs = 2\.0 over \d+ levels: no convergence"):
        fg.exact_mu(1000, 0.5, 2.0)


@pytest.mark.filterwarnings("error")
def test_subnormal_temperature_fails_cleanly():
    # t_abs/E_F rounds to 0: Newton starts at the bracket's low end, the tail's
    # exponents overflow to -inf silently, and the solve refuses its residual
    with pytest.raises(NumericsError, match=r"^occupation residual .* t_abs = 5e-324 over"):
        fg.exact_mu(1000, 1.0, 5e-324)


def test_no_blas_call_in_the_level_sum_or_the_response(monkeypatch, level_sum):
    # a BLAS reduction would make the bits and the CPU cost depend on the
    # BLAS library and its thread count
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    lam = math.sqrt(8.0)
    t_abs = 0.2 * (6.0 * lam * 30_000) ** (1 / 3)
    expected = brentq_exact_mu(30_000, lam, t_abs)
    for name in ("dot", "vdot", "inner", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    assert fg.exact_mu(30_000, lam, t_abs) == pytest.approx(expected, rel=1e-14)
    resp = fg.density_response(fg.PerturbationField(np.full(perturb.GRID_SIZE, 0.05)))
    assert resp.delta_e_fermi == pytest.approx(0.05, rel=1e-14)


def test_level_sum_sorts_nothing(monkeypatch, level_sum):
    # the levels come from integer ladders, so the search needs no order
    def refuse(*args, **kwargs):
        raise AssertionError("sort")

    cases = [(lam, 0.2 * (6.0 * lam * 30_000) ** (1 / 3)) for lam in (0.5, math.sqrt(8.0))]
    expected = [brentq_exact_mu(30_000, lam, t_abs) for lam, t_abs in cases]
    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    for (lam, t_abs), mu in zip(cases, expected):
        assert fg.exact_mu(30_000, lam, t_abs) == pytest.approx(mu, rel=1e-14)


def test_constraint_evaluations_per_solve(monkeypatch, level_sum):
    # each solve enumerates the ladders once, each constraint evaluation
    # exponentiates the levels once, and each solve the tail's axial rows once
    evaluations, exp_sizes, shapes = [], [], []

    def counting(g, lo, hi, x=None):
        def counted(mu):
            evaluations.append(mu)
            return g(mu)
        return monotone_root(counted, lo, hi, x)

    real_exp, real_ladders = np.exp, oracle._ladders

    def counting_exp(x, *args, **kwargs):
        exp_sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    def recording_ladders(lam, cutoff):
        energies, degs, base, top = real_ladders(lam, cutoff)
        shapes.append((energies.size, top.size))
        return energies, degs, base, top

    monkeypatch.setattr(oracle, "monotone_root", counting)
    monkeypatch.setattr(oracle, "_ladders", recording_ladders)
    monkeypatch.setattr(np, "exp", counting_exp)
    for t, n_particles, lam in BRENTQ_CASES:
        exp_sizes.clear()
        shapes.clear()
        steps = len(evaluations)
        fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
        steps = len(evaluations) - steps
        (levels, rows), = shapes
        assert sorted(exp_sizes) == sorted([levels] * steps + [rows])
    assert len(evaluations) / len(BRENTQ_CASES) <= 3.0


# a float guess is the continuum mu itself; ("spans", k) starts Newton
# 30 k T from the root, on either side
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("guess", [0.0, 10.0, math.nan, DomainError] + [
    pytest.param(("spans", k), id=f"start-{k:+g}-spans") for k in (-2.0, -0.5, 0.5, 2.0)])
def test_continuum_guess_never_decides_the_answer(monkeypatch, guess, level_sum):
    cases = [(n, lam, t * (6.0 * lam * n) ** (1 / 3)) for t, n, lam in BRENTQ_CASES]
    expected = [fg.exact_mu(*case) for case in cases]
    start = None

    def solve_mu(t):
        if guess is DomainError:
            raise DomainError(f"no continuum mu at t = {t!r}")
        return guess if start is None else start

    monkeypatch.setattr(oracle, "solve_mu", solve_mu)
    for (n_particles, lam, t_abs), mu0 in zip(cases, expected):
        if isinstance(guess, tuple):  # exact_mu starts at m E_F - (1 + lambda/2)
            start = ((mu0 + guess[1] * 30.0 * t_abs + 1.0 + 0.5 * lam)
                     / (6.0 * lam * n_particles) ** (1 / 3))
        mu = fg.exact_mu(n_particles, lam, t_abs)
        assert abs(mu - mu0) <= 4.0 * math.ulp(mu0)
        sp = fg.build_spectrum(lam, 1.5 * (6.0 * lam * n_particles) ** (1 / 3) + 45.0 * t_abs)
        occupied = math.fsum(sp.degeneracies * expit((mu - sp.energies) / t_abs))
        assert abs(occupied - n_particles) <= 1e-10 * n_particles


@pytest.mark.parametrize("guess", [None, 0.0, 10.0, math.nan, DomainError])
def test_one_root_search_per_solve(monkeypatch, guess, level_sum):
    # however good or bad the continuum guess, exact_mu searches once
    calls = []

    def counting(g, lo, hi, x=None):
        calls.append(x)
        return monotone_root(g, lo, hi, x)

    def solve_mu(t):
        if guess is DomainError:
            raise DomainError(f"no continuum mu at t = {t!r}")
        return guess

    monkeypatch.setattr(oracle, "monotone_root", counting)
    if guess is not None:
        monkeypatch.setattr(oracle, "solve_mu", solve_mu)
    for t, n_particles, lam in BRENTQ_CASES:
        calls.clear()
        fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
        assert len(calls) == 1


# the pole route's twins of the two tests above, and its N(mu) evaluations:
# every BRENTQ_CASES input has T >= 0.29 hbar omega_r and takes the pole sum
@pytest.mark.parametrize("guess", [None, 0.0, 10.0, math.nan, DomainError])
def test_pole_route_one_root_search_per_solve(monkeypatch, guess, pole_sum):
    test_one_root_search_per_solve(monkeypatch, guess, None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("guess", [0.0, 10.0, math.nan, DomainError] + [
    pytest.param(("spans", k), id=f"start-{k:+g}-spans") for k in (-2.0, -0.5, 0.5, 2.0)])
def test_pole_route_guess_never_decides_the_answer(monkeypatch, guess, pole_sum):
    test_continuum_guess_never_decides_the_answer(monkeypatch, guess, None)


def spy_pole_sum(monkeypatch):
    """The list that each later evaluation of the pole sum adds its mu/T to."""
    evaluations, pole_sum = [], oracle._pole_sum

    def spied(n_particles, lam, t_abs, hi):
        found = pole_sum(n_particles, lam, t_abs, hi)
        if found is None:
            return None

        def residual(mu):
            evaluations.append(mu / t_abs)
            return found[0](mu)
        return (residual, *found[1:])

    monkeypatch.setattr(oracle, "_pole_sum", spied)
    return evaluations


def test_pole_route_evaluations_per_solve(monkeypatch, pole_sum):
    # the one search starts at the continuum estimate and evaluates T/2 only if a Newton
    # step would leave the bracket across it, so no evaluation lies below T/2
    evaluations = spy_pole_sum(monkeypatch)
    for t, n_particles, lam in BRENTQ_CASES:
        fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
    assert min(evaluations) >= 0.5
    assert len(evaluations) / len(BRENTQ_CASES) <= 4.0


def test_pole_route_reads_its_share_where_it_solved(monkeypatch, pole_sum):
    # the share that the spread gate reads is the residual's at its last
    # evaluation, which monotone_root makes at the mu it returns
    solves, real = [], oracle._pole_sum

    def spied(*args):
        found = real(*args)
        evaluated = []

        def residual(mu):
            evaluated.append(mu)
            return found[0](mu)
        solves.append((evaluated, found))
        return (residual, *found[1:])

    monkeypatch.setattr(oracle, "_pole_sum", spied)
    rng = random.Random(48)
    cases = [(n, lam, t) for t, n, lam in BRENTQ_CASES] + [
        (round(math.exp(rng.uniform(math.log(1e3), math.log(3e4)))),  # the oracle workload's
         rng.choice([0.5, 1.0, math.sqrt(8.0)]), rng.uniform(0.02, 0.2)) for _ in range(30)]
    for n_particles, lam, t in cases:
        solves.clear()
        mu = fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
        (evaluated, (residual, _, share)), = solves
        assert evaluated[-1] == mu, (n_particles, lam, t)
        at_root = share[0]
        residual(mu)
        assert share[0] == at_root, (n_particles, lam, t)


def test_pole_route_builds_few_reflection_weights(monkeypatch, pole_sum):
    # a weight costs two expm1 calls; a solve builds 1 to 8 weights on these 30
    # inputs, where the full sum down to 2^-60 N at T/2 builds 5 to 35
    calls = []

    def expm1(x):
        calls.append(x)
        return math.expm1(x)

    monkeypatch.setattr(oracle, "math", SimpleNamespace(**{
        name: getattr(math, name) for name in dir(math) if not name.startswith("_")}))
    monkeypatch.setattr(oracle.math, "expm1", expm1)
    rng = random.Random(40)
    weights = []
    for _ in range(30):  # the oracle workload's ranges
        n_particles = round(math.exp(rng.uniform(math.log(1e3), math.log(3e4))))
        lam, t = rng.choice([0.5, 1.0, math.sqrt(8.0)]), rng.uniform(0.02, 0.2)
        calls.clear()
        fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
        weights.append(len(calls) / 2)
    assert max(weights) <= 16


# pole-route inputs with mu_b/T >= 2, and the mu that the full reflection sum
# (every term down to 2^-60 N at T/2) gave them: T from 0.1 to 1e5 hbar omega_r
# (from T = 1e3 up, E_F >= 2T needs N past 1e9) and N = 1e9, lambda = sqrt 8,
# t = 0.1
POLE_BITS = [
    (3, 1 / 3, 0.1, "0x1.893e5f1308446p-1"),
    (1, 0.5, 0.18233480008684413, "0x1.cbc19d3396d7cp-3"),
    (1, 1.0, 0.33245979322709407, "0x1.017b709618a1bp-2"),
    (17, math.sqrt(8.0), 0.6061898993497574, "0x1.08a57354d00b3p+2"),
    (18, math.pi, 1.1052951411260215, "0x1.fc23d29a5dda5p+1"),
    (44, 10.0, 2.015337685941733, "0x1.dd50440344b96p+2"),
    (2990, 1 / 3, 3.67466194073669, "0x1.d1defae092f9bp+3"),
    (7177, 0.5, 6.700187503509587, "0x1.54fe70d5483d5p+4"),
    (3065625, 1.0, 12.216773489967919, "0x1.049cba0f95ea6p+8"),
    (29869574, math.sqrt(8.0), 22.275429519995587, "0x1.8c70278c8d905p+9"),
    (216876, math.pi, 40.615859883769794, "0x1.eee3061a8fa48p+6"),
    (2405875, 10.0, 74.05684692262435, "0x1.e43e9fd052e40p+8"),
    (96773696, 1 / 3, 135.03140378698737, "0x1.da5efe1b2845ap+8"),
    (569956948442, 0.5, 246.20924014946254, "0x1.751fac7155b8dp+13"),
    (4976100404, 1.0, 448.9251258218603, "0x1.68ec3cd6df23bp+11"),
    (2952515045, math.sqrt(8.0), 818.546730706903, "0x1.8247a02dfcaa6p+11"),
    (297010505123, math.pi, 1492.4955450518291, "0x1.0ef537fa39b36p+14"),
    (14559449364, 10.0, 2721.3387683753085, "0x1.b7eec6b1d350ep+12"),
    (3022085227921, 1 / 3, 4961.947603002908, "0x1.afe5b22705b84p+13"),
    (10590887917442898, 0.5, 9047.357242349293, "0x1.3478c7d92fb66p+18"),
    (37490484721824232, 1.0, 16496.480740980205, "0x1.283ce4fbd2740p+19"),
    (317372095303392, math.sqrt(8.0), 30078.82518043102, "0x1.35494afd2dda0p+17"),
    (386284170240634, math.pi, 54844.16576121015, "0x1.1826c7ad73c2ap+17"),
    (8187221945257658, 10.0, 100000.0, "0x1.6ced8f052d674p+19"),
    (1_000_000_000, math.sqrt(8.0), 256.979658685065, "0x1.365bdeca94da3p+11"),
]


def test_pole_route_keeps_its_bits(pole_sum):
    for n_particles, lam, t_abs, mu in POLE_BITS:
        assert fg.exact_mu(n_particles, lam, t_abs).hex() == mu, (n_particles, lam, t_abs)


def test_pole_residual_has_the_bits_of_complex_arithmetic():
    # triple poles at lambda = 0.5, 1, 2 and 10, many j poles at 1/3, sqrt 8 and
    # pi; value and slope at 50 mu from T/2 to the bracket end hi
    checked = 0
    for lam in (0.5, 1.0, 2.0, 10.0, 1.0 / 3.0, math.sqrt(8.0), math.pi):
        for t_abs in np.geomspace(0.1, 1e3, 9).tolist():
            for n_particles in (10, 10_000, 10_000_000, 10_000_000_000):
                hi = oracle._upper(n_particles, lam, oracle._trap_scales(n_particles, lam)[1], 2)
                found = oracle._pole_sum(n_particles, lam, t_abs, hi)
                if found is None or not 0.5 * t_abs < hi:
                    continue
                residual = found[0]
                twin = complex_residual(residual)
                for mu in np.linspace(0.5 * t_abs, hi, 50).tolist():
                    got, want = residual(mu), twin(mu)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (
                        n_particles, lam, t_abs, mu)
                checked += 1
    assert checked >= 180


def test_pole_route_declines_where_reflections_cancel_the_cubic():
    # at mu/T = 0.54 reflection terms of 0.39 N cancel most of the cubic, and
    # the pole sum's mu leaves 6.1 ulp of N; the level sum's leaves 0.21
    n_particles, lam = 38497, 1.0 / 3.0
    t_abs = 0.4775 * (6.0 * lam * n_particles) ** (1 / 3)
    mu = fg.exact_mu(n_particles, lam, t_abs)
    energies, degs, _ = reference_levels(n_particles, lam, t_abs)
    excess = math.fsum(np.append(degs * expit((mu - energies) / t_abs), -n_particles))
    assert abs(excess) <= math.ulp(n_particles)


def test_pole_mu_stands_past_the_level_sums_entry_cap(monkeypatch):
    # reflection terms of 0.35 N at the root send this input to the level sum,
    # whose spectrum passes the entry cap: the pole sum's mu is the answer
    n_particles, lam = 30_000_000, math.pi
    t_abs = 0.47 * (6.0 * lam * n_particles) ** (1 / 3)
    calls, ladders = [], oracle._ladders

    def spy(*args):
        calls.append(args)
        return ladders(*args)

    monkeypatch.setattr(oracle, "_ladders", spy)
    mu = fg.exact_mu(n_particles, lam, t_abs)
    assert len(calls) == 1
    monkeypatch.setattr(oracle, "_POLE_SPREAD", math.inf)
    assert mu == fg.exact_mu(n_particles, lam, t_abs)
    assert len(calls) == 1
    monkeypatch.setattr(oracle, "_POLE_T", math.inf)
    with pytest.raises(DomainError, match="entry cap"):
        fg.exact_mu(n_particles, lam, t_abs)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, math.sqrt(8.0), math.pi])
def test_pole_sum_agrees_with_the_level_sum(monkeypatch, lam):
    cases = [(n, t_abs) for n in (1_000, 10_000, 100_000) for t_abs in (0.1, 0.17, 0.3, 0.55, 1.0)]
    tail_sums = oracle._tail_sums
    monkeypatch.setattr(oracle, "_tail_sums", refuse_tail_sums)
    poles = [fg.exact_mu(n, lam, t_abs) for n, t_abs in cases]
    monkeypatch.setattr(oracle, "_tail_sums", tail_sums)
    monkeypatch.setattr(oracle, "_POLE_T", math.inf)
    for (n, t_abs), mu in zip(cases, poles):
        assert mu == pytest.approx(fg.exact_mu(n, lam, t_abs), rel=5e-15), (n, t_abs)


# at these lambda some k lambda round to an integer j, where the k pole and
# the j pole merge: the j terms must skip exactly those
@pytest.mark.parametrize("lam", [1.0 / 3.0, 0.1, 2.0 / 3.0, 1.5])
def test_pole_count_against_an_mpmath_level_sum(lam):
    for t_abs in (0.1, 0.5):
        for mu in (4.0, 9.5):
            with mp.workdps(25):
                count = slope = mp.mpf(0)
                for nz in range(int((mu + 50.0 * t_abs) / lam) + 1):
                    for p in range(int(mu + 50.0 * t_abs - lam * nz) + 1):
                        f = 1 / (1 + mp.exp((mp.mpf(lam) * nz + p - mu) / t_abs))
                        count += (p + 1) * f
                        slope += (p + 1) * f * (1 - f) / t_abs
            residual, n_k, _ = oracle._pole_sum(float(count), lam, t_abs, mu)
            if t_abs == 0.1:  # a merged pair is kept
                assert any((k * lam).is_integer() for k in range(1, n_k + 1))
            relative, rate = residual(mu)
            assert abs(relative) <= 1e-15, (t_abs, mu)
            assert rate * float(count) == pytest.approx(float(slope), rel=1e-14), (t_abs, mu)


def test_exact_mu_of_a_billion_isotropic_particles():
    # the pole sum's cost does not grow with N; the reference sums the
    # 10,902 shells (n+1)(n+2)/2 directly
    n_particles = 1_000_000_000
    t_abs = 0.1 * (6.0 * n_particles) ** (1 / 3)
    shells = np.arange(int(1.5 * (6.0 * n_particles) ** (1 / 3) + 45.0 * t_abs) + 1)
    degs = (shells + 1.0) * (shells + 2.0) / 2.0

    def excess(mu):
        return math.fsum(degs * expit((mu - shells) / t_abs)) - n_particles

    expected = brentq(excess, -60.0 * t_abs - 1.0, float(shells[-1]), xtol=1e-14,
                      rtol=8.9e-16)
    assert fg.exact_mu(n_particles, 1.0, t_abs) == pytest.approx(expected, rel=1e-14)


def test_pole_sum_answers_past_the_entry_cap(monkeypatch):
    lam = math.sqrt(8.0)
    e_fermi = (6.0 * lam * 1e9) ** (1 / 3)
    mu = fg.exact_mu(1_000_000_000, lam, 0.1 * e_fermi)
    assert mu == pytest.approx(fg.solve_mu(0.1) * e_fermi - (1.0 + 0.5 * lam), rel=1e-5)
    monkeypatch.setattr(oracle, "_POLE_T", math.inf)
    with pytest.raises(DomainError, match="entry cap"):
        fg.exact_mu(1_000_000_000, lam, 0.1 * e_fermi)


@pytest.mark.parametrize("n_particles, t", [(1_000, 5.0), (100_000, 2.0)])
def test_classical_input_takes_the_level_sum(monkeypatch, n_particles, t):
    # the root lies below T/2, where the pole sum is not evaluated
    calls, tail_sums = [], oracle._tail_sums

    def spy(*args):
        calls.append(args)
        return tail_sums(*args)

    monkeypatch.setattr(oracle, "_tail_sums", spy)
    lows = spy_pole_sum(monkeypatch)
    t_abs = t * (6.0 * n_particles) ** (1 / 3)
    with mp.workdps(40):
        expected = float(mp_exact_mu(n_particles, 1.0, t_abs))
    assert fg.exact_mu(n_particles, 1.0, t_abs) == pytest.approx(expected, rel=1e-15)
    assert len(calls) == 1
    assert all(x >= 0.5 for x in lows)


def test_clamped_start_evaluates_the_pole_sum_once(monkeypatch):
    # the continuum start lies below T/2, so N(T/2) is the route's one evaluation
    evaluations = spy_pole_sum(monkeypatch)
    fg.exact_mu(1_000, 1.0, 5.0 * 6.0 ** (1 / 3))
    assert evaluations == [0.5]


@pytest.mark.parametrize("n_particles, lam, t_abs", [
    pytest.param(1_000, 60.0, 0.1, id="reach"),
    pytest.param(1_000, 0.49999999999, 0.05 * (6.0 * 0.49999999999 * 1_000) ** (1 / 3),
                 id="shell-terms"),
])
def test_pole_route_gates_leave_the_level_sums_answer(monkeypatch, n_particles, lam, t_abs):
    # reach: (reach + 1)(1 + lambda) = 1,411 is past the 1,000 terms; shell terms:
    # even k lambda fall just short of integers, and those near-merged poles outweigh N
    found, pole_sum = [], oracle._pole_sum
    monkeypatch.setattr(oracle, "_pole_sum", lambda *args: found.append(pole_sum(*args)))
    mu = fg.exact_mu(n_particles, lam, t_abs)
    assert found == [None]
    monkeypatch.setattr(oracle, "_POLE_T", math.inf)
    assert mu.hex() == fg.exact_mu(n_particles, lam, t_abs).hex()


@given(log_n=st.floats(0.0, 300.0), log_lam=st.floats(-300.0, 8.0), share=st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_last_reflection_term_at_half_t_is_below_the_sum_stop(log_n, log_lam, share):
    # the pole sum adds reflection terms until they fall under 2^-60 N, and has room
    # for _POLE_TERMS of them: the last, at mu = T/2, where terms are largest, is
    # already below that wherever the route runs (T/2 < hi), so it needs no gate
    n_particles, lam = float(round(10.0 ** log_n)), 10.0 ** log_lam
    assume(math.isfinite(48.0 * n_particles * lam))
    hi = oracle._upper(n_particles, lam, oracle._trap_scales(n_particles, lam)[1], 2)
    t_abs = oracle._POLE_T * (2.0 * hi / oracle._POLE_T) ** share  # log-uniform up to 2 hi
    assume(0.5 * t_abs < hi)
    m = oracle._POLE_TERMS
    with mp.workdps(30):
        t, lm = mp.mpf(t_abs), mp.mpf(lam)
        weight = 1 / (mp.expm1(-m / t) ** 2 * -mp.expm1(-m * lm / t))
        term = weight * mp.exp(-m * (0.5 + (2 + lm) / t))  # x_lo = e^(-1/2 - (2 + lambda)/T)
        assert term < mp.mpf(2) ** -60 * n_particles, (n_particles, lam, t_abs)


# a pole search that fails leaves mu to the level sum: a residual that only the
# pole route's check refuses, a root below T/2 (N(T/2) >= N), or a search that
# raises; at lambda = sqrt 8, t = 0.3 the pole route's own mu is 2 ulp off
@pytest.mark.parametrize("failure", ["residual", "root-below-half-t", "search-raises"])
def test_failed_pole_search_defers_to_the_level_sum(monkeypatch, failure):
    lam, t = (1.0, 5.0) if failure == "root-below-half-t" else (math.sqrt(8.0), 0.3)
    n_particles, t_abs = 1_000, t * (6.0 * lam * 1_000) ** (1 / 3)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_POLE_T", math.inf)
        expected = fg.exact_mu(n_particles, lam, t_abs)
    if failure != "root-below-half-t":
        assert fg.exact_mu(n_particles, lam, t_abs) != expected
    lows = []

    def failing(g, lo, hi, x=None):
        lows.append(lo)
        if lo == 0.5 * t_abs and failure == "search-raises":
            raise NumericsError(f"no convergence in 200 steps on [{lo!r}, {hi!r}]")
        mu, residual = monotone_root(g, lo, hi, x)
        if lo == 0.5 * t_abs and failure == "residual":
            residual = 2.0 * oracle._OCCUPATION_TOL
        return mu, residual

    monkeypatch.setattr(oracle, "monotone_root", failing)
    assert fg.exact_mu(n_particles, lam, t_abs).hex() == expected.hex()
    assert lows == [0.5 * t_abs, -60.0 * t_abs - 1.0]  # the pole search, then the level sum's


def test_both_routes_failing_names_the_level_sum(monkeypatch):
    lows = []

    def recording(g, lo, hi, x=None):
        lows.append(lo)
        return monotone_root(g, lo, hi, x)

    def stuck(g, lo, hi, x=None):
        lows.append(lo)
        raise NumericsError(f"no convergence in 200 steps on [{lo!r}, {hi!r}]")

    monkeypatch.setattr(oracle, "monotone_root", stuck)
    with pytest.raises(NumericsError, match=r"^mu search for N = 1000, lambda = 0\.5, "
                                            r"t_abs = 2\.0 over \d+ levels: no convergence"):
        fg.exact_mu(1000, 0.5, 2.0)
    assert lows == [1.0, -121.0]  # the pole search, then the level sum's
    lows.clear()
    monkeypatch.setattr(oracle, "monotone_root", recording)
    monkeypatch.setattr(oracle, "_OCCUPATION_TOL", -1.0)  # every residual fails
    with pytest.raises(NumericsError, match=r"occupation residual \d\.\d{3}e[-+]\d+ particles "
                                            r"above tolerance at mu = \d+\.\d+ for N = 1000, "
                                            r"lambda = 1\.0, t_abs = 3\.6 over \d+ levels$"):
        fg.exact_mu(1000, 1.0, 3.6)
    assert lows == [1.8, -217.0]


@pytest.mark.parametrize("lam", [1.0, math.sqrt(8.0)])
def test_exact_mu_at_readme_particle_number(lam):
    t_abs = 0.2 * (6.0 * lam * 100_000) ** (1 / 3)
    assert fg.exact_mu(100_000, lam, t_abs) == pytest.approx(
        brentq_exact_mu(100_000, lam, t_abs), rel=1e-14)


def test_continuum_comparison_at_acceptance_point():
    comp = fg.continuum_comparison(10_000, 1.0, 0.2)
    assert comp.gap_adjusted <= 0.01
    # the raw gap carries the suppressed zero point, about (1 + lam/2)/E_F
    assert 0.02 <= comp.gap_raw <= 0.06
    assert comp.zero_point == 1.5


def test_continuum_comparison_solves_mu_once(monkeypatch):
    # the cases include t whose t_abs = t E_F does not divide back to t, where
    # exact_mu's own continuum estimate solve_mu(t_abs / E_F) would miss the cache
    cases = [(n, lam, t) for n in (1_000, 3_217) for lam in (0.5, math.sqrt(8.0))
             for t in (0.03, 0.1, 0.17)]
    assert any(t * e / e != t for e, t in
               (((6.0 * lam * n) ** (1 / 3), t) for n, lam, t in cases))
    calls = []

    def solve_mu(t):
        calls.append(t)
        return fg.solve_mu(t)

    monkeypatch.setattr(oracle, "solve_mu", solve_mu)
    for n, lam, t in cases:
        calls.clear()
        comp = fg.continuum_comparison(n, lam, t)
        assert calls == [t]
        assert comp.mu_continuum == fg.solve_mu(t) * (6.0 * lam * n) ** (1 / 3)


# near T -> 0 at an open shell, one ulp of mu moves the partly filled level's
# occupation by about g_L ulp(mu)/T, so the 1e-10 residual cannot be met in
# the variable mu; the closed shell N = 969 and (30000, sqrt 8) at 1e-11 solve
LOW_T_DEFECT = pytest.mark.xfail(strict=True, raises=NumericsError,
                                 reason="exact_mu occupation residual at low T")


@pytest.mark.parametrize("n_particles, lam, t", [
    pytest.param(1001, 1.0, 1e-8, marks=LOW_T_DEFECT),
    pytest.param(1000, 1.0, 1e-9, marks=LOW_T_DEFECT),
    pytest.param(1000, math.sqrt(8.0), 1e-9, marks=LOW_T_DEFECT),
    pytest.param(30_000, math.sqrt(8.0), 1e-12, marks=LOW_T_DEFECT),
    (969, 1.0, 1e-12),
    (30_000, math.sqrt(8.0), 1e-11),
])
@pytest.mark.filterwarnings("error")  # e^((eps - mu)/T) overflows above mu
def test_continuum_comparison_at_low_temperature(n_particles, lam, t):
    comp = fg.continuum_comparison(n_particles, lam, t)
    assert math.isfinite(comp.gap_raw) and math.isfinite(comp.gap_adjusted)


def test_continuum_error_shrinks_with_particle_number():
    sizes = (2_000, 16_000, 128_000)
    comps = [fg.continuum_comparison(n, 1.0, 0.1) for n in sizes]
    raw = [c.gap_raw for c in comps]
    adjusted = [c.gap_adjusted for c in comps]
    assert raw[0] > raw[1] > raw[2]
    assert adjusted[0] > adjusted[1] > adjusted[2]


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_zero_temperature_state_counting(n):
    difference, edge_degeneracy = fg.counting_check(n)
    assert difference <= edge_degeneracy


def test_counting_check_difference_is_an_int():
    # a whole float N counts as the int N: the difference is an int either way
    for n in (1000, 1000.0, np.float64(1000.0), np.int64(1000), 1e6):
        difference, edge_degeneracy = fg.counting_check(n)
        assert type(difference) is int and type(edge_degeneracy) is int, n
    assert fg.counting_check(1000.0) == fg.counting_check(1000) == (31, 171)


def _threshold(n_particles, lam):
    """counting_check's threshold E_F - (1 + lambda/2) for N particles."""
    return (6.0 * lam * n_particles) ** (1.0 / 3.0) - (1.0 + 0.5 * lam)


# 0.01885430808396613: fl(5 lambda) + lambda rounds below fl(6 lambda), so a count at
# fl(5 lambda) that took its rows only up to eps + lambda would miss the next level
COUNTING_LAMBDAS = [0.5, 1.0, 2.0, math.sqrt(8.0), 1.0 / 3.0, math.pi, 0.01885430808396613,
                    *np.exp(np.random.default_rng(29).uniform(math.log(0.25), math.log(4.0), 4))]


def test_counting_check_matches_the_sorted_spectrum():
    # the row counts give the sort-and-merge answer bit for bit: whole N,
    # log-spaced and rounded, and the closed-shell counts (the states up to a
    # level) with their neighbours; at thresholds on a level energy and one ulp
    # either side, where <= decides which side the level counts on, the row
    # counter _count gives the sorted spectrum's cumulative count, edge levels
    # and degeneracy (no whole N puts its threshold on a chosen level)
    cases, landed = [], 0
    for lam in map(float, COUNTING_LAMBDAS):
        cases += [(n, lam) for n in sorted({round(n) for n in np.logspace(0, 7, 57).tolist()})]
        sp = fg.build_spectrum(lam, _threshold(1e7, lam))
        closed = np.cumsum(sp.degeneracies)
        for i in np.linspace(0, sp.energies.size - 3, 16).astype(int).tolist():
            cases += [(int(closed[i]) + d, lam) for d in (-1, 0, 1) if closed[i] + d >= 1]
            level = float(sp.energies[i + 1])
            counts = []
            for eps in (math.nextafter(level, -math.inf), level, math.nextafter(level, math.inf)):
                j = int(np.searchsorted(sp.energies, eps, side="right"))
                want = (int(closed[j - 1]), float(sp.energies[j - 1]), float(sp.energies[j]),
                        int(sp.degeneracies[j]))
                counts.append(oracle._count(lam, eps))
                assert counts[-1] == want, (eps, lam)
            landed += counts[0] != counts[1] == counts[2]  # the level counts from itself on
    assert len(cases) >= 1_000 and all(isinstance(n, int) for n, _ in cases)
    assert landed >= 100
    for n, lam in cases:
        got, want = fg.counting_check(n, lam), sorted_counting_check(n, lam)
        assert got == want and list(map(type, got)) == list(map(type, want)), (n, lam)


ROWS_REFUSAL = ("axial rows, above the 1000000 rows of the 5000000 entry cap counting each row "
                "as 5 entries")
STATES_REFUSAL = "states at or below eps, at or above the 2^53 cap of exact float counts"


@pytest.mark.parametrize("n_particles, lam, want, got", [
    # refused on the rows before any per-row array: the sorted route on its 4.9e7 rows up
    # to E_F + 1, counting_check on the 2.9e7 rows its count at E_F - (1 + lambda/2) reads
    pytest.param(10**8, 1e-7,
                 "lambda = 1e-07, cutoff = 4.914867641168863: the spectrum has 49148677 "
                 + ROWS_REFUSAL,
                 "counting check for N = 100000000, lambda = 1e-07: lambda = 1e-07, cutoff = "
                 f"2.9148677911688634: the spectrum has 29148678 {ROWS_REFUSAL}",
                 id="1000-1e-07-the spectrum has at least a million axial rows"),
    # 400,001 entries holding 1.07e16 states, past exact float counts: the sorted route
    # refuses its spectrum up to E_F + 1, counting_check its one count, at E_F - 3/2
    pytest.param(1.07e16, 1.0,
                 f"lambda = 1.0, eps = 400417.2333908428: the spectrum holds 1.07002e+16 "
                 f"{STATES_REFUSAL}",
                 "counting check for N = 1.07e+16, lambda = 1.0: lambda = 1.0, eps = "
                 f"400414.7333908428: the spectrum holds 1.07e+16 {STATES_REFUSAL}",
                 id=r"1.07e+16-1.0-holds 1\.07\d+e\+16 states, at or above the 2\^53 cap"),
])
def test_counting_check_refuses_as_the_sorted_spectrum(n_particles, lam, want, got):
    with pytest.raises(DomainError) as refused:
        sorted_counting_check(n_particles, lam)
    assert str(refused.value) == want
    with pytest.raises(DomainError) as refused:
        fg.counting_check(n_particles, lam)
    assert str(refused.value) == got


def test_zero_temperature_counts_answer_up_to_the_cap():
    # at lambda = 1 the closed shells 0..378,075 hold 9,007,194,154,594,076 states, below
    # 2^53, and one more shell is past it; each count refuses only itself, so both T = 0
    # calls answer up to that shell, where they count, whatever the states above it
    n_particles = fg.closed_shell_count(378_075)
    assert n_particles == 9_007_194_154_594_076 < 2 ** 53 < fg.closed_shell_count(378_076)
    assert fg.counting_check(n_particles, 1.0) == (0, 71471298003)
    assert fg.exact_mu(n_particles, 1.0, 0.0) == 378075.5
    assert fg.exact_mu(fg.closed_shell_count(340_000), 1.0, 0.0) == 340000.5
    n_particles = fg.closed_shell_count(378_076)
    count = (f"for N = {n_particles}, lambda = 1.0: lambda = 1.0, eps = 378076.4999991181: "
             f"the spectrum holds 9.00727e+15 {STATES_REFUSAL}")
    with pytest.raises(DomainError, match=f"^{re.escape('counting check ' + count)}$"):
        fg.counting_check(n_particles, 1.0)
    with pytest.raises(DomainError, match=f"^{re.escape('T = 0 count ' + count)}$"):
        fg.exact_mu(n_particles, 1.0, 0.0)


def test_zero_temperature_refusals_name_n_and_lambda():
    # the rows cap refuses at a cutoff the caller never gave: N and lambda come first; the
    # bisection's 18th count, at 1 - lambda/2 just below its upper end fl(lambda N) = 1,
    # reads 1,000,002 rows, as the answer's own levels need
    with pytest.raises(DomainError) as refused:
        fg.exact_mu(10 ** 6, 1e-6, 0.0)
    assert str(refused.value) == (
        "T = 0 count for N = 1000000, lambda = 1e-06: lambda = 1e-06, cutoff = "
        f"1.0000015: the spectrum has 1000002 {ROWS_REFUSAL}")


def axial_levels_below_one(lam):
    """The levels fl(lambda n_z) below 1, in order: p = 0 alone, as p >= 1 starts at 1."""
    levels, n_z = [], 0
    while lam * n_z < 1.0:
        levels.append(lam * n_z)
        n_z += 1
    return levels


def test_small_lambda_counts_read_only_the_rows_up_to_their_count():
    # every level below 1 holds one state; each count reads the rows up to 2 lambda above
    # the energy it counts at (0.82 for counting_check, at most 0.212 in the bisection), so
    # both answer where the rows up to E_F + 1 or 2^(1/3) E_F + 2 pass the 1e6 rows cap
    levels = axial_levels_below_one(1e-6)
    eps = (6.0 * 1e-6 * 10**6) ** (1 / 3) - (1.0 + 0.5e-6)
    count = sum(level <= eps for level in levels)
    assert fg.counting_check(10**6, 1e-6) == (10**6 - count, 1) == (182879, 1)
    levels = axial_levels_below_one(3e-6)
    assert fg.exact_mu(70672, 3e-6, 0.0) == 0.5 * (levels[70671] + levels[70672])


def test_zero_temperature_bisection_stays_below_the_answers_own_bound():
    # the T = 0 bracket ends at min(E_F + 1, fl(lambda N), sqrt(2N) + 1), not at the T > 0
    # bound 2^(1/3) E_F + 2, whose rows (1,028,234 at N = 15, lambda = 1e-6) or states (past
    # 2^53 at lambda = 1e300) refused these answers; the levels below 1 are fl(lambda n_z)
    levels = axial_levels_below_one(1e-6)
    assert fg.exact_mu(15, 1e-6, 0.0) == 0.5 * (1e-6 * 14 + 1e-6 * 15) == 1.45e-05
    assert fg.exact_mu(800000, 1e-6, 0.0) == 0.5 * (levels[799999] + levels[800000])
    # one state at 0, the next two at 1 (p = 1): the axial row n_z = 1 is at 1e300
    assert fg.exact_mu(1, 1e300, 0.0) == 0.5
    # and a partly filled level is refused as one, not for the rows of the T > 0 bound
    with pytest.raises(DomainError, match=r"^N = 10000000 leaves a partially filled level at "
                                          r"T = 0; the ground state is ambiguous$"):
        fg.exact_mu(10**7, 1e-5, 0.0)


@pytest.mark.parametrize("n_particles, lam, t_abs", [(15, 1e-6, 1e-7), (3, 1e-7, 3e-8)])
def test_small_lambda_level_sum_stays_below_the_answers_own_bound(n_particles, lam, t_abs):
    # hi = fl(lambda 2N) here: the volume bound 2^(1/3) E_F + 2 holds 2e6 and 2e7 axial
    # rows, past the rows cap.  T is within 10x of the level gap lambda, so the answer is
    # no closed-gap midpoint.  The reference sums the levels fl(lambda n) up to 200 T above
    # 2 lambda N in 40 digits (the levels p >= 1 lie at 1 and above: e^(-1/T) of a state)
    # and bisects [0, 2 lambda N], where the 2N + 1 levels below the top are at least half
    # occupied
    got = fg.exact_mu(n_particles, lam, t_abs)
    levels = [lam * n for n in range(int(2 * n_particles + 200.0 * t_abs / lam) + 2)]
    with mp.workdps(40):
        t = mp.mpf(t_abs)
        lo, hi = mp.mpf(0), mp.mpf(lam * (2 * n_particles))
        for _ in range(150):
            mid = (lo + hi) / 2
            if mp.fsum(1 / (1 + mp.exp((mp.mpf(e) - mid) / t)) for e in levels) < n_particles:
                lo = mid
            else:
                hi = mid
        expected = float(lo)
    assert abs(got - expected) <= 2.0 * math.ulp(expected), (got, expected)


def test_zero_temperature_upper_end_holds_more_than_n_states(monkeypatch):
    # the bisection counts only below its upper end (k = 1), so that end must hold more
    # than N states: at exactly N, a full level there would read as partly filled.  The
    # T > 0 end hi (k = 2) must hold more than 2N, so that mu <= hi.  Each of the three
    # bounds sets each end somewhere here, and the two extreme lambdas answer at T = 0
    rng = np.random.default_rng(53)
    cases = [(round(10.0 ** u), 10.0 ** v)
             for u, v in zip(rng.uniform(0.0, 16.0, 120), rng.uniform(-12.0, 8.0, 120))]
    cases += [(n, lam) for lam in (5e-324, 1e300) for n in (1, 2, 3, 15, 1000)]
    calls, counted = spy_count(monkeypatch), {1: [], 2: []}
    for n, lam in cases:
        e_fermi = oracle._trap_scales(n, lam)[1]
        calls.clear()
        try:
            fg.exact_mu(n, lam, 0.0)
        except DomainError:  # a cap or a partly filled level
            pass
        searched = max(calls)
        for k, found in counted.items():
            end = oracle._upper(n, lam, e_fermi, k)
            bounds = (k ** (1 / 3) * e_fermi + 2.0, lam * (k * n), math.sqrt(2.0 * k * n) + 1.0)
            assert end == min(bounds), (n, lam, k)
            assert k == 2 or searched < end, (n, lam)
            try:
                count = oracle._count(lam, end)[0]
            except DomainError:  # past the rows or the 2^53 cap at the end itself
                continue
            assert count > k * n, (n, lam, k)
            found.append((bounds.index(end), lam))
    for k, found in counted.items():
        ends = [end for end, _ in found]
        assert min(map(ends.count, range(3))) >= 20, (k, ends)
    assert {5e-324, 1e300} <= {lam for _, lam in counted[1]}


def spy_count(monkeypatch):
    """The list that each later _count call adds its eps to."""
    calls, count = [], oracle._count

    def spied(lam, eps):
        calls.append(eps)
        return count(lam, eps)

    monkeypatch.setattr(oracle, "_count", spied)
    return calls


def test_counts_run_once_below_the_cap(monkeypatch):
    # counting_check and a closed-shell T = 0 exact_mu count once: each count
    # refuses itself at 2^53 states, so no second count checks the cap
    calls = spy_count(monkeypatch)
    for n_particles in (1, 1000, 123_457, 10_000_000):
        for lam in (1e-3, 1 / 3, 0.5, 1.0, math.sqrt(8.0), math.pi):
            calls.clear()
            fg.counting_check(n_particles, lam)
            assert len(calls) == 1, (n_particles, lam)
    for shell in (0, 10, 100, 390):  # up to 1.0e7 particles
        calls.clear()
        fg.exact_mu(fg.closed_shell_count(shell), 1.0, 0.0)
        assert len(calls) == 1, shell


def test_counting_check_answers_past_the_entry_cap(monkeypatch):
    # the axial rows give the count with no ladder entry, so only the rows cap
    # (at most 197 rows here, against 400) meets it: at a cap of 2,000 the sorted
    # route refuses each case (2,550 to 54,758 entries up to E_F + 1) and
    # counting_check gives its answer at the default cap; at N = 1e10,
    # lambda = sqrt 8 the ladders hold 5.4e6 entries, past the default cap,
    # and the sorted route gives this answer at a cap of 1e7
    cases = [(n, lam) for lam in (math.sqrt(8.0), math.pi) for n in (100_000, 1e6, 1e7)]
    expected = [sorted_counting_check(n, lam) for n, lam in cases]
    monkeypatch.setattr(oracle, "MAX_ENTRIES", 2_000)
    for (n, lam), want in zip(cases, expected):
        with pytest.raises(DomainError, match="entry cap"):
            sorted_counting_check(n, lam)
        assert fg.counting_check(n, lam) == want
    monkeypatch.undo()
    assert fg.counting_check(1e10, math.sqrt(8.0)) == (2181.0, 3063)


def integer_count(step, level):
    """(states at or below the integer level, degeneracy of the level above it) at the
    integer lambda = step, in integers over the axial rows of base step n_z."""
    states = sum((level - b + 1) * (level - b + 2) // 2 for b in range(0, level + 1, step))
    return states, sum(level - b + 2 for b in range(0, level + 2, step))


def test_counts_answer_past_the_ladder_entries_of_row_zero():
    # at lambda = 1e6 the levels are integers; up to E_F + 1 the spectrum has 9
    # axial rows, but row 0 alone holds 8.4e6 ladder entries, which the counts
    # never build: they answer, and agree with the integer count
    lam, n_particles = 1e6, 10**14
    level = math.floor((6.0 * lam * n_particles) ** (1 / 3) - (1.0 + 0.5 * lam))
    states, edge = integer_count(10**6, level)
    assert fg.counting_check(n_particles, lam) == (abs(states - n_particles), edge)
    assert (n_particles - states, edge) == (346993965592, 35474616)
    # N fills every level up to 8e6 and none above: mu is the midpoint of the gap
    closed = integer_count(10**6, 8_000_000)[0]
    assert integer_count(10**6, 7_999_999)[0] < closed == 102000054000009
    assert fg.exact_mu(closed, lam, 0.0) == 8000000.5


def test_level_sum_cap_refusal_names_n_lambda_and_t_abs():
    # at t = 5 mu lies below T/2, so the pole sum leaves it to the level sum, whose
    # ladders hold 2.0e8 entries: the refusal names what the caller passed
    lam = math.sqrt(8.0)
    t_abs = 5.0 * (6.0 * lam * 10**7) ** (1 / 3)
    with pytest.raises(DomainError, match=rf"^level sum for N = 10000000, lambda = "
                                          rf"{re.escape(repr(lam))}, t_abs = "
                                          rf"{re.escape(repr(t_abs))}: lambda = .*: the spectrum "
                                          r"has 203395938 ladder entries and 11992 axial rows, "
                                          r"above the 5000000 entry cap"):
        fg.exact_mu(10**7, lam, t_abs)


def test_zero_temperature_mu_matches_the_sorted_spectrum():
    # the bisection on the axial rows gives the sort-and-merge answer or its
    # refusal: the first 400 closed-shell counts, and one state past each,
    # which leaves a level partly filled unless that level holds one state
    cases = []
    for lam in map(float, COUNTING_LAMBDAS):
        closed = np.cumsum(fg.build_spectrum(lam, 402.0).degeneracies)[:400]
        cases += [(int(n) + d, lam) for n in closed for d in (0, 1)]
    refused = 0
    for n, lam in cases:
        try:
            want = sorted_zero_t_mu(n, lam)
        except DomainError as exc:
            refused += 1
            with pytest.raises(DomainError) as got:
                fg.exact_mu(n, lam, 0.0)
            assert str(got.value) == str(exc), (n, lam)
        else:
            got = fg.exact_mu(n, lam, 0.0)
            assert got == want and type(got) is float, (n, lam)
    assert 3_000 <= refused <= 5_000  # 3,827: both answers are common


@pytest.mark.parametrize("n_particles, lam", [(100_000, 1e-5), (10_000, 1e-4), (10**6, 1e-3),
                                              (10**7, math.sqrt(8.0))])
def test_zero_temperature_mu_bisects_the_count(monkeypatch, n_particles, lam):
    # at (1e5, 1e-5), 100,002 axial rows up to 2 lambda above the bisection's
    # upper end fl(lambda N) = 1, and 18,288 levels between the continuum Fermi
    # level and mu: a walk level by level would count that often, the bisection
    # counts 15 times here, 12 to 11 in the others
    count, calls = oracle._count, []
    monkeypatch.setattr(oracle, "_count", lambda *args: calls.append(args) or count(*args))
    try:
        got = fg.exact_mu(n_particles, lam, 0.0)
    except DomainError as exc:
        got = str(exc)
    monkeypatch.undo()
    try:
        want = sorted_zero_t_mu(n_particles, lam)
    except DomainError as exc:
        want = str(exc)
    assert got == want
    assert len(calls) <= 64


def test_zero_temperature_counts_read_only_the_rows(monkeypatch):
    # counting_check and the T = 0 exact_mu build no ladder entry, and
    # neither sort nor take a running sum
    def refuse(*args, **kwargs):
        raise AssertionError("ladder, sort or running sum")

    cases = [(n, lam) for lam in (1.0, math.sqrt(8.0), 1.0 / 3.0)
             for n in (1, 969, 176_851, 10_000_000)]
    counts = [sorted_counting_check(n, lam) for n, lam in cases]
    closed = [(int(n), lam) for lam in (1.0, math.sqrt(8.0), 1.0 / 3.0)
              for n in np.cumsum(fg.build_spectrum(lam, 60.0).degeneracies)[::10]]
    mus = [sorted_zero_t_mu(n, lam) for n, lam in closed]
    for name in ("_ladders", "build_spectrum", "DiscreteSpectrum"):
        monkeypatch.setattr(oracle, name, refuse)
    for name in ("argsort", "sort", "unique", "cumsum", "searchsorted"):
        monkeypatch.setattr(np, name, refuse)
    assert [fg.counting_check(n, lam) for n, lam in cases] == counts
    assert [fg.exact_mu(n, lam, 0.0) for n, lam in closed] == mus
    with pytest.raises(DomainError, match="partially filled"):
        fg.exact_mu(1000, math.sqrt(8.0), 0.0)


@pytest.mark.parametrize("t_abs", [1e300, 1e308])
def test_level_window_past_the_entry_cap_names_t_abs(t_abs):
    # the window ends 12 t_abs above 2^(1/3) E_F + 2: 1.2e301 and inf
    with pytest.raises(DomainError, match=rf"^level sum for N = 1000, lambda = 1\.0, t_abs = "
                                          rf"{re.escape(repr(t_abs))}: lambda = 1\.0, cutoff = "
                                          r"(1\.2\d*e\+301|inf): the spectrum has "
                                          r"(1\.2\d*e\+301|inf) axial rows, above the 1000000 "
                                          r"rows of the 5000000 entry cap"):
        fg.exact_mu(1000, 1.0, t_abs)


def test_ground_state_central_density():
    assert fg.exact_central_density(1) == pytest.approx(math.pi ** -1.5, rel=1e-14)


def test_odd_eigenfunctions_vanish_at_origin():
    for n in (1, 3, 5, 11):
        assert eigenfunction_origin_density(n) == 0.0
    assert eigenfunction_origin_density(0) == 1.0


def test_origin_weight_recurrence_matches_log_gamma():
    for m in (1, 5, 50, 200, 500):
        via_gamma = math.exp(gammaln(2 * m + 1) - 2.0 * gammaln(m + 1)
                             - m * math.log(4.0))
        assert abs(origin_weight(m) - via_gamma) <= 1e-12


def test_central_density_closed_form_matches_eigenfunction_sum():
    for top in range(201):
        assert fg.exact_central_density(fg.closed_shell_count(top)) == pytest.approx(
            summed_central_density(top), rel=1e-14)


def test_central_density_against_exact_rationals():
    binomial = Fraction(1)  # C(M + 3/2, M) = prod_{j <= M} (2j + 3)/(2j)
    for m in range(101):
        binomial *= Fraction(2 * m + 3, 2 * m) if m else 1
        with mp.workdps(30):
            exact = mp.mpf(binomial.numerator) / binomial.denominator / mp.pi ** 1.5
            for top in (2 * m, 2 * m + 1):
                got = fg.exact_central_density(fg.closed_shell_count(top))
                assert abs(got - exact) <= 2e-15 * exact


def test_central_density_converges_to_semiclassical():
    deviations = []
    for shell in (10, 20, 40, 80):
        n = fg.closed_shell_count(shell)
        exact = fg.exact_central_density(n)
        semi = fg.semiclassical_central_density(n)
        deviations.append(abs(exact - semi) / semi)
        assert exact > semi  # discrete sum approaches the continuum from above
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_central_density_rejects_ambiguous_input():
    with pytest.raises(DomainError, match="closed-shell"):
        fg.exact_central_density(5)
    with pytest.raises(DomainError, match=r"^lambda = 2\.0: the closed-shell central density "
                                          r"is implemented for lambda = 1 only$"):
        fg.exact_central_density(4, lam=2.0)


def test_validity_margin_profile():
    rep = fg.validity_report(100_000, 1.0, [0.0, 0.2, 0.5, 0.9, 1.0, 1.1])
    assert math.isinf(rep.margin[0])
    assert np.all(rep.margin[1:4] > 0.0)
    assert rep.margin[4] == 0.0 and rep.margin[5] == 0.0
    assert rep.shell_thickness_sigma == pytest.approx(100_000 ** (-1 / 6), rel=1e-14)
    assert rep.inv_k_fermi_sigma == pytest.approx(
        rep.shell_thickness_sigma / 48.0 ** (1 / 6), rel=1e-12)


def test_validity_margin_grows_with_particle_number():
    margins = [fg.validity_report(n, 1.0, [0.5]).margin[0]
               for n in (1_000, 100_000, 10_000_000)]
    assert margins[0] < margins[1] < margins[2]


def test_validity_radii_domain():
    with pytest.raises(DomainError):
        fg.validity_report(1000, 1.0, [])
    with pytest.raises(DomainError):
        fg.validity_report(1000, 1.0, [1.5])
    with pytest.raises(DomainError):
        fg.validity_report(1000, 1.0, [-0.1])


def test_breakdown_shell_distance_exponent():
    ns = np.logspace(3, 7, 9)
    dist = [fg.breakdown_shell_distance(int(n)) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(dist), 1)[0])
    assert abs(slope - (-1.0 / 6.0)) <= 0.02
    with pytest.raises(DomainError, match="N = 10 is too small"):
        fg.breakdown_shell_distance(10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int-1e400")])
@pytest.mark.parametrize("name, entry", [
    ("n_particles", lambda x: fg.exact_mu(x, 1.0, 0.5)),
    ("n_particles", lambda x: fg.continuum_comparison(x, 1.0, 0.2)),
    ("n_particles", lambda x: fg.counting_check(x)),
    ("n_particles", lambda x: fg.validity_report(x, 1.0, [0.5])),
    ("n_particles", lambda x: fg.breakdown_shell_distance(x)),
    ("n_particles", lambda x: fg.semiclassical_central_density(x)),
    ("n_closed_shell", lambda x: fg.exact_central_density(x)),
    ("lambda", lambda x: fg.exact_central_density(1, x)),
    ("lambda", lambda x: fg.validity_report(1000, x, [0.5])),
    ("u_int", lambda x: fg.mean_field_correction(x)),
    ("m", lambda x: fg.phase_space_occupancy(0.5, 0.5, 0.1, x)),
    ("m", lambda x: fg.phase_space_occupancy(0.5, 0.5, 0.0, x)),
    ("t_abs", lambda x: fg.exact_mu(100, 1.0, x)),
    ("lambda", lambda x: fg.exact_mu(100, x, 0.5)),
    ("lambda", lambda x: fg.build_spectrum(x, 10.0)),
    ("cutoff", lambda x: fg.build_spectrum(1.0, x)),
    ("lambda", lambda x: fg.continuum_comparison(1000, x, 0.2)),
    ("reduced temperature", lambda x: fg.continuum_comparison(1000, 1.0, x)),
    ("lambda", lambda x: fg.counting_check(1000, x)),
    ("u_bose", lambda x: fg.BoseParams(1000, 1.0, u_bose=x)),
    ("lambda", lambda x: fg.BoseParams(1000, x, u_bose=0.5)),
    ("s_b", lambda x: fg.bose_profile(x, fg.BoseParams(1000, 1.0, u_bose=0.5))),
    ("lambda", lambda x: fg.breakdown_shell_distance(1000, x)),
    ("lambda", lambda x: fg.semiclassical_central_density(1000, x)),
    ("radii", lambda x: fg.validity_report(1000, 1.0, [0.5, x])),
])
def test_nonfinite_arguments_rejected(name, entry, bad):
    got = "an integer beyond the float range" if isinstance(bad, int) else repr(bad)
    with pytest.raises(DomainError, match=f"{re.escape(name)} must .*got .*{got}"):
        entry(bad)


@pytest.mark.parametrize("bad", [0, -5, 0.5])
@pytest.mark.parametrize("entry", [
    lambda x: fg.exact_mu(x, 1.0, 0.5),
    lambda x: fg.continuum_comparison(x, 1.0, 0.2),
    lambda x: fg.counting_check(x),
    lambda x: fg.validity_report(x, 1.0, [0.5]),
    lambda x: fg.breakdown_shell_distance(x),
    lambda x: fg.semiclassical_central_density(x),
])
def test_particle_number_below_one_rejected(entry, bad):
    with pytest.raises(DomainError, match=f"n_particles must .*got {float(bad)!r}"):
        entry(bad)


@pytest.mark.parametrize("entry", [
    lambda x: fg.exact_mu(x, 1.0, 0.5),
    lambda x: fg.continuum_comparison(x, 1.0, 0.2),
    lambda x: fg.counting_check(x),
    lambda x: fg.validity_report(x, 1.0, [0.5]),
    lambda x: fg.breakdown_shell_distance(x),
    lambda x: fg.semiclassical_central_density(x),
    lambda x: fg.exact_central_density(x),
    lambda x: fg.TrapSpec(mass=1e-26, omega_r=1000.0, lam=1.0, n_particles=x),
    lambda x: fg.BoseParams(x, 1.0, u_bose=0.5),
])
def test_particle_number_beyond_float_range_rejected(entry):
    with pytest.raises(DomainError, match="beyond the float range"):
        entry(10 ** 400)


def test_central_density_top_shell_cap():
    # refused before the exact binomial, which takes 9.4 s at the cap K = 1e6
    assert fg.oracle.MAX_SHELL >= 10 ** 6
    for top in (fg.oracle.MAX_SHELL + 1, 10 ** 9, 10 ** 100):
        with pytest.raises(DomainError, match="cap"):
            fg.exact_central_density(fg.closed_shell_count(top))
