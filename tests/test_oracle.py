import math
import re
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp
from scipy.optimize import brentq
from scipy.special import expit, gammaln

import fermigas as fg
from conftest import mp_exact_mu
from fermigas import DomainError, NumericsError, oracle, perturb
from fermigas.thermo import monotone_root
from spectrum_reference import (dict_spectrum, eigenfunction_origin_density,
                                origin_weight, summed_central_density)


def test_isotropic_shell_degeneracies():
    sp = fg.build_spectrum(1.0, 2.5)
    assert sp.energies.tolist() == [0.0, 1.0, 2.0]
    assert sp.degeneracies.tolist() == [1.0, 3.0, 6.0]


def test_isotropic_cumulative_count_is_stars_and_bars():
    sp = fg.build_spectrum(1.0, 20.1)
    cumulative = np.cumsum(sp.degeneracies)
    for n in range(21):
        assert cumulative[n] == fg.closed_shell_count(n)


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
    cutoff = 2 ** (1 / 3) * e_fermi + 36.0 * t * e_fermi + 2.0  # exact_mu's cutoff
    sp = fg.build_spectrum(lam, cutoff)
    energies, degeneracies = dict_spectrum(lam, cutoff)
    assert np.array_equal(sp.energies, energies)
    assert np.array_equal(sp.degeneracies, degeneracies)
    assert sp.state_count == int(degeneracies.sum())


def test_cell_cap():
    # a million-state spectrum is fine when it has few cells
    assert fg.build_spectrum(1.0, 200.0).state_count == fg.closed_shell_count(200)
    # 12.5e6 (n_z, p) cells, but one ladder of 5,001 entries
    assert fg.build_spectrum(1.0, 5000.0).energies.size == 5001
    with pytest.raises(DomainError, match="cap"):
        fg.exact_mu(10_000, 1e-7, 0.0)
    # refused before any per-axial-level work: 1e300 levels would never finish
    with pytest.raises(DomainError, match="cap"):
        fg.build_spectrum(1e-300, 1.0)


def test_entry_and_state_caps():
    # 1.77e7 entries, one ladder per axial row
    with pytest.raises(DomainError, match=r"^lambda = 2\.8284271247461903, cutoff = 10000\.0: "
                                          r"the spectrum has 17684439 ladder entries, above "
                                          r"the 5000000 entry cap$"):
        fg.build_spectrum(math.sqrt(8.0), 1e4)
    # 400,001 entries but 1.07e16 states, past exact float integers
    with pytest.raises(DomainError, match=r"^lambda = 1\.0, cutoff = 400000\.0: the spectrum "
                                          r"holds 1\.06668e\+16 states, at or above the 2\^53 "
                                          r"cap of exact float counts$"):
        fg.build_spectrum(1.0, 4e5)
    # 9.0001e15 states, just below 2^53, still counted exactly: row 0 holds
    # p <= 300,000 and rows 2q - 1 and 2q hold p <= 300,000 - q
    sp = fg.build_spectrum(0.5, 3e5)
    assert sp.state_count == math.comb(300_002, 2) + 2 * math.comb(300_002, 3)
    # refused on the axial rows before the per-row work: 3.6e7 entries, and
    # 4.95e6 rows of one entry each
    with pytest.raises(DomainError, match=r"^lambda = 0\.001, cutoff = 4999\.0: the spectrum "
                                          r"has 4999001 axial rows, above the 1250000 row cap$"):
        fg.build_spectrum(0.001, 4999.0)
    with pytest.raises(DomainError, match=r"^lambda = 2e-07, cutoff = 0\.99: the spectrum has "
                                          r"4950001 axial rows, above the 1250000 row cap$"):
        fg.build_spectrum(2e-7, 0.99)


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


# The residue, 1e-13 at t = 0.6, is the classical tail that the cutoff at
# 36 t_abs drops (Gamma(3, 36)/2 = 1.6e-13 of N); the roadmap's cutoff fix
# (direction 1(b)) is to tighten this bound to 1e-15.
@pytest.mark.parametrize("n_particles, lam, t", [
    (2, 0.5, 50.0), (1_000, 1.0, 5.0), (100_000, 1.0, 2.0), (10_000, 1.0, 0.6),
    (10_000, math.sqrt(8.0), 0.6), (1_000, 0.5, 1.0), (30, 1.0, 1e3)])
def test_exact_mu_against_fugacity_series(n_particles, lam, t):
    t_abs = t * (6.0 * lam * n_particles) ** (1 / 3)
    with mp.workdps(40):
        expected = float(mp_exact_mu(n_particles, lam, t_abs))
    assert fg.exact_mu(n_particles, lam, t_abs) == pytest.approx(expected, rel=2e-13)


def test_zero_temperature_closed_shells():
    # N = 4 fills shells 0 and 1 (1 + 3 states): gap midpoint 1.5
    assert fg.exact_mu(4, 1.0, 0.0) == 1.5
    # N = 20 fills shells 0..3: gap midpoint 3.5
    assert fg.exact_mu(20, 1.0, 0.0) == 3.5


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


def brentq_exact_mu(n_particles, lam, t_abs):
    """Independent route: planar shells stacked over the axial ladder, a
    wider cutoff, scipy's logistic occupation and Brent's method."""
    cutoff = 1.5 * (6.0 * lam * n_particles) ** (1 / 3) + 45.0 * t_abs
    energies, degs = [], []
    for nz in range(int(cutoff / lam) + 1):
        p = np.arange(int(cutoff - lam * nz) + 1)
        energies.append(p + lam * nz)
        degs.append(p + 1.0)
    energies, degs = np.concatenate(energies), np.concatenate(degs)

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


def test_occupation_residual_failure_names_the_solve(monkeypatch):
    monkeypatch.setattr(oracle, "_OCCUPATION_TOL", -1.0)  # every residual fails
    with pytest.raises(NumericsError, match=r"occupation residual \d\.\d{3}e[-+]\d+ particles "
                                            r"above tolerance at mu = \d+\.\d+ for N = 1000, "
                                            r"lambda = 1\.0, t_abs = 3\.6 over \d+ levels$"):
        fg.exact_mu(1000, 1.0, 3.6)


def test_root_search_failure_names_the_solve(monkeypatch):
    def stuck(g, lo, hi, x=None):
        raise NumericsError(f"no convergence in 200 steps on [{lo!r}, {hi!r}]")

    monkeypatch.setattr(oracle, "monotone_root", stuck)
    with pytest.raises(NumericsError, match=r"^mu search for N = 1000, lambda = 0\.5, "
                                            r"t_abs = 2\.0 over \d+ levels: no convergence"):
        fg.exact_mu(1000, 0.5, 2.0)


def test_no_blas_call_in_the_level_sum_or_the_response(monkeypatch):
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


def test_level_sum_sorts_nothing(monkeypatch):
    # the levels come from integer ladders, so the search needs no order
    def refuse(*args, **kwargs):
        raise AssertionError("sort")

    cases = [(lam, 0.2 * (6.0 * lam * 30_000) ** (1 / 3)) for lam in (0.5, math.sqrt(8.0))]
    expected = [brentq_exact_mu(30_000, lam, t_abs) for lam, t_abs in cases]
    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    for (lam, t_abs), mu in zip(cases, expected):
        assert fg.exact_mu(30_000, lam, t_abs) == pytest.approx(mu, rel=1e-14)


def test_constraint_evaluations_per_solve(monkeypatch):
    # Newton from the continuum start stays within the reuse span, so each
    # solve exponentiates the levels once
    evaluations, exp_passes = [], []

    def counting(g, lo, hi, x=None):
        def counted(mu):
            evaluations.append(mu)
            return g(mu)
        return monotone_root(counted, lo, hi, x)

    real_exp = np.exp

    def counting_exp(*args, **kwargs):
        exp_passes.append(args)
        return real_exp(*args, **kwargs)

    monkeypatch.setattr(oracle, "monotone_root", counting)
    monkeypatch.setattr(np, "exp", counting_exp)
    for t, n_particles, lam in BRENTQ_CASES:
        exp_passes.clear()
        fg.exact_mu(n_particles, lam, t * (6.0 * lam * n_particles) ** (1 / 3))
        assert len(exp_passes) == 1
    assert len(evaluations) / len(BRENTQ_CASES) <= 4.5


# a float guess is the continuum mu itself; ("spans", k) starts Newton
# k _REUSE_SPAN T from the root, so the root lies inside (|k| < 1) or
# outside (|k| > 1) the span around the start where e^((eps - ref)/T) is
# reused, on either side
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("guess", [0.0, 10.0, math.nan, DomainError] + [
    pytest.param(("spans", k), id=f"start-{k:+g}-spans") for k in (-2.0, -0.5, 0.5, 2.0)])
def test_continuum_guess_never_decides_the_answer(monkeypatch, guess):
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
            start = ((mu0 + guess[1] * oracle._REUSE_SPAN * t_abs + 1.0 + 0.5 * lam)
                     / (6.0 * lam * n_particles) ** (1 / 3))
        mu = fg.exact_mu(n_particles, lam, t_abs)
        assert abs(mu - mu0) <= 4.0 * math.ulp(mu0)
        sp = fg.build_spectrum(lam, 1.5 * (6.0 * lam * n_particles) ** (1 / 3) + 45.0 * t_abs)
        occupied = math.fsum(sp.degeneracies * expit((mu - sp.energies) / t_abs))
        assert abs(occupied - n_particles) <= 1e-10 * n_particles


@pytest.mark.parametrize("guess", [None, 0.0, 10.0, math.nan, DomainError])
def test_one_root_search_per_solve(monkeypatch, guess):
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
    with pytest.raises(DomainError, match="lambda"):
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
