import math
import re
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import fermigas as fg
from fermigas import DomainError, NumericsError, fdint, profiles, thermo
from fermigas.thermo import monotone_root

from conftest import brute_fd, mp_thermo


def oracle_mu(t):
    """Bisection on the particle-number constraint with the quadrature f_3."""
    g = lambda m: 6.0 * t ** 3 * brute_fd(3.0, m / t) - 1.0
    return brentq(g, fg.classical_mu(t) - 5.0 * t, 1.0 + 5.0 * t,
                  xtol=1e-14, rtol=8.9e-16)


def c_by_fd_orders(eta):
    """c of eta = m/t by the public fd_orders: the plain ratio below eta = 1,
    else the inversion identity of the thermo module docstring."""
    if eta < 1.0:
        f2, f3, f4 = fg.fd_orders((2, 3, 4), eta)
        return 12.0 * f4 / f3 - 9.0 * f3 / f2
    r2, r3, r4 = fg.fd_orders((2, 3, 4), -eta)
    e2, pi2 = eta * eta, math.pi ** 2
    y = pi2 / e2
    p2, p3 = 0.5 * e2 + pi2 / 6.0, eta * (e2 + pi2) / 6.0
    p4 = e2 * e2 / 24.0 + pi2 * e2 / 12.0 + 7.0 * pi2 * pi2 / 360.0
    d = (pi2 * e2 * e2 / 12.0 * (1.0 + 0.4 * y + (7.0 / 15.0) * y * y)
         - 12.0 * (p4 * r2 + p2 * r4 - r2 * r4) - 9.0 * (2.0 * p3 * r3 + r3 * r3))
    return d / ((p3 + r3) * (p2 - r2))


def test_heat_capacity_is_the_fd_orders_formula():
    # bit for bit, with f_2..f_4 in the series and Taylor regimes
    bands = set()
    for t in np.logspace(-3, 3, 61).tolist():
        eta = fg.solve_mu(t) / t
        assert fg.heat_capacity(t) == c_by_fd_orders(eta)
        bands.add(fdint.band(2.0, eta if eta < 1.0 else -eta))
    assert bands == {"series", "taylor"}


def test_readme_solve_mu_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = next(ln for ln in readme.splitlines() if ln.startswith("fg.solve_mu(0.5)"))
    shown = line.split("# -> ")[1].strip()
    assert shown == repr(fg.solve_mu(0.5))
    # the printed root is within 3 ulp of mpmath's (0.218013064087795641 at 40 digits)
    with mpmath.workdps(40):
        exact = float(mp_thermo(0.5)[0])
    assert abs(float(shown) - exact) <= 3e-16 * exact


def test_zero_temperature_value():
    assert fg.solve_mu(0.0) == 1.0


def test_frozen_oracle_values():
    # pinned by bisection on the quadrature route
    assert fg.solve_mu(0.1) == pytest.approx(0.96711344725528197, rel=1e-12)
    assert fg.solve_mu(0.5) == pytest.approx(0.21801306408779564, rel=1e-12)
    assert fg.solve_mu(2.0) == pytest.approx(-7.7372054287300583, rel=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_against_live_bisection_oracle(t):
    assert fg.solve_mu(t) == pytest.approx(oracle_mu(t), abs=1e-9)


def test_constraint_residual():
    for t in np.geomspace(0.01, 1000.0, 25):
        residual = 6.0 * t ** 3 * fg.fd(3.0, fg.solve_mu(t) / t) - 1.0
        assert abs(residual) <= 1e-12


def test_sommerfeld_form():
    assert fg.sommerfeld_mu(0.0) == 1.0
    assert fg.sommerfeld_mu(0.3) == pytest.approx(1.0 - math.pi ** 2 * 0.03, rel=1e-15)
    assert fg.sommerfeld_mu(0.5) == pytest.approx(1.0 - math.pi ** 2 / 12.0, rel=1e-15)


def test_classical_form():
    assert fg.classical_mu(1.0) == pytest.approx(-math.log(6.0), rel=1e-15)
    assert fg.classical_mu(6.0 ** (-1.0 / 3.0)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        fg.classical_mu(0.0)


@pytest.mark.parametrize("form, name, t", [
    (fg.sommerfeld_mu, "Sommerfeld", 1e300), (fg.sommerfeld_mu, "Sommerfeld", 1.7e308),
    (fg.classical_mu, "classical", 1.7e308)])
def test_limiting_forms_refuse_to_overflow(form, name, t):
    # t^2, or t times the log, leaves the float range: a value of m would be -inf
    with pytest.raises(DomainError, match=rf"^reduced temperature must keep the {name} form "
                                          rf"of m finite, got {re.escape(repr(t))}$"):
        form(t)
    # finite values keep their bits: the forms as written, at the edge of the range
    for t in (1e-300, 0.3, 2.0, 1e100, 1e153):
        assert fg.sommerfeld_mu(t) == 1.0 - (math.pi ** 2 / 3.0) * t * t
    for t in (5e-324, 0.3, 2.0, 1e100, 1e304):
        assert fg.classical_mu(t) == -t * (math.log(6.0) + 3.0 * math.log(t))


def test_sommerfeld_agreement_window():
    # the 0.02 agreement of the low-t form actually extends to t ~ 0.42;
    # over the full [0, 0.5] range the gap peaks near 0.0405 at t = 0.5
    ts = np.linspace(0.0, 0.42, 85)
    gaps = [abs(fg.solve_mu(t) - fg.sommerfeld_mu(t)) for t in ts]
    assert max(gaps) <= 0.02
    full = [abs(fg.solve_mu(t) - fg.sommerfeld_mu(t)) for t in np.linspace(0, 0.5, 101)]
    assert 0.035 <= max(full) <= 0.045


def test_classical_agreement_window():
    # the 0.02 agreement of the classical form starts near t ~ 1.05; the
    # gap at the window edge t = 0.6 is about 0.054
    ts = np.linspace(1.05, 2.0, 96)
    gaps = [abs(fg.solve_mu(t) - fg.classical_mu(t)) for t in ts]
    assert max(gaps) <= 0.02
    full = [abs(fg.solve_mu(t) - fg.classical_mu(t)) for t in np.linspace(0.6, 2.0, 141)]
    assert 0.045 <= max(full) <= 0.06


@pytest.mark.parametrize("t", [0.2, 0.1, 0.05])
def test_sommerfeld_deviation_decays_faster_than_cubic(t):
    diff = abs(fg.solve_mu(t) - fg.sommerfeld_mu(t))
    diff_half = abs(fg.solve_mu(t / 2.0) - fg.sommerfeld_mu(t / 2.0))
    assert diff_half <= diff / 8.0


def test_internal_energy_anchors():
    assert fg.internal_energy(0.0) == 0.75
    assert fg.internal_energy(10.0) == pytest.approx(30.0, abs=0.01)


def test_internal_energy_monotone():
    ts = np.linspace(0.0, 5.0, 41)
    us = [fg.internal_energy(t) for t in ts]
    assert all(b > a for a, b in zip(us, us[1:]))


@pytest.mark.parametrize("t_end", [0.5, 2.0])
def test_energy_integrates_heat_capacity(t_end):
    integral, _ = quad(fg.heat_capacity, 1e-12, t_end, limit=300)
    assert abs(fg.internal_energy(t_end) - 0.75 - integral) <= 1e-6


def test_heat_capacity_limits():
    assert fg.heat_capacity(0.01) / 0.01 == pytest.approx(math.pi ** 2, rel=0.01)
    assert fg.heat_capacity(50.0) == pytest.approx(3.0, rel=0.01)


def test_heat_capacity_low_t_against_mpmath():
    # 12 f4/f3 - 9 f3/f2 cancels about 2 log10(eta) digits: 1.4 relative at
    # t = 1e-8 when taken in double precision
    for t in np.geomspace(1e-8, 0.033, 14):
        with mpmath.workdps(30 + 2 * int(-math.log10(t)) + 4):
            exact = mp_thermo(float(t))[2]
            assert abs((fg.heat_capacity(float(t)) - exact) / exact) <= 1e-13, t


def _t_at_eta(eta):
    """The reduced temperature at which m(t)/t = eta."""
    return brentq(lambda t: fg.solve_mu(t) / t - eta, 1e-3, 5.0, xtol=1e-17, rtol=8.9e-16)


def test_heat_capacity_against_mpmath_to_3e_15():
    # the inversion identity keeps every digit for eta >= 1; the Sommerfeld
    # closed form it replaced was 7.0e-14 off just above eta = 30, and the
    # plain ratio 1.5e-13 off at t = 0.0345774...
    t30, t1 = _t_at_eta(30.0), _t_at_eta(1.0)
    ts = np.linspace(0.01, 0.7, 120).tolist() + [0.03457743402881695, t30 * (1.0 - 1e-12),
                                                  t30, t1 * (1.0 - 1e-12), t1]
    for t in ts:
        with mpmath.workdps(40):
            exact = mp_thermo(t)[2]
            assert abs((fg.heat_capacity(t) - exact) / exact) <= 3e-15, t


def test_heat_capacity_continuous_across_eta_one():
    # plain ratio just below eta = 1, inversion identity at and above it
    below, at = (c_by_fd_orders(e) for e in (math.nextafter(1.0, 0.0), 1.0))
    assert abs(at - below) <= 3e-15 * at
    t1 = _t_at_eta(1.0)
    cs = [fg.heat_capacity(t1 * (1.0 + k * 1e-12)) for k in range(-3, 4)]
    steps = [b - a for a, b in zip(cs, cs[1:])]
    assert all(abs(d - steps[0]) <= 4e-15 * at for d in steps)


def test_heat_capacity_zero_temperature_limit():
    for t in (0.0, -0.0):
        c = fg.heat_capacity(t)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0


def test_heat_capacity_matches_energy_derivative():
    h = 1e-4
    numeric = (fg.internal_energy(0.5 + h) - fg.internal_energy(0.5 - h)) / (2.0 * h)
    assert abs(fg.heat_capacity(0.5) - numeric) <= 1e-6


def test_heat_capacity_positive_and_monotone():
    ts = np.geomspace(0.005, 30.0, 60)
    cs = [fg.heat_capacity(t) for t in ts]
    assert all(c > 0 for c in cs)
    assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))


def test_thermo_state_zero_is_symbolic():
    st0 = fg.thermo_state(0.0)
    assert (st0.m, st0.u, st0.c) == (1.0, 0.75, 0.0)


def test_thermo_curve_single_zero_point():
    mu, c = fg.thermo_curve([0.0])
    assert mu.samples == ((0.0, 1.0),)
    assert c.samples == ((0.0, 0.0),)


def test_thermo_curve_small_grid_monotone():
    mu, _ = fg.thermo_curve([0.25, 0.5, 0.75, 1.0])
    ms = [m for _, m in mu.samples]
    assert all(b < a for a, b in zip(ms, ms[1:]))


def test_thermo_curve_thousand_point_property_run():
    mu, c = fg.thermo_curve(np.linspace(0.001, 2.0, 1000))
    ms = [m for _, m in mu.samples]
    assert all(b < a for a, b in zip(ms, ms[1:]))
    assert all(y > 0 for _, y in c.samples)


def test_thermo_curve_equals_pointwise_calls():
    # eta = m/t on both sides of 1, where c switches to the inversion
    # identity, and of 30; then the CLI's default grid and 3000 log-spaced t
    for ts in ([0.0, 1e-10, 1e-4, 0.02, 0.0329, 0.0331, 0.05, 0.425, 0.426, 0.5, 3.0],
               np.linspace(0.0, 2.0, 200).tolist(), np.geomspace(1.1e-9, 50.0, 3000).tolist()):
        mu, c = fg.thermo_curve(ts)
        assert mu.samples == tuple((t, fg.solve_mu(t)) for t in ts)
        assert c.samples == tuple((t, fg.heat_capacity(t) if t else 0.0) for t in ts)


def test_thermo_curve_solves_each_t_once_past_the_cache_size():
    # 5,000 temperatures, more than solve_mu's cache holds: c is formed from the
    # m just solved, so each t misses once and is never looked up again
    fg.solve_mu.cache_clear()
    try:
        fg.thermo_curve(np.geomspace(1e-3, 5.0, 5000).tolist())
        info = fg.solve_mu.cache_info()
    finally:
        fg.solve_mu.cache_clear()
    assert (info.misses, info.hits) == (5000, 0)


def _eta_one_crossing():
    """The adjacent t below and above which eta = m/t falls from >= 1 to < 1."""
    below, above = 0.4, 0.45
    while math.nextafter(below, 1.0) < above:
        mid = 0.5 * (below + above)
        below, above = (mid, above) if fg.solve_mu(mid) / mid >= 1.0 else (below, mid)
    return below, above


def _state_temperatures():
    """t = 0, the subnormal and _TINY_T edges, eta = 1 and a seeded log sweep."""
    below, above = _eta_one_crossing()
    tiny = thermo._TINY_T
    rng = np.random.default_rng(4245)
    sweep = 10.0 ** rng.uniform(-300.0, math.log10(3e102), 400)
    return ([0.0, 5e-324, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0),
             math.nextafter(below, 0.0), below, above, math.nextafter(above, 1.0), 0.4245,
             3e102] + sweep.tolist())


def test_thermo_state_has_the_bits_of_its_functions():
    below, above = _eta_one_crossing()
    assert fg.solve_mu(below) / below >= 1.0 > fg.solve_mu(above) / above
    ts = _state_temperatures()
    for t in ts:
        state = fg.thermo_state(t)
        assert (state.m.hex(), state.u.hex(), state.c.hex()) == (
            fg.solve_mu(t).hex(), fg.internal_energy(t).hex(), fg.heat_capacity(t).hex()), t
    mu, c = fg.thermo_curve(sorted(ts))
    assert [m.hex() for _, m in mu.samples] == [fg.solve_mu(t).hex() for t in sorted(ts)]
    assert [x.hex() for _, x in c.samples] == [fg.heat_capacity(t).hex() for t in sorted(ts)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The orders of each _closed_forms call made by thermo and profiles, and
    the count of solve_mu's pair-loop calls."""
    calls, pairs = [], [0]
    closed_forms, pair = thermo._closed_forms, thermo._f3_f2

    def counted(ks, eta):
        calls.append(ks)
        return closed_forms(ks, eta)

    def counted_pair(eta):
        pairs[0] += 1
        return pair(eta)

    monkeypatch.setattr(thermo, "_closed_forms", counted)
    monkeypatch.setattr(profiles, "_closed_forms", counted)
    monkeypatch.setattr(thermo, "_f3_f2", counted_pair)
    return SimpleNamespace(calls=calls, pairs=pairs)


KERNEL_TS = (1e-8, 1e-3, 0.3, 0.4245, 0.5, 5.0, 1e50)


def test_thermo_state_makes_one_kernel_pass_after_its_solve(kernel_calls):
    for t in KERNEL_TS:
        fg.solve_mu(t)  # cached, so thermo_state's solve evaluates nothing
        kernel_calls.calls.clear()
        fg.thermo_state(t)
        assert kernel_calls.calls == [(4.0,)], t


@pytest.mark.parametrize("entry", [fg.internal_energy, fg.heat_capacity])
def test_warm_energy_and_heat_capacity_make_one_f4_call(kernel_calls, entry):
    for t in KERNEL_TS:
        fg.solve_mu(t)
        kernel_calls.calls.clear()
        entry(t)
        assert kernel_calls.calls == [(4.0,)], t


def test_warm_normalization_evaluates_no_kernel(kernel_calls):
    for t in KERNEL_TS:
        fg.solve_mu(t)
        kernel_calls.calls.clear()
        kernel_calls.pairs[0] = 0
        fg.normalization(t)
        assert (kernel_calls.calls, kernel_calls.pairs[0]) == ([], 0), t


def test_thermo_curve_makes_one_f4_call_per_warm_t(kernel_calls):
    # cold: the solves step only the pair loop, and each t > _TINY_T adds one f_4
    fg.solve_mu.cache_clear()
    ts = [0.0, thermo._TINY_T, *sorted(KERNEL_TS)]
    fg.thermo_curve(ts)
    assert kernel_calls.calls == [(4.0,)] * sum(t > thermo._TINY_T for t in ts)
    assert kernel_calls.pairs[0] >= len(KERNEL_TS)


def test_cache_clear_drops_the_kept_kernel_values(kernel_calls):
    for t in KERNEL_TS:
        fg.solve_mu(t)
        fg.solve_mu.cache_clear()
        kernel_calls.pairs[0] = 0
        for entry in (fg.normalization, fg.internal_energy, fg.heat_capacity):
            entry(t)  # the first solves again, the others find it cached
        assert kernel_calls.pairs[0] >= 1, t
        assert fg.solve_mu.cache_info().misses == 1, t


def test_kept_values_are_the_closed_forms_at_the_returned_m():
    rng = np.random.default_rng(4344)
    ts = [thermo._TINY_T * 1.0000001, *_eta_one_crossing(), 3e102,
          *(10.0 ** rng.uniform(-9.0, math.log10(3e102), 300)).tolist()]
    for t in ts:
        fg.solve_mu.cache_clear()
        m, f3, a3, a2 = thermo._solved(t)
        eta = m / t
        assert m == fg.solve_mu(t)
        expected = fdint._closed_forms((3.0, 2.0), eta if eta < 1.0 else -eta)
        assert [a3.hex(), a2.hex()] == [v.hex() for v in expected], t
        assert f3.hex() == fdint._closed_forms((3.0,), eta)[0].hex(), t
    fg.solve_mu.cache_clear()


@pytest.fixture
def trapezoid_calls(monkeypatch):
    """Counts calls of the half-integer FD evaluator; solve_mu's cache starts cold."""
    count = [0]
    trapezoid = fdint._trapezoid

    def counted(k, eta):
        count[0] += 1
        return trapezoid(k, eta)

    monkeypatch.setattr(fdint, "_trapezoid", counted)
    fg.solve_mu.cache_clear()
    yield count
    fg.solve_mu.cache_clear()


def test_one_rule_pass_per_newton_step_of_a_grid(trapezoid_calls):
    # f_2, f_3 and f_4 are closed forms: the thermodynamics never reaches the
    # half-integer evaluator
    fg.thermo_curve(np.linspace(0.0, 2.0, 200))
    assert trapezoid_calls[0] == 0
    # a cold scalar c: every Newton step and then f_2, f_3, f_4
    fg.heat_capacity(0.3)
    assert trapezoid_calls[0] == 0


@pytest.mark.parametrize("solve, first, regime", [
    pytest.param(fg.solve_mu, r"t=0\.5, eta=0\.43\d*", "taylor", id="scalar"),
    pytest.param(lambda t: fg.thermo_curve([0.1, t]), r"t=0\.1, eta=9\.6\d*", "reflection",
                 id="grid"),  # names the first failing t
])
def test_residual_failure_names_t_eta_and_band(monkeypatch, solve, first, regime):
    monkeypatch.setattr(thermo, "_RESIDUAL_TOL", -1.0)  # every residual fails
    fg.solve_mu.cache_clear()
    with pytest.raises(NumericsError, match=r"constraint residual -?\d\.\d{3}e[-+]\d+ above "
                                            rf"tolerance at {first} \({regime} band\)"):
        solve(0.5)
    fg.solve_mu.cache_clear()


def test_failed_solve_names_its_temperature_and_keeps_nothing(monkeypatch):
    # a constant f_3 makes the residual positive at every m, the bracket's low end too
    monkeypatch.setattr(thermo, "_f3_f2", lambda eta: (1.0, 1.0))
    fg.solve_mu.cache_clear()
    with pytest.raises(NumericsError, match=r"^chemical-potential solve at t=2\.0: bracket "):
        fg.solve_mu(2.0)
    assert fg.solve_mu.cache_info().currsize == 0
    monkeypatch.undo()
    assert fg.solve_mu(2.0) == pytest.approx(fg.classical_mu(2.0), rel=0.05)
    assert fg.solve_mu.cache_info().misses == 2
    fg.solve_mu.cache_clear()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int-1e400")])
@pytest.mark.parametrize("entry", [
    fg.solve_mu, fg.internal_energy, fg.heat_capacity, fg.thermo_state,
    lambda t: fg.thermo_curve([0.1, t]), lambda t: fg.profile_curves([t]),
    lambda t: fg.density(0.5, t), lambda t: fg.momentum_density(0.5, t),
    fg.mean_square_size, fg.normalization,
    lambda t: fg.phase_space_occupancy(0.5, 0.5, t, 1.0),
    lambda t: fg.msd_curve([0.1, t]),
])
def test_nonfinite_temperature_rejected(entry, bad):
    got = "an integer beyond the float range" if isinstance(bad, int) else repr(bad)
    with pytest.raises(DomainError, match="reduced temperature must be finite and "
                                          f"non-negative, got {got}"):
        entry(bad)


def test_domain_errors():
    with pytest.raises(DomainError):
        fg.solve_mu(-0.1)
    with pytest.raises(DomainError):
        fg.heat_capacity(-0.1)
    with pytest.raises(DomainError):
        fg.internal_energy(-1.0)
    with pytest.raises(DomainError):
        fg.thermo_curve([])
    with pytest.raises(DomainError):
        fg.thermo_curve([0.2, 0.1])
    with pytest.raises(DomainError):
        fg.thermo_curve([-0.5, 0.1])
    with pytest.raises(DomainError):
        fg.msd_curve([])
    with pytest.raises(DomainError):
        fg.msd_curve([0.2, 0.1])


@pytest.mark.parametrize("entry, t", [
    (fg.solve_mu, 4e102), (fg.solve_mu, 6e102),
    (fg.heat_capacity, 1e200), (fg.normalization, 1e200),
    (lambda t: fg.density(0.5, t), 1e200), (lambda t: fg.thermo_curve([t]), 1e300),
    pytest.param(lambda t: fg.msd_curve([0.5, t]), 1e300, id="msd_curve-1e+300"),
    pytest.param(lambda t: fg.profile_curves([0.5, t]), 1e200, id="profile_curves-1e+200"),
])
def test_overflowing_temperature_rejected(entry, t):
    with pytest.raises(DomainError, match=f"reduced temperature .*got {re.escape(repr(t))}"):
        entry(t)


def _msd_curve_last(t):
    return fg.msd_curve([0.5, t]).samples[-1][1]


@pytest.mark.parametrize("entry, t, per_t", [
    pytest.param(fg.internal_energy, 1e77, 3.0, id="internal_energy-1e+77"),
    pytest.param(fg.internal_energy, 1.2e77, 3.0, id="internal_energy-1.2e+77"),
    pytest.param(fg.mean_square_size, 1e77, 1.5, id="mean_square_size-1e+77"),
    pytest.param(_msd_curve_last, 1e77, 1.5, id="msd_curve-1e+77"),
])
def test_accepted_above_the_former_energy_cap(entry, t, per_t):
    # u and <rho^2> once refused t above 5e76; now u = 3t and <rho^2> = 3t/2 there
    assert entry(t) == pytest.approx(per_t * t, rel=1e-12)


@pytest.mark.parametrize("entry, per_t", [
    pytest.param(fg.internal_energy, 3.0, id="internal_energy"),
    pytest.param(fg.mean_square_size, 1.5, id="mean_square_size"),
    pytest.param(_msd_curve_last, 1.5, id="msd_curve"),
])
def test_energy_takes_the_chemical_potential_cap(entry, per_t):
    # the classical limits u = 3t and <rho^2> = 3t/2 hold up to m's cap,
    # and above it the refusal names m
    for t in np.geomspace(1e77, 3e102, 12).tolist():
        assert entry(t) == pytest.approx(per_t * t, rel=1e-12)
    with pytest.raises(DomainError, match=re.escape("at most 3e+102 for m, got 4e+102")):
        entry(4e102)


def test_internal_energy_against_mpmath():
    # over m's whole domain, 40 digits against the double's 1.1e-16
    with mpmath.workdps(40):
        for t in np.geomspace(1e-3, 3e102, 40).tolist():
            exact = mp_thermo(t)[1]
            assert abs(mpmath.mpf(fg.internal_energy(t)) / exact - 1) <= 1e-15, t


def test_largest_temperatures_accepted():
    # the classical limits u = 3t, m = -t ln(6 t^3) just below the caps
    assert fg.internal_energy(5e76) == pytest.approx(1.5e77, rel=1e-12)
    t = 3e102
    assert fg.solve_mu(t) == pytest.approx(-t * math.log(6.0 * t ** 3), rel=1e-12)


@given(t1=st.floats(0.0, 5.0), gap=st.floats(1e-3, 1.0))
@settings(max_examples=40, deadline=None)
def test_chemical_potential_strictly_decreasing(t1, gap):
    assert fg.solve_mu(t1 + gap) < fg.solve_mu(t1)


def test_cube_root_to_the_last_bits():
    root, residual = monotone_root(lambda x: (x ** 3 / 2.0 - 1.0, 1.5 * x * x),
                                   0.0, 4.0)
    assert abs(root - 2.0 ** (1 / 3)) <= 2 * math.ulp(root)
    assert residual == root ** 3 / 2.0 - 1.0


def test_bisects_where_the_slope_underflows():
    # exp(-800) underflows, so the first Newton step is replaced by bisection
    root, _ = monotone_root(lambda x: (math.exp(x) / 2.0 - 1.0, math.exp(x) / 2.0),
                            -800.0, 10.0)
    assert root == pytest.approx(math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("lo, hi", [(2.0, 4.0), (-4.0, -2.0), (4.0, 0.0)])
def test_bracket_must_straddle_the_root(lo, hi):
    with pytest.raises(NumericsError, match="straddle"):
        monotone_root(lambda x: (x, 1.0), lo, hi)


def test_a_start_near_the_root_evaluates_no_end():
    evaluations = []

    def cube(x):
        evaluations.append(x)
        return x ** 3 / 2.0 - 1.0, 1.5 * x * x

    root, residual = monotone_root(cube, 0.0, 4.0, 1.2)
    assert abs(root - 2.0 ** (1 / 3)) <= 2 * math.ulp(root)
    assert residual == root ** 3 / 2.0 - 1.0
    assert evaluations[0] == 1.2 and not {0.0, 4.0} & set(evaluations)


@pytest.mark.parametrize("lo, hi, start, crossed", [(2.0, 4.0, 3.0, 2.0),
                                                    (-4.0, -2.0, -3.0, -2.0)])
def test_start_in_a_bracket_that_misses_the_root(lo, hi, start, crossed):
    # the first Newton step aims at the root 0 beyond one end; that end alone
    # is evaluated, and its residual shows the bracket does not straddle
    evaluations = []

    def line(x):
        evaluations.append(x)
        return x, 1.0

    with pytest.raises(NumericsError, match="straddle"):
        monotone_root(line, lo, hi, start)
    assert evaluations == [start, crossed]


def _cold_solve_evaluations(monkeypatch, ts):
    """Constraint evaluations of each solve_mu(t), each run on an empty cache:
    the calls of the pair loop, which each evaluation makes once."""
    counts = []
    pair = thermo._f3_f2

    def counted(eta):
        counts[-1] += 1
        return pair(eta)

    monkeypatch.setattr(thermo, "_f3_f2", counted)
    for t in ts:
        fg.solve_mu.cache_clear()
        counts.append(0)
        fg.solve_mu(t)
    fg.solve_mu.cache_clear()
    # the spy sees every solve; t <= _TINY_T (here 1e-9) takes m = 1 unsolved
    assert all(n >= 1 for t, n in zip(ts, counts) if t > thermo._TINY_T)
    return counts


def test_cold_solve_starts_near_the_root(monkeypatch):
    # Newton from _mu_estimate: 7.5 evaluations per solve from the bracket
    # ends on [1e-3, 5], and 119 on [1e-9, 3e102], where the bracket is huge
    counts = _cold_solve_evaluations(monkeypatch, np.geomspace(1e-3, 5.0, 200).tolist())
    assert sum(counts) / len(counts) <= 3.5
    assert max(counts) <= 10
    counts = _cold_solve_evaluations(monkeypatch, np.geomspace(1e-9, 3e102, 200).tolist())
    assert sum(counts) / len(counts) <= 3.5
    assert max(counts) <= 10


def test_no_convergence_within_the_step_cap():
    # a slope of 1e-300 sends every Newton step out of the bracket, and 200
    # bisections leave [-1e300, 1e300] about 1e240 wide
    with pytest.raises(NumericsError, match=r"no convergence in 200 steps on \["):
        monotone_root(lambda x: (x - 1.0, 1e-300), -1e300, 1e300)


def _recorded(g):
    """g, and the list of the points it is evaluated at."""
    evaluations = []

    def recording(x):
        evaluations.append(x)
        return g(x)
    return recording, evaluations


# r = x - 1 with slope 1: one Newton step from anywhere lands on the root 1
@pytest.mark.parametrize("lo, hi, start, sequence", [
    pytest.param(0.0, 4.0, -1.0, [0.0, 1.0], id="clamped-onto-lo"),
    pytest.param(0.0, 4.0, 9.0, [4.0, 1.0], id="clamped-onto-hi"),
])
def test_a_start_clamped_onto_a_straddling_end(lo, hi, start, sequence):
    g, evaluations = _recorded(lambda x: (x - 1.0, 1.0))
    assert monotone_root(g, lo, hi, start) == (1.0, 0.0)
    assert evaluations == sequence


@pytest.mark.parametrize("lo, hi, start, text", [
    pytest.param(2.0, 4.0, 0.0, "bracket [2.0, 4.0] does not straddle the root "
                                "(residual 1.000e+00 at 2.0)", id="clamped-onto-lo"),
    pytest.param(-4.0, -2.0, 0.0, "bracket [-4.0, -2.0] does not straddle the root "
                                  "(residual -3.000e+00 at -2.0)", id="clamped-onto-hi"),
])
def test_a_start_clamped_onto_an_end_that_misses_the_root(lo, hi, start, text):
    g, evaluations = _recorded(lambda x: (x - 1.0, 1.0))
    with pytest.raises(NumericsError) as info:
        monotone_root(g, lo, hi, start)
    assert str(info.value) == text
    assert evaluations == [min(max(lo, start), hi)]


@pytest.mark.parametrize("start, ends, text", [
    pytest.param(3.0, (2.0, 4.0), "bracket [2.0, 3.0] does not straddle the root "
                                  "(residual 2.000e+00 at 2.0)", id="across-lo"),
    pytest.param(-3.0, (-4.0, -2.0), "bracket [-3.0, -2.0] does not straddle the root "
                                     "(residual -2.000e+00 at -2.0)", id="across-hi"),
])
def test_a_step_across_an_unseen_end_that_misses_the_root(start, ends, text):
    # the first evaluation has already moved the end on the start's side
    g, evaluations = _recorded(lambda x: (x, 1.0))
    with pytest.raises(NumericsError) as info:
        monotone_root(g, *ends, start)
    assert str(info.value) == text
    assert evaluations == [start, ends[0] if start > 0.0 else ends[1]]


def test_a_step_across_an_unseen_end_then_across_an_evaluated_one():
    # slope 1/4 for r = x - 1: each Newton step goes 4 times too far.  From 2
    # it crosses lo = 0, not yet evaluated, so 0 is; from 0 it crosses hi = 2,
    # evaluated, so the search bisects [0, 2] and meets the root
    g, evaluations = _recorded(lambda x: (x - 1.0, 0.25))
    assert monotone_root(g, 0.0, 3.0, 2.0) == (1.0, 0.0)
    assert evaluations == [2.0, 0.0, 1.0]


def test_the_four_ulp_stop_once_both_ends_straddle():
    # a step residual of +-1e-3 with slope 1e-3: every Newton step is +-1, so
    # after the first two the search only bisects, until [lo, hi] around 1 is
    # at most 4 ulp wide; the last iterate and its residual are returned
    g, evaluations = _recorded(lambda x: (-1e-3 if x < 1.0 else 1e-3, 1e-3))
    root, residual = monotone_root(g, 0.0, 2.0, 0.5)
    assert evaluations[:4] == [0.5, 1.5, 1.0, 0.75]
    below = [x for x in evaluations if x < 1.0]
    above = [x for x in evaluations if x >= 1.0]
    assert 1.0 - max(below) <= 4.0 * math.ulp(1.0) < 1.0 - max(below[:-1])
    assert min(above) == 1.0 and (root, residual) == (evaluations[-1], -1e-3)
    assert len(evaluations) == 52


def test_no_convergence_names_the_last_bracket():
    g, evaluations = _recorded(lambda x: (x - 1.0, 1e-300))
    with pytest.raises(NumericsError) as info:
        monotone_root(g, -1e300, 1e300)
    assert len(evaluations) == 200
    lo = max(x for x in evaluations if x < 1.0)
    hi = min(x for x in evaluations if x >= 1.0)
    assert str(info.value) == f"no convergence in 200 steps on [{lo!r}, {hi!r}]"
