import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import fermigas as fg
from fermigas import BoseParams, DomainError


def big_cloud(n=100_000, lam=1.0, u=0.5):
    return BoseParams(n_particles=n, lam=lam, u_bose=u)


def test_unit_cancellation_radius():
    n, lam = 1000, 2.0
    with pytest.warns(UserWarning):
        p = BoseParams(n, lam, u_bose=4.0 * math.pi / (15.0 * lam * n))
    assert fg.bose_radius(p) == pytest.approx(1.0, rel=1e-13)


def test_radius_particle_number_exponent():
    p1 = big_cloud(n=10_000)
    p2 = big_cloud(n=20_000)
    assert fg.bose_radius(p2) / fg.bose_radius(p1) == pytest.approx(
        2.0 ** 0.2, rel=1e-14)


def test_profile_edge_and_center():
    p = big_cloud()
    rb = fg.bose_radius(p)
    assert fg.bose_profile(1.0, p) == 0.0
    assert fg.bose_profile(1.7, p) == 0.0
    assert fg.bose_profile(0.0, p) == pytest.approx(rb * rb / (2.0 * p.u_bose), rel=1e-14)


def test_profile_normalizes_to_particle_number():
    p = big_cloud(n=50_000, lam=math.sqrt(8.0), u=0.3)
    rb = fg.bose_radius(p)
    mass, _ = quad(lambda rho: fg.bose_profile(rho / rb, p) * 4.0 * math.pi * rho ** 2,
                   0.0, rb, limit=200, epsrel=1e-12)
    assert mass / p.lam == pytest.approx(p.n_particles, rel=1e-8)


def test_radius_matches_brute_force_normalization():
    # integrate the inverted parabola with a trial radius and solve for the
    # radius that holds N particles; independent of the closed form
    p = big_cloud(n=30_000, lam=2.0, u=0.8)

    def count(r):
        mass, _ = quad(
            lambda rho: (r * r / (2.0 * p.u_bose)) * (1.0 - rho ** 2 / r ** 2)
            * 4.0 * math.pi * rho ** 2, 0.0, r, limit=200, epsrel=1e-12)
        return mass / p.lam - p.n_particles

    r_brute = brentq(count, 1.0, 100.0, xtol=1e-12)
    assert fg.bose_radius(p) == pytest.approx(r_brute, rel=1e-9)


def test_scattering_length_conversion():
    p = BoseParams(n_particles=10_000, lam=1.0, a_scatt=0.05)
    assert p.u_bose == pytest.approx(4.0 * math.pi * 0.05, rel=1e-14)
    with pytest.raises(DomainError):
        BoseParams(10_000, 1.0)
    with pytest.raises(DomainError):
        BoseParams(10_000, 1.0, u_bose=1.0, a_scatt=1.0)
    with pytest.raises(DomainError):
        BoseParams(10_000, 1.0, u_bose=-1.0)


@pytest.mark.parametrize("kwargs, given", [
    (dict(n_particles=1000, lam=1.0, a_scatt=1e308), "a_scatt = 1e+308"),  # U = 4 pi a is inf
    (dict(n_particles=1000, lam=1.0, a_scatt=1e307), "a_scatt = 1e+307"),
    (dict(n_particles=1e300, lam=1.0, u_bose=1e300), "u_bose = 1e+300"),
])
def test_bose_radius_past_the_float_range_names_the_given_argument(kwargs, given):
    with pytest.raises(DomainError, match=rf"^{re.escape(given)} at n_particles = .*: "
                                          r"R_B\^5 = 15 lambda U N/\(4 pi\) leaves the float range$"):
        BoseParams(**kwargs)


def test_thomas_fermi_warning_threshold():
    with pytest.warns(UserWarning, match="Thomas-Fermi"):
        BoseParams(10, 1.0, u_bose=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big_cloud()  # TF parameter far above the floor: no warning


def test_pauli_pseudopotential_li6():
    sc = fg.derive_scales(fg.PRESETS["li6-top"])
    pauli = fg.pauli_pseudopotential(sc)
    assert pauli.u_eff == pytest.approx(sc.e_fermi * sc.r_fermi ** 3 / 1e5, rel=1e-14)
    assert pauli.kf_a_eff == 1.0
    # interparticle spacing approx 0.1 micron
    assert abs(pauli.a_eff - 0.1e-6) <= 0.02e-6


@pytest.mark.parametrize("mass, omega_r, lam, n", [(1e-200, 1e-100, 1.0, 1000),
                                                  (1e100, 1e100, 1.0, 1000),
                                                  (1e-270, 1e30, 1e-6, 1)],
                         ids=["r_fermi_cubed_overflows", "u_eff_underflows",
                              "trap_units_overflow"])
def test_pauli_pseudopotential_outside_the_float_range_rejected(mass, omega_r, lam, n):
    # the SI scales are in range (R_F = 6.2e133 m, then 6.2e-117 m), but
    # E_F R_F^3/N is not: R_F^3 overflows, then rounds to 0; in the third
    # trap u_eff is in range, but sigma_r^3 overflows, so u_eff in units of
    # hbar omega_r sigma_r^3 is not
    sc = fg.derive_scales(fg.TrapSpec(mass=mass, omega_r=omega_r, lam=lam, n_particles=n))
    message = (f"mass = {mass!r} and omega_r = {omega_r!r} give a Pauli pseudopotential "
               "outside the float range")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fg.pauli_pseudopotential(sc)


def test_pauli_mimicry_radius_within_order_unity():
    spec = fg.PRESETS["li6-top"]
    sc = fg.derive_scales(spec)
    pauli = fg.pauli_pseudopotential(sc)
    u_trap = pauli.u_eff / (sc.level_spacing * sc.sigma_r ** 3)
    p = BoseParams(spec.n_particles, spec.lam, u_bose=u_trap)
    ratio = fg.bose_radius(p) * sc.sigma_r / sc.r_fermi
    assert 1.0 / 3.0 <= ratio <= 3.0


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_size_and_energy_scaling_exponents():
    ns = np.array([10 ** k for k in range(3, 8)], dtype=float)
    r_f, e_f, r_b, mu_b = [], [], [], []
    for n in ns:
        sc = fg.derive_scales(fg.TrapSpec(9.988e-27, 3800.0, 1.0, int(n)))
        r_f.append(sc.r_fermi)
        e_f.append(sc.e_fermi)
        p = BoseParams(int(n), 1.0, u_bose=0.5)
        r_b.append(fg.bose_radius(p))
        mu_b.append(fg.bose_chemical_potential(p))
    assert abs(_loglog_slope(ns, r_f) - 1.0 / 6.0) <= 1e-6
    assert abs(_loglog_slope(ns, e_f) - 1.0 / 3.0) <= 1e-6
    assert abs(_loglog_slope(ns, r_b) - 1.0 / 5.0) <= 1e-6
    assert abs(_loglog_slope(ns, mu_b) - 2.0 / 5.0) <= 1e-6


def test_momentum_widths_move_in_opposite_directions():
    n1, n2 = 10_000, 100_000
    k_f = [fg.derive_scales(fg.TrapSpec(9.988e-27, 3800.0, 1.0, n)).k_fermi
           for n in (n1, n2)]
    k_b = [1.0 / fg.bose_radius(BoseParams(n, 1.0, u_bose=0.5)) for n in (n1, n2)]
    assert k_f[1] > k_f[0]
    assert k_b[1] < k_b[0]
