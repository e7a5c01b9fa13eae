import math
import re

import numpy as np
import pytest

import fermigas as fg
from fermigas import DomainError
from fermigas.scales import HBAR, K_BOLTZMANN


def test_li6_preset_exists_and_is_valid():
    spec = fg.PRESETS["li6-top"]
    assert spec.mass == pytest.approx(9.988e-27)
    assert spec.omega_r == 3800.0
    assert spec.lam == pytest.approx(math.sqrt(8.0))
    assert spec.n_particles == 100_000


def test_single_particle_isotropic_fermi_energy():
    spec = fg.TrapSpec(mass=1e-26, omega_r=1000.0, lam=1.0, n_particles=1)
    sc = fg.derive_scales(spec)
    assert sc.e_fermi == pytest.approx(HBAR * 1000.0 * 6.0 ** (1.0 / 3.0), rel=1e-14)


def test_radius_wavenumber_identity():
    for n, lam in ((10, 1.0), (1000, 0.5), (100_000, math.sqrt(8.0))):
        spec = fg.TrapSpec(mass=9.988e-27, omega_r=3800.0, lam=lam, n_particles=n)
        sc = fg.derive_scales(spec)
        assert sc.r_fermi * sc.k_fermi == pytest.approx(
            (48.0 * n * lam) ** (1.0 / 3.0), rel=1e-12)
        assert sc.r_fermi / sc.sigma_r == pytest.approx(
            (48.0 * n * lam) ** (1.0 / 6.0), rel=1e-12)


def test_particle_number_scaling_exponents():
    base = fg.derive_scales(fg.TrapSpec(1e-26, 500.0, 2.0, 4096))
    doubled = fg.derive_scales(fg.TrapSpec(1e-26, 500.0, 2.0, 8192))
    assert doubled.e_fermi / base.e_fermi == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
    assert doubled.r_fermi / base.r_fermi == pytest.approx(2.0 ** (1 / 6), rel=1e-14)
    assert doubled.k_fermi / base.k_fermi == pytest.approx(2.0 ** (1 / 6), rel=1e-14)


def test_level_spacing_has_no_zero_point_offset():
    spec = fg.TrapSpec(1e-26, 777.0, 1.0, 10)
    assert fg.derive_scales(spec).level_spacing == HBAR * 777.0


def test_fermi_temperature_consistency():
    sc = fg.derive_scales(fg.PRESETS["li6-top"])
    assert sc.t_fermi * K_BOLTZMANN == pytest.approx(sc.e_fermi, rel=1e-14)


def test_to_scaled_definition_points():
    spec = fg.PRESETS["li6-top"]
    sc = fg.derive_scales(spec)
    s, q, t = fg.to_scaled(spec, sc.r_fermi, sc.k_fermi, sc.t_fermi)
    assert s == pytest.approx(1.0, rel=1e-14)
    assert q == pytest.approx(1.0, rel=1e-14)
    assert t == pytest.approx(1.0, rel=1e-14)


def test_li6_at_3p5_microkelvin_is_degeneracy_onset():
    spec = fg.PRESETS["li6-top"]
    _, _, t = fg.to_scaled(spec, 0.0, 0.0, 3.5e-6)
    assert abs(t - 1.0) <= 0.02


def test_round_trip_scaling():
    rng = np.random.default_rng(7)
    spec = fg.TrapSpec(9.988e-27, 3800.0, math.sqrt(8.0), 12_345)
    for _ in range(100):
        rho = rng.uniform(0, 1e-4)
        k = rng.uniform(0, 1e8)
        temp = rng.uniform(0, 1e-5)
        s, q, t = fg.to_scaled(spec, rho, k, temp)
        rho2, k2, temp2 = fg.from_scaled(spec, s, q, t)
        assert rho2 == pytest.approx(rho, rel=1e-12, abs=1e-30)
        assert k2 == pytest.approx(k, rel=1e-12, abs=1e-30)
        assert temp2 == pytest.approx(temp, rel=1e-12, abs=1e-30)


def test_negative_temperature_rejected():
    spec = fg.PRESETS["li6-top"]
    with pytest.raises(DomainError):
        fg.to_scaled(spec, 0.0, 0.0, -1e-9)
    with pytest.raises(DomainError):
        fg.from_scaled(spec, 0.0, 0.0, -0.1)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.0, 0.0), "rho must be finite and non-negative, got nan"),
    ((-1.0, 0.0, 0.0), "rho must be finite and non-negative, got -1.0"),
    ((0.0, math.inf, 0.0), "wavenumber must be finite and non-negative, got inf"),
    ((1e308, 0.0, 0.0), "rho = 1e+308 converts to a value past the float range"),
    ((0.0, 0.0, 1e308), "temperature = 1e+308 converts to a value past the float range"),
])
def test_to_scaled_checks_each_argument_and_result(args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fg.to_scaled(fg.PRESETS["li6-top"], *args)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.0, 0.0), "s must be finite and non-negative, got nan"),
    ((0.0, -1.0, 0.0), "q must be finite and non-negative, got -1.0"),
    ((0.0, 0.0, math.inf), "reduced temperature must be finite and non-negative, got inf"),
    ((0.0, 1e308, 0.0), "q = 1e+308 converts to a value past the float range"),
])
def test_from_scaled_checks_each_argument_and_result(args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fg.from_scaled(fg.PRESETS["li6-top"], *args)


@pytest.mark.parametrize("kwargs", [
    dict(mass=0.0, omega_r=1.0, lam=1.0, n_particles=1),
    dict(mass=-1e-26, omega_r=1.0, lam=1.0, n_particles=1),
    dict(mass=1e-26, omega_r=0.0, lam=1.0, n_particles=1),
    dict(mass=1e-26, omega_r=1.0, lam=-2.0, n_particles=1),
    dict(mass=1e-26, omega_r=1.0, lam=1.0, n_particles=0),
    dict(mass=1e-26, omega_r=1.0, lam=1.0, n_particles=1.5),
    dict(mass=math.nan, omega_r=1.0, lam=1.0, n_particles=1),
])
def test_invalid_trap_spec_rejected(kwargs):
    with pytest.raises(DomainError):
        fg.TrapSpec(**kwargs)


def test_trap_spec_checks_particle_number_before_lambda():
    with pytest.raises(DomainError, match="n_particles must be finite and at least 1"):
        fg.TrapSpec(mass=1e-26, omega_r=1.0, lam=math.nan, n_particles=0)


# every entry point that takes (N, lambda) shares one check: 48 N lambda
# past the float range is refused with one message naming both
TRAP_OVERFLOW = ("48 * n_particles * lambda must be finite, "
                 "got n_particles = 1e+307 and lambda = 10.0")


@pytest.mark.parametrize("call", [
    lambda n, lam: fg.TrapSpec(mass=1e-26, omega_r=1000.0, lam=lam, n_particles=n),
    lambda n, lam: fg.BoseParams(n, lam, u_bose=1.0),
    lambda n, lam: fg.exact_mu(n, lam, 0.1),
    lambda n, lam: fg.semiclassical_central_density(n, lam),
    lambda n, lam: fg.breakdown_shell_distance(n, lam),
    lambda n, lam: fg.continuum_comparison(n, lam, 0.1),
    lambda n, lam: fg.counting_check(n, lam),
    lambda n, lam: fg.validity_report(n, lam, [0.5]),
    lambda n, lam: fg.scales.validity_table(n, lam, [0.5]),
], ids=["TrapSpec", "BoseParams", "exact_mu", "semiclassical_central_density",
        "breakdown_shell_distance", "continuum_comparison", "counting_check",
        "validity_report", "validity_table"])
def test_trap_beyond_the_float_range_rejected(call):
    for n in (10 ** 307, 1e307):
        with pytest.raises(DomainError, match=re.escape(TRAP_OVERFLOW)):
            call(n, 10.0)


def test_trap_float_range_edge():
    # 48 N lambda overflows from N lambda = 1.7976931348623157e308 / 48 = 3.745e306
    assert math.isfinite(fg.semiclassical_central_density(3.7e306, 1.0))
    assert math.isfinite(fg.breakdown_shell_distance(1.0, 3.7e306))
    with pytest.raises(DomainError, match=re.escape("48 * n_particles * lambda must be finite")):
        fg.semiclassical_central_density(3.75e306, 1.0)


@pytest.mark.parametrize("mass, omega_r, n_particles", [
    (1e-300, 1e-300, 1000),     # mass * omega_r rounds to 0
    (1e10, 1e300, 1),           # mass * omega_r overflows: sigma_r rounds to 0
    (1e-26, 1e300, 10 ** 300),  # E_F overflows
], ids=["m_omega_underflow", "sigma_underflow", "e_fermi_overflow"])
def test_si_scales_outside_the_float_range_rejected(mass, omega_r, n_particles):
    spec = fg.TrapSpec(mass=mass, omega_r=omega_r, lam=1.0, n_particles=n_particles)
    message = f"mass = {mass!r} and omega_r = {omega_r!r} give SI scales outside the float range"
    with pytest.raises(DomainError, match=re.escape(message)):
        fg.derive_scales(spec)


def test_continuum_reliability_flag():
    spec = fg.PRESETS["li6-top"]
    assert fg.continuum_reliable(spec, 1.0)
    assert fg.continuum_reliable(spec, 0.05)
    # k_B T below the level spacing
    assert not fg.continuum_reliable(spec, 1e-4)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.0, 0.0, 1.0), "x must be finite, got nan"),
    ((0.0, math.inf, 0.0, 1.0), "y must be finite, got inf"),
    ((0.0, 0.0, -math.inf, 1.0), "z must be finite, got -inf"),
    ((0.0, 0.0, 1.0, 0.0), "lambda must be finite and positive, got 0.0"),
    ((0.0, 0.0, 1.0, math.nan), "lambda must be finite and positive, got nan"),
    ((1e300, 1.0, 0.2, 0.2), "x = 1e+300, y = 1.0, z = 0.2 and lambda = 0.2: "
                             "x^2 + y^2 + lambda^2 z^2 overflows the float range"),
    ((0.0, 0.0, 1e160, 1e160), "x = 0.0, y = 0.0, z = 1e+160 and lambda = 1e+160: "
                               "x^2 + y^2 + lambda^2 z^2 overflows the float range"),
])
def test_effective_radius_checks_its_arguments(args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fg.effective_radius(*args)


def test_effective_radius_keeps_its_bits():
    for x, y, z, lam in [(0.6, 0.0, 0.0, math.sqrt(8.0)), (0.0, 0.0, 0.6 / math.sqrt(8.0),
                         math.sqrt(8.0)), (-1.0, 2.5, 1e-3, 0.3), (1e150, -1e150, 1e100, 7.0)]:
        assert fg.effective_radius(x, y, z, lam) == math.sqrt(x * x + y * y + lam * lam * z * z)


def test_effective_radius_weights_axial_coordinate():
    lam = 3.0
    assert fg.effective_radius(2.0, 0.0, 0.0, lam) == pytest.approx(2.0)
    assert fg.effective_radius(0.0, 0.0, 2.0 / lam, lam) == pytest.approx(2.0)
    assert fg.effective_radius(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(3.0))
