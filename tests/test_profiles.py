import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import fermigas as fg
from fermigas import DomainError, profiles
from fermigas.curves import MAX_SAMPLES
from fermigas.fdint import band

from conftest import mp_thermo

CENTRAL = 8.0 / math.pi ** 2


def test_occupancy_deep_interior():
    assert fg.phase_space_occupancy(0.0, 0.0, 0.0, 1.0) == 1.0


def test_occupancy_half_on_fermi_surface():
    for t in (0.1, 0.5, 2.0):
        assert fg.phase_space_occupancy(0.6, 0.8, t, 1.0) == pytest.approx(0.5, rel=1e-14)
    # step convention at t = 0 keeps the symmetry point
    assert fg.phase_space_occupancy(0.6, 0.8, 0.0, 1.0) == 0.5


def test_occupancy_outside_local_fermi_sea():
    assert fg.phase_space_occupancy(1.0, 0.5, 0.0, 1.0) == 0.0


def test_occupancy_range_and_domain():
    assert 0.0 < fg.phase_space_occupancy(0.3, 0.4, 0.7, -0.2) < 1.0
    with pytest.raises(DomainError):
        fg.phase_space_occupancy(-0.1, 0.0, 0.1, 1.0)


def test_zero_t_density_anchors():
    assert fg.zero_t_density(0.0) == pytest.approx(CENTRAL, rel=1e-15)
    assert fg.zero_t_density(1.0) == 0.0
    assert fg.zero_t_density(2.0) == 0.0
    assert fg.zero_t_density(0.5) == pytest.approx(0.52648031385463697, rel=1e-14)


def test_density_reduces_to_zero_t_form():
    for s in np.linspace(0.0, 1.4, 15):
        assert fg.density(float(s), 0.0) == fg.zero_t_density(float(s))


def test_density_against_classical_gaussian_at_t1():
    # frozen value from the reduced closed form; the classical curve sits
    # 3.6% above it at the center, within 0.02 in scaled-density units
    assert fg.density(0.0, 1.0) == pytest.approx(0.17319708832836293, rel=1e-10)
    classical = 1.0 / math.pi ** 1.5
    assert abs(fg.density(0.0, 1.0) - classical) <= 0.02


def test_density_evaporated_tail_value():
    # edge of the cloud at low temperature, pinned by the quadrature oracle
    assert fg.density(1.0, 0.1) == pytest.approx(0.019968481602851032, rel=1e-10)
    assert fg.density(1.0, 0.1) > 0.0


def test_density_far_outside_the_cloud_is_zero():
    # (m - s^2)/t overflows to -inf: f_(3/2) is 0 there, as it is below eta = -745
    assert fg.density(1.4e154, 0.5) == 0.0
    assert fg.momentum_density(1e200, 0.5) == 0.0
    curve, = fg.profile_curves([0.5], 3, 1e200)
    assert curve.samples == ((0.0, fg.density(0.0, 0.5)), (5e199, 0.0), (1e200, 0.0))
    assert fg.density(1e154, 2.0) == 0.0  # eta = (m - 1e308)/2 is finite, far below -745


def test_density_radially_non_increasing():
    for t in (0.0, 0.25, 1.0):
        vals = [fg.density(s, t) for s in np.linspace(0.0, 2.5, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0])
def test_normalization(t):
    cutoff = 1.0 if t == 0 else math.sqrt(max(fg.solve_mu(t), 0.0) + 45.0 * t)
    mass, _ = quad(lambda s: 4.0 * math.pi * s * s * fg.density(s, t),
                   0.0, cutoff, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_momentum_density_is_same_function():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = float(rng.uniform(0, 2.0))
        t = float(rng.uniform(0, 3.0))
        assert fg.momentum_density(x, t) == fg.density(x, t)


def test_momentum_anchors():
    assert fg.momentum_density(0.0, 0.0) == pytest.approx(CENTRAL, rel=1e-15)
    assert fg.momentum_density(1.2, 0.0) == 0.0


def test_aspect_ratio_is_classical():
    # iso-density contours depend on the effective radius only, so the
    # axial extent is 1/lambda of the radial one at any temperature
    lam = math.sqrt(8.0)
    for t in (0.0, 0.5):
        radial = fg.density(fg.effective_radius(0.6, 0.0, 0.0, lam), t)
        axial = fg.density(fg.effective_radius(0.0, 0.0, 0.6 / lam, lam), t)
        assert radial == axial


def test_mean_square_size_zero_point():
    assert fg.mean_square_size(0.0) == 0.375


def test_mean_square_size_frozen_value():
    assert fg.mean_square_size(0.5) == pytest.approx(0.80362946343788287, rel=1e-9)


def test_mean_square_size_monotone():
    assert fg.mean_square_size(0.25) < fg.mean_square_size(0.5)
    ts = np.linspace(0.0, 3.0, 16)
    vals = [fg.mean_square_size(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0])
def test_virial_identity(t):
    assert abs(fg.mean_square_size(t) - fg.internal_energy(t) / 2.0) <= 1e-7


def classical_msd(t):
    num, _ = quad(lambda s: s ** 4 * math.exp(-s * s / t), 0.0, math.inf)
    den, _ = quad(lambda s: s ** 2 * math.exp(-s * s / t), 0.0, math.inf)
    return num / den


def test_high_temperature_slope_matches_boltzmann_oracle():
    # the classical-gas moment integral fixes the slope at 3/2
    oracle_slope = (classical_msd(8.0) - classical_msd(6.0)) / 2.0
    assert oracle_slope == pytest.approx(1.5, abs=1e-9)
    slope = (fg.mean_square_size(8.0) - fg.mean_square_size(6.0)) / 2.0
    assert abs(slope - oracle_slope) <= 1e-3


def test_classical_limit_profile():
    sup = max(
        abs(fg.density(float(s), 5.0) - math.exp(-s * s / 5.0) / (5.0 * math.pi) ** 1.5)
        for s in np.linspace(0.0, 8.0, 161))
    assert sup <= 1e-3


def occupancy_edge_width(t):
    m = fg.solve_mu(t)
    lo = math.sqrt(m - t * math.log(9.0))
    hi = math.sqrt(m + t * math.log(9.0))
    return hi - lo


@pytest.mark.parametrize("t", [0.01, 0.02, 0.05, 0.1])
def test_fermi_surface_smearing_width_is_linear_in_t(t):
    # the 90%-to-10% occupancy drop spans ~2.2 t in s, the evaporated
    # atmosphere thickness
    assert 2.0 * t <= occupancy_edge_width(t) <= 2.5 * t


@pytest.mark.parametrize("t", [0.01, 0.02, 0.05])
def test_fermi_surface_smearing_width_doubles_with_t(t):
    ratio = occupancy_edge_width(2.0 * t) / occupancy_edge_width(t)
    assert 1.9 <= ratio <= 2.1


@pytest.mark.parametrize("t", [0.02, 0.05])
def test_atmosphere_hugs_the_cloud_edge(t):
    s = np.linspace(0.5, 1.5, 2001)
    dev = np.array([abs(fg.density(float(x), t) - fg.zero_t_density(float(x)))
                    for x in s])
    assert abs(s[np.argmax(dev)] - 1.0) <= 3.0 * t


def test_profile_curves_fig3_set():
    temps = [0.0, 0.25, 0.5, 0.75, 1.0]
    curves = fg.profile_curves(temps, n_samples=120)
    assert len(curves) == 5
    centers = [c.samples[0][1] for c in curves]
    assert all(b < a for a, b in zip(centers, centers[1:]))
    for t, curve in zip(temps, curves):
        smax = curve.samples[-1][0]
        mass, _ = quad(lambda s: 4.0 * math.pi * s * s * fg.density(s, t),
                       0.0, smax, limit=400, epsabs=1e-12, epsrel=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [1.7495e-3, 1.7445e-3, 1.0741e-2])
def test_moments_where_the_fermi_edge_was_missed(t):
    # <rho^2>/R_F^2 = u/2 by the virial theorem; both missed 1e-9 here
    # before the s range was split 40 t inside the Fermi edge
    with mpmath.workdps(30):
        u = mp_thermo(t)[1]
    assert abs(fg.mean_square_size(t) / float(u / 2) - 1.0) <= 1e-9
    assert abs(fg.normalization(t) - 1.0) <= 1e-9


@pytest.mark.parametrize("t", [1.7495e-3, 1.7445e-3, 1.0741e-2,
                               0.05, 0.25, 0.5, 1.0, 2.0, 5.0])
def test_closed_form_moments_against_brute_quadrature(t):
    # 4 pi int s^p n(s) ds of the pointwise density, integrated by scipy
    m = fg.solve_mu(t)
    top = math.sqrt(max(m, 0.0) + 45.0 * t)
    edge = [math.sqrt(m)] if m > 0.0 else None
    for p, closed in ((2, fg.normalization(t)), (4, fg.mean_square_size(t))):
        brute, _ = quad(lambda s: 4.0 * math.pi * s ** p * fg.density(s, t), 0.0, top,
                        points=edge, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(brute - closed) <= 1e-12


MOMENT_GRID = [0.0, 1e-12, 1e-9, 1.0000001e-9, 1e-6] + np.linspace(0.0, 5.0, 201)[1:].tolist()


def test_moments_are_the_thermodynamic_closed_forms():
    for t in MOMENT_GRID:
        assert fg.mean_square_size(t) == fg.internal_energy(t) / 2.0
        # normalization - 1 is the constraint residual solve_mu stops at, a
        # Newton step of <= 2 ulp of m: up to 2.8e-15 at t = 5, where |m| = 33
        # and the slope 6 t^2 f_2 is 0.2
        assert abs(fg.normalization(t) - 1.0) <= (1e-15 if t <= 2.0 else 3e-15)


def test_profile_curves_equal_pointwise_density():
    curves = fg.profile_curves([0.0, 0.01, 0.25, 2.0], n_samples=57)
    for t, curve in zip([0.0, 0.01, 0.25, 2.0], curves):
        assert curve.samples == tuple((s, fg.density(s, t)) for s, _ in curve.samples)


def test_profile_curve_zero_t_closed_form():
    (curve,) = fg.profile_curves([0.0], n_samples=50)
    for s, value in curve.samples:
        assert value == fg.zero_t_density(s)


def test_profile_curves_domain_errors():
    with pytest.raises(DomainError):
        fg.profile_curves([])
    with pytest.raises(DomainError):
        fg.profile_curves([-0.1])
    with pytest.raises(DomainError):
        fg.profile_curves([0.5], n_samples=1)
    for n_samples in (math.nan, math.inf, 2.5):
        with pytest.raises(DomainError, match=f"n_samples .* got {n_samples!r}"):
            fg.profile_curves([0.5], n_samples=n_samples)
    with pytest.raises(DomainError, match="s_max must be finite and positive"):
        fg.profile_curves([0.5], s_max=-1.0)
    # the step 1e-320/299 rounds to 7 subnormal units, so the grid overshoots
    # s_max; with 3 samples it stays strictly increasing
    with pytest.raises(DomainError, match=r"^s_max = 1e-320 and n_samples = 300 give a "
                                          r"radius grid that is not strictly increasing$"):
        fg.profile_curves([0.0, 0.5], s_max=1e-320)
    assert [s for s, _ in fg.profile_curves([0.5], 3, 1e-320)[0].samples] == [0.0, 5e-321, 1e-320]


def test_profile_curves_sample_cap(monkeypatch):
    # refused before linspace builds a list of that length
    sizes = []

    def recording_linspace(lo, hi, n):
        sizes.append(n)
        return [lo, hi]

    monkeypatch.setattr(profiles, "linspace", recording_linspace)
    assert MAX_SAMPLES == 1_000_000
    for n_samples, s_max in ((10 ** 20, None), (MAX_SAMPLES + 1, 1.0), (1e300, None)):
        with pytest.raises(DomainError, match=rf"^n_samples must be at most 1000000, "
                                              rf"got {re.escape(repr(n_samples))}$"):
            fg.profile_curves([0.0, 0.5], n_samples, s_max)
    assert sizes == []
    fg.profile_curves([0.0], MAX_SAMPLES)
    assert sizes == [MAX_SAMPLES]


def test_density_and_normalization_are_the_fd_formulas():
    # bit for bit the public fd of the module docstring's formulas, in every
    # regime that f_3/2 and f_3 reach
    bands = set()
    for t in np.logspace(-3, 3, 61).tolist():
        m = fg.solve_mu(t)
        assert fg.normalization(t) == 6.0 * t ** 3 * fg.fd(3.0, m / t)
        bands.add(band(3.0, m / t))
        for s in (0.0, 0.5, 0.9, 1.0, 1.5, 3.0):
            eta = (m - s * s) / t
            assert fg.density(s, t) == (6.0 / math.pi ** 1.5) * t ** 1.5 * fg.fd(1.5, eta)
            bands.add(band(1.5, eta))
    assert bands == {"series", "taylor", "reflection", "trapezoid", "sommerfeld"}


def test_density_domain_errors():
    with pytest.raises(DomainError):
        fg.density(-0.2, 0.5)
    with pytest.raises(DomainError):
        fg.density(0.2, -0.5)
    with pytest.raises(DomainError):
        fg.density(math.nan, 0.5)
