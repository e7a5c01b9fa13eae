import cmath
import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermigas import DomainError, SUPPORTED_ORDERS, fd, fd_derivative, fd_orders, fdint
from fermigas.fdint import (_POLYNOMIAL, _SERIES, _SERIES_SPAN, _SERIES_TERMS, _SOMMERFELD_C,
                            _SOMMERFELD_CUTOFF, _TAYLOR, _dirichlet_eta, _sommerfeld, _trapezoid,
                            band, fermi)

from conftest import adaptive_fd, brute_fd, mp_fd

DERIVATIVE_ORDERS = [k for k in SUPPORTED_ORDERS if k - 1.0 in SUPPORTED_ORDERS]


def alternating_series(k, terms=300_000):
    # f_k(0) = sum_j (-1)^(j+1)/j^k; partial sums bracket the limit
    total = 0.0
    for j in range(1, terms):
        total += (-1) ** (j + 1) / j ** k
    return total


def test_value_at_zero_order_one():
    assert fd(1, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_value_at_zero_order_three():
    # (3/4) zeta(3), pinned by the alternating series
    assert alternating_series(3, 3000) == pytest.approx(0.90154267736969571, abs=1e-9)
    assert fd(3, 0.0) == pytest.approx(0.90154267736969571, rel=1e-13)


def test_value_at_zero_order_two():
    assert fd(2, 0.0) == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


def test_boltzmann_example():
    assert fd(2, -20.0) == pytest.approx(math.exp(-20.0), rel=1e-6)


def test_degenerate_example():
    # Sommerfeld leading form (10^3/6)(1 + pi^2/10^2), plus the frozen
    # quadrature value
    leading = (1000.0 / 6.0) * (1.0 + math.pi ** 2 / 100.0)
    assert fd(3, 10.0) == pytest.approx(leading, rel=1e-6)
    assert fd(3, 10.0) == pytest.approx(183.11605273482105, rel=1e-12)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
@pytest.mark.parametrize("eta", [-15.0, -20.0, -30.0, -50.0])
def test_boltzmann_limit(k, eta):
    assert abs(fd(k, eta) / math.exp(eta) - 1.0) <= 1e-6


def test_derivative_examples():
    assert fd_derivative(3, 0.0) == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)
    assert fd_derivative(3, 0.0) == fd(2, 0.0)
    assert fd_derivative(2, -30.0) == pytest.approx(math.exp(-30.0), rel=1e-6)


@pytest.mark.parametrize("k", DERIVATIVE_ORDERS)
@pytest.mark.parametrize("eta", [-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0, 30.0, 50.0])
def test_derivative_matches_central_difference(k, eta):
    h = 1e-4
    numeric = (fd(k, eta + h) - fd(k, eta - h)) / (2.0 * h)
    assert abs(numeric - fd_derivative(k, eta)) <= 1e-6


def test_derivative_unsupported_orders():
    with pytest.raises(DomainError):
        fd_derivative(1, 0.0)
    with pytest.raises(DomainError):
        fd_derivative(0.5, 0.0)


def test_oracle_equivalence_random_sweep():
    rng = np.random.default_rng(20260810)
    for eta in rng.uniform(-30.0, 100.0, size=200):
        for k in SUPPORTED_ORDERS:
            ref = brute_fd(k, float(eta))
            assert abs(fd(k, float(eta)) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("eta", [40.0, 60.0, 100.0])
def test_sommerfeld_limit(k, eta):
    scaled = fd(k, eta) * math.gamma(k + 1.0) / eta ** k
    expected = 1.0 + k * (k - 1.0) * math.pi ** 2 / (6.0 * eta * eta)
    assert abs(scaled - expected) <= 1e-4


@given(
    k=st.sampled_from(SUPPORTED_ORDERS),
    eta=st.floats(-40.0, 150.0),
    gap=st.floats(1e-6, 25.0),
)
@settings(max_examples=120, deadline=None)
def test_strictly_increasing(k, eta, gap):
    assert fd(k, eta) < fd(k, eta + gap)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
@pytest.mark.parametrize("eta", [-50.0, -1.0, 0.0, 3.0, 30.0, 200.0])
def test_strictly_positive(k, eta):
    assert fd(k, eta) > 0.0


@pytest.mark.parametrize("bad", [0.7, 3.5, -1.0, 0.0, 5.0])
def test_unsupported_order_rejected(bad):
    with pytest.raises(DomainError):
        fd(bad, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="int-1e400"),
                                 pytest.param([0.0, 10 ** 400], id="list-int-1e400")])
def test_nonfinite_eta_rejected(bad):
    with pytest.raises(DomainError, match="eta must be finite"):
        fd(2, bad)


@pytest.mark.parametrize("eta", [1e80, np.array([1.0, 1e80])])
def test_overflowing_eta_rejected(eta):
    with pytest.raises(DomainError, match=r"eta = 1e\+80"):
        fd(4.0, eta)


def _correctly_rounded(value):
    # 40 significant digits, rounded to the nearest double by float()
    return float(mpmath.nstr(value, 40))


def test_sommerfeld_coefficients_correctly_rounded():
    with mpmath.workdps(40):
        for n in range(1, 26):
            exact = 2 * (1 - mpmath.mpf(2) ** (1 - 2 * n)) * mpmath.zeta(2 * n)
            assert _SOMMERFELD_C[n - 1] == _correctly_rounded(exact), n


def _sommerfeld_all_terms(k, eta):
    """The Sommerfeld evaluation that runs every coefficient up to the
    smallest term, however far below the bracket's last bit the terms go."""
    bracket, prod, power, prev = 1.0, 1.0, 1.0, math.inf
    inv_eta2 = 1.0 / (eta * eta)
    for n, c in enumerate(_SOMMERFELD_C, start=1):
        prod *= (k - (2 * n - 2)) * (k - (2 * n - 1))
        power *= inv_eta2
        term = c * prod * power
        if abs(term) >= prev:
            break
        bracket += term
        prev = abs(term)
    return eta ** k / math.gamma(k + 1.0) * bracket


def test_sommerfeld_early_stop_is_bit_identical():
    etas = np.concatenate([[40.0, 60.0], np.geomspace(40.0, 4e7, 3000),
                           np.random.default_rng(20).uniform(40.0, 400.0, 1000)]).tolist()
    for k in (0.5, 1.5, 2.5):
        assert [_sommerfeld(k, e) for e in etas] == [_sommerfeld_all_terms(k, e) for e in etas]


def test_sommerfeld_terms_fall_until_the_cut():
    # from eta = 40 up, each order's bracket terms fall strictly until one is
    # below 2^-60 of the sum, within the tabled terms, so the bracket needs
    # no stop at its smallest term
    etas = np.concatenate([np.linspace(40.0, 80.0, 401), np.geomspace(80.0, 1e300, 3000),
                           np.random.default_rng(36).uniform(40.0, 400.0, 1000)]).tolist()
    for k in (0.5, 1.5, 2.5):
        terms, _ = fdint._SOMMERFELD[k]
        for eta in etas:
            bracket, power, prev = 1.0, 1.0, math.inf
            inv_eta2 = 1.0 / (eta * eta)
            for c in terms:
                power *= inv_eta2
                term = c * power
                if abs(term) < 2.0 ** -60 * bracket:
                    break
                assert abs(term) < prev, (k, eta)
                bracket += term
                prev = abs(term)
            else:
                pytest.fail(f"k = {k}, eta = {eta!r}: no term falls below 2^-60")


def test_fermi_factor_against_extended_precision():
    # exp, the sum and the quotient each round once; like the direct
    # 1/(exp(x) + 1), which can differ from it by 3 ulp, the result stays
    # within 2 ulp of the correctly rounded value
    x = np.concatenate([np.linspace(-699.5, 699.5, 281), np.linspace(0.0, 30.0, 301),
                        [-1e-12, 1e-12]])
    with mpmath.workdps(30):
        exact = np.array([_correctly_rounded(1 / (mpmath.exp(mpmath.mpf(float(v))) + 1))
                          for v in x])
    scalar = [fermi(v) for v in x.tolist()]
    assert all(type(occ) is float for occ in scalar)
    np.testing.assert_array_max_ulp(np.array(scalar), exact, maxulp=2)
    assert fermi(0.0) == 0.5


def test_fermi_factor_saturates_without_warnings():
    x = [-1e308, -1e4, -750.0, 750.0, 1e4, 1e308, -math.inf, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = [fermi(v) for v in x]
    assert scalar == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]


# -1 < eta < 30 and the points nearest its edges: the trapezoid band of the
# half-integer orders, the Taylor and reflection bands of the integer ones
MIDDLE_BAND = np.concatenate([np.arange(-1.0, 30.0, 0.5),
                              [-0.999999, -1e-9, 0.0, 1e-9, 29.999999]])


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_middle_band_against_mpmath(k):
    with mpmath.workdps(20):
        exact = np.array([float(mp_fd(k, mpmath.mpf(float(e)))) for e in MIDDLE_BAND])
    values = fd(k, MIDDLE_BAND)
    assert np.max(np.abs(values - exact) / exact) <= 2e-15


# eta from 30 up: the trapezoid's top, then the Sommerfeld band from its
# cutoff at 40 (the truncated bracket of k = 1/2 is 5.0e-15 off at eta = 30)
SOMMERFELD_BAND = np.geomspace(30.0, 1e4, 100)


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_sommerfeld_band_against_mpmath(k):
    with mpmath.workdps(30):
        exact = np.array([float(mp_fd(k, mpmath.mpf(float(e)))) for e in SOMMERFELD_BAND])
    values = fd(k, SOMMERFELD_BAND)
    assert np.max(np.abs(values - exact) / exact) <= 2e-15


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_fixed_rule_matches_adaptive_kernel(k):
    # the trapezoid evaluator itself for a half-integer order, fd otherwise,
    # against adaptive Gauss-Legendre panels over the trapezoid band
    etas = np.linspace(-0.99, 39.99, 60).tolist()
    kernel = fd if k in _TAYLOR else _trapezoid
    for eta in etas:
        old = adaptive_fd(k, eta)
        assert abs(kernel(k, eta) - old) <= 1e-13 * old, eta


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_scalar_and_array_calls_bit_identical(k):
    # every band of the order and a 2-D shape
    rng = np.random.default_rng(7)
    etas = rng.uniform(-3.0, 40.0, 549)
    one_by_one = np.array([fd(k, float(e)) for e in etas])
    assert np.array_equal(fd(k, etas), one_by_one)
    assert np.array_equal(fd(k, etas[5:6]), one_by_one[5:6])
    assert np.array_equal(fd(k, etas[:60].reshape(6, 10)), one_by_one[:60].reshape(6, 10))
    assert isinstance(fd(k, etas[0]), float)
    assert type(fd(k, 2)) is float and fd(k, 2) == fd(k, 2.0)
    # several orders sharing one Fermi factor give each order's own bits
    orders = (k, 3.0, 2.0, 4.0)
    for order, values in zip(orders, fd_orders(orders, etas)):
        assert np.array_equal(values, fd(order, etas))
    for eta in etas[:40].tolist():
        assert fd_orders(orders, eta) == [fd(order, eta) for order in orders]


def test_array_with_nonfinite_element_rejected():
    with pytest.raises(DomainError, match="eta must be finite, got nan"):
        fd(2, np.array([0.0, math.nan]))


@pytest.mark.parametrize("eta, shown", [
    (["0.3"], "'0.3'"), (np.array(["0.3", "1"]), "'0.3'"), ([b"0.3"], "b'0.3'"),
    ([[1.0], ["x"]], "'x'"), ([0.3, None], "None")])
def test_array_with_text_element_rejected(eta, shown):
    # an entry is a number, never text that numpy would parse
    for call in (lambda: fd(1.5, eta), lambda: fd_orders((1.5, 2.0), eta),
                 lambda: fd_derivative(2.0, eta)):
        with pytest.raises(DomainError, match=re.escape(f"eta must be finite, got {shown}")):
            call()


@given(
    k=st.sampled_from(SUPPORTED_ORDERS),
    edge=st.sampled_from([-1.0, _SOMMERFELD_CUTOFF]),
    delta=st.floats(0.0, 1e-6),
)
@settings(max_examples=150, deadline=None)
def test_continuous_across_band_edges(k, edge, delta):
    # d ln f_k / d eta = f_(k-1)/f_k lies in (0, 1], so an honest jump over
    # [edge - delta, edge + delta] is at most 2 delta f_k
    below, above = fd(k, edge - delta), fd(k, edge + delta)
    assert abs(above - below) <= (2.0 * delta + 1e-14) * above


def test_taylor_and_polynomial_coefficients_correctly_rounded():
    # f_k(eta) = sum_n eta_D(k - n) eta^n / n!, eta_D the Dirichlet eta
    # function; the Sommerfeld polynomial keeps twice the terms with k - n
    # even and n <= k
    with mpmath.workdps(40):
        for s, exact in [(1, mpmath.log(2)), (3, 0.75 * mpmath.zeta(3))]:
            p, q = _dirichlet_eta(s)
            assert p / q == _correctly_rounded(exact) == _correctly_rounded(mpmath.altzeta(s))
        for k in (1, 2, 3, 4):
            taylor, polynomial = _TAYLOR[float(k)], _POLYNOMIAL[float(k)]
            assert len(taylor) == 36 and len(polynomial) == k + 1
            for n, c in enumerate(reversed(taylor)):
                assert c == _correctly_rounded(mpmath.altzeta(k - n) / mpmath.factorial(n)), (k, n)
            for n, c in enumerate(reversed(polynomial)):
                exact = 2 * mpmath.altzeta(k - n) / mpmath.factorial(n) if (k - n) % 2 == 0 else 0
                assert c == _correctly_rounded(exact), (k, n)


def test_series_coefficients_correctly_rounded():
    with mpmath.workdps(40):
        for k in SUPPORTED_ORDERS:
            coefficients = _SERIES[k]
            assert len(coefficients) == 42  # the first n with e^-n < 2^-60
            for j, c in enumerate(reversed(coefficients), start=1):
                assert c == _correctly_rounded(mpmath.mpf(j) ** -mpmath.mpf(k)), (k, j)


# 1,201 points in [-40, 60] (step 1/12, so -1, 0, 1 and 30 are on it),
# 1,201 in [-1.05, 1.05] sharing 0, and the neighbouring doubles of -1, 0, 1, 30
SWEEP = np.unique(np.concatenate([
    np.linspace(-40.0, 60.0, 1201), np.linspace(-1.05, 1.05, 1201),
    [np.nextafter(e, d) for e in (-1.0, 0.0, 1.0, 30.0) for d in (-50.0, 50.0)]]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_orders_against_mpmath_sweep(k):
    with mpmath.workdps(40):
        exact = np.array([float(mp_fd(k, mpmath.mpf(float(e)))) for e in SWEEP])
    assert SWEEP.size == 2409
    assert np.max(np.abs(fd(k, SWEEP) - exact) / exact) <= 1e-15


# the Taylor edges and every eta where the series gains or drops a term
SERIES_STEPS = [sign * _SERIES_SPAN / n for n in range(1, 42) for sign in (-1.0, 1.0)]


@given(
    k=st.sampled_from(SUPPORTED_ORDERS),
    edge=st.sampled_from([-1.0, 1.0] + SERIES_STEPS),
    delta=st.floats(0.0, 1e-9),
)
@settings(max_examples=300, deadline=None)
def test_continuous_across_taylor_edges_and_series_steps(k, edge, delta):
    # as across the band edges, with the gap taken between the rounded
    # points and a slack of 2e-15, where the band-edge test allows 1e-14
    lo, hi = edge - delta, edge + delta
    below, above = fd(k, lo), fd(k, hi)
    assert abs(above - below) <= (hi - lo + 2e-15) * above


def test_bit_identity_at_the_taylor_edges_and_across_mixed_orders():
    rng = np.random.default_rng(11)
    etas = np.concatenate([[-1.0, 1.0, 0.0, 30.0, -30.0],
                           [np.nextafter(e, d) for e in (-1.0, 1.0) for d in (-2.0, 2.0)],
                           rng.uniform(-45.0, 65.0, 300)])
    orders = (1.5, 3, 2, 4)
    together = fd_orders(orders, etas)
    for k, values in zip(orders, together):
        assert np.array_equal(values, fd(k, etas))
        assert values.tolist() == [fd(k, e) for e in etas.tolist()]
    for e in etas.tolist():
        assert fd_orders(orders, e) == [fd(k, e) for k in orders]


@pytest.mark.parametrize("k, eta, regime", [
    (2, -1.0, "series"), (1.5, -1.0, "series"), (2, -0.999, "taylor"), (4, 0.999, "taylor"),
    (1, 1.0, "reflection"), (3, 500.0, "reflection"), (0.5, 0.0, "trapezoid"),
    (2.5, 39.9, "trapezoid"), (1.5, 40.0, "sommerfeld"),
])
def test_band_names_the_regime_that_runs(k, eta, regime):
    assert band(k, eta) == regime


# step 1/2 on [-1, 50] (so -1, 30, 40 and 50 are on it), and the doubles on
# either side of 30 and of the Sommerfeld cutoff
HALF_SWEEP = np.unique(np.concatenate([
    np.linspace(-1.0, 50.0, 103),
    [np.nextafter(e, d) for e in (30.0, _SOMMERFELD_CUTOFF) for d in (-50.0, 50.0)]]))


@pytest.mark.parametrize("k", [0.5, 1.5, 2.5])
def test_half_integer_orders_against_mpmath_sweep(k):
    with mpmath.workdps(40):
        exact = np.array([float(mp_fd(k, mpmath.mpf(float(e)))) for e in HALF_SWEEP])
    assert np.max(np.abs(fd(k, HALF_SWEEP) - exact) / exact) <= 1e-15


@pytest.mark.parametrize("k, eta", [(2.5, 1e200), (1.5, np.array([0.0, 1e300]))])
def test_half_integer_overflow_names_order_and_eta(k, eta):
    with pytest.raises(DomainError, match=rf"f_{k:g}\(eta\) overflows a double at eta = 1e\+"):
        fd(k, eta)


def test_mp_fd_reference_deep_in_the_series_band():
    # f_1(eta) = log(1 + e^eta); mpmath's polylog gave 4.48e-44 here
    with mpmath.workdps(40):
        value = mp_fd(1, mpmath.mpf(-100))
        exact = mpmath.log1p(mpmath.exp(-100))
        assert abs(value - exact) <= mpmath.mpf(10) ** -38 * exact
    assert float(value) == pytest.approx(math.log1p(math.exp(-100.0)), rel=1e-15)


# 160 log-spaced points of eta in [-700, -1], 41 evenly spaced, and every
# eta where the series gains a term
SERIES_BAND = np.unique(np.concatenate([
    -np.geomspace(1.0, 700.0, 160), np.linspace(-700.0, -1.0, 41),
    [-_SERIES_SPAN / n for n in range(1, 42)]]))


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_series_band_against_mpmath(k):
    assert {band(k, e) for e in SERIES_BAND.tolist()} == {"series"}
    with mpmath.workdps(40):
        exact = np.array([float(mp_fd(k, mpmath.mpf(float(e)))) for e in SERIES_BAND])
    assert np.max(np.abs(fd(k, SERIES_BAND) - exact) / exact) <= 1e-15


@pytest.mark.parametrize("k, eta, message", [
    (7.0, 0.5, r"unsupported Fermi-Dirac order 7\.0"),
    (0.7, -3.0, r"unsupported Fermi-Dirac order 0\.7"),
    (1.5, math.nan, "eta must be finite, got nan"),
    (2.0, math.inf, "eta must be finite, got inf"),
    (0.5, -math.inf, "eta must be finite, got -inf"),
])
def test_band_refuses_what_fd_refuses(k, eta, message):
    with pytest.raises(DomainError, match=message) as refused:
        band(k, eta)
    with pytest.raises(DomainError) as fd_refused:
        fd(k, eta)
    assert str(refused.value) == str(fd_refused.value)


# the trapezoid band of the half-integer orders, densely, and the doubles
# just inside its edges
TRAPEZOID_BAND = np.concatenate([np.linspace(-1.0, 40.0, 4101)[1:-1],
                                 [np.nextafter(-1.0, 0.0), np.nextafter(40.0, 0.0)]]).tolist()


def test_trapezoid_node_table_is_exact():
    # the nodes u = n/4 run from the outermost in; each key is -u^2, exact,
    # and each entry exp(u^2) and 2 h u^p, half of it at u = 0
    for k in (0.5, 1.5, 2.5):
        keys, nodes, power, gamma = fdint._TRAPEZOID[k]
        p = round(2 * k - 1)
        assert power == p - 1 and gamma == math.gamma(k)
        assert len(keys) == len(nodes) == 36 + (p == 0) and keys == sorted(keys)
        for n, (key, (e, c)) in enumerate(zip(keys, nodes)):
            u = (36 - n) / 4
            assert Fraction(key) == -Fraction(36 - n, 4) ** 2 and key == -(u * u)
            assert e == math.exp(u * u)
            assert c == (0.5 * u ** p if u else 0.25)


def test_trapezoid_cost_is_pinned(monkeypatch):
    # at most 36 nodes off the centre and 4 pole terms per value: a later
    # edit cannot silently double the work
    poles, cuts = [], []
    real_cut = fdint.bisect_left

    def counting_exp(z):
        poles[-1] += 1
        return cmath.exp(z)

    def counting_cut(keys, x):
        n = real_cut(keys, x)
        cuts.append(sum(1 for key in keys[n:] if key < 0.0))
        return n

    monkeypatch.setattr(fdint, "cmath", SimpleNamespace(sqrt=cmath.sqrt, exp=counting_exp))
    monkeypatch.setattr(fdint, "bisect_left", counting_cut)
    for k in (0.5, 1.5, 2.5):
        poles.clear()
        cuts.clear()
        for eta in TRAPEZOID_BAND:
            poles.append(0)
            fd(k, eta)
        assert 2 <= min(poles) and max(poles) <= 4, k
        assert sum(poles) / len(poles) <= 3.5, k
        assert len(cuts) == len(TRAPEZOID_BAND) and max(cuts) <= 36, k


def _dropped_share(monkeypatch, k):
    """The largest share of the whole trapezoid sum T_h that the nodes fd leaves
    out, past its cut and past its table, holds at order k across the band."""
    kept = []
    real_cut = fdint.bisect_left

    def recording_cut(keys, x):
        n = real_cut(keys, x)
        kept.append(sum(1 for key in keys[n:] if key < 0.0))  # nodes u = 1/4 .. kept/4
        return n

    monkeypatch.setattr(fdint, "bisect_left", recording_cut)
    p = round(2 * k - 1)
    worst = 0.0
    for eta in TRAPEZOID_BAND:
        kept.clear()
        fd(k, eta)
        # every node off the centre up to u^2 = eta + 200, far past any 2^-60
        terms = [0.5 * u ** p / (math.exp(u * u - eta) + 1.0)
                 for u in (n / 4 for n in range(1, int(4.0 * math.sqrt(eta + 200.0))))]
        centre = 0.25 / (math.exp(-eta) + 1.0) if p == 0 else 0.0
        worst = max(worst, math.fsum(terms[kept[0]:]) / math.fsum([centre, *terms]))
    return worst


def test_trapezoid_drops_under_2_to_the_minus_60(monkeypatch):
    # the rule of the series, pole and Sommerfeld cuts, met by one node cut
    # at every order; the u^4 weight of k = 5/2 lifts its tail the most
    for k in (0.5, 1.5, 2.5):
        assert _dropped_share(monkeypatch, k) < 2.0 ** -60, k


def _horner_reference(coefficients, x):
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


def _series_reference(k, eta):
    # the Horner sum of the first int(span / |eta|) + 1 terms of the series
    z = math.exp(-abs(eta))
    terms = int(_SERIES_SPAN / abs(eta)) + 1
    return z * _horner_reference(_SERIES[k][_SERIES_TERMS - terms:], -z)


def _reference(k, eta):
    """f_k(eta) from the series, Taylor, reflection and Sommerfeld formulas,
    written out here term by term."""
    if eta <= -1.0:
        return _series_reference(k, eta)
    if k in _TAYLOR:
        if eta < 1.0:
            return _horner_reference(_TAYLOR[k], eta)
        reflection = _series_reference(k, eta)
        return _horner_reference(_POLYNOMIAL[k], eta) + (reflection if k % 2 else -reflection)
    assert eta >= _SOMMERFELD_CUTOFF
    return _sommerfeld_all_terms(k, eta)


# every band but the trapezoid, for every order it serves: the series from
# -700 to -1 (with every eta where it gains a term), the Taylor band, the
# reflection up to 1e12 and the Sommerfeld bracket up to 1e100
GUARDED = {
    "series": np.concatenate([SERIES_BAND, np.random.default_rng(32).uniform(-60.0, -1.0, 400),
                              [np.nextafter(-1.0, -2.0)]]),
    "taylor": np.concatenate([np.linspace(-1.0, 1.0, 401)[1:-1],
                              [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)]]),
    "reflection": np.concatenate([np.linspace(1.0, 60.0, 400), np.geomspace(60.0, 1e12, 200)]),
    "sommerfeld": np.concatenate([np.linspace(40.0, 80.0, 321), np.geomspace(80.0, 1e100, 200)]),
}


@pytest.mark.parametrize("k", SUPPORTED_ORDERS)
def test_exact_regimes_keep_their_bits(k):
    served = ("series", "taylor", "reflection") if k in _TAYLOR else ("series", "sommerfeld")
    for regime in served:
        etas = [e for e in GUARDED[regime].tolist() if band(k, e) == regime]
        assert len(etas) >= 200, regime
        assert [fd(k, e) for e in etas] == [_reference(k, e) for e in etas], regime
