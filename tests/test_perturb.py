import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import fermigas as fg
from fermigas import DomainError, perturb
from fermigas.perturb import GRID, GRID_SIZE, _GAUSS_LEGENDRE, PerturbationField, _interp

MEAN_FIELD_SHIFT = 1024.0 / (105.0 * math.pi ** 3)  # d(E_F)/E_F per unit u_int


def delta_n_at(resp, fld, s):
    """The response's density change at any s: the module docstring's
    (12/pi^2) sqrt(1 - s^2) (dE_F - dV(s))/E_F, zero outside the cloud."""
    if s >= 1.0:
        return 0.0
    return (12.0 / math.pi ** 2) * math.sqrt(1.0 - s * s) * (
        resp.delta_e_fermi - float(fld.interp(s)))


def quadratic_field(eps):
    return PerturbationField.from_callable(lambda s: eps * s * s)


def random_smooth_fields(count, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a, b, c = rng.uniform(-0.03, 0.03, size=3)
        yield PerturbationField.from_callable(
            lambda s, a=a, b=b, c=c: a + b * s * s + c * s ** 4)


def test_constant_field_is_rigid_shift():
    fld = PerturbationField.from_callable(lambda s: 0.04)
    resp = fg.density_response(fld)
    assert resp.delta_e_fermi == pytest.approx(0.04, rel=1e-13)
    assert np.max(np.abs(resp.delta_n)) <= 1e-16


def test_quadratic_field_shift_is_half():
    # beta-integral ratio B(5/2,3/2)/B(3/2,3/2); also the exact trap
    # rescaling omega -> omega sqrt(1+eps) shifts E_F by eps/2 + O(eps^2)
    eps = 1e-3
    assert fg.fermi_energy_shift(quadratic_field(eps)) == pytest.approx(
        eps / 2.0, abs=1e-9)


def test_quadratic_field_sign_pattern():
    fld = quadratic_field(0.01)
    resp = fg.density_response(fld)
    assert delta_n_at(resp, fld, 0.0) > 0.0
    assert delta_n_at(resp, fld, 0.9) < 0.0
    # zero crossing where dV equals its weighted average, at s = 1/sqrt(2)
    assert abs(delta_n_at(resp, fld, 1.0 / math.sqrt(2.0))) <= 1e-6
    assert resp.delta_n[-1] == 0.0


def test_zero_weighted_mean_field_has_zero_shift():
    fld = PerturbationField.from_callable(lambda s: 0.02 * (s * s - 0.5))
    assert abs(fg.fermi_energy_shift(fld)) <= 1e-8


# the integrand cancels to ~1e-12 by construction, so quad reports
# roundoff-limited accuracy; the conservation bound is far above that
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("fld", list(random_smooth_fields(50)))
def test_particle_conservation(fld):
    resp = fg.density_response(fld)
    # the integrand is the response itself on its grid
    on_grid = np.array([delta_n_at(resp, fld, s) for s in GRID])
    np.testing.assert_array_equal(on_grid, resp.delta_n)
    integral, _ = quad(lambda s: 4.0 * math.pi * s * s * delta_n_at(resp, fld, s),
                       0.0, 1.0, limit=200, epsabs=1e-11)
    assert abs(integral) <= 1e-8


def test_linearity_of_response():
    f1 = quadratic_field(0.02)
    f2 = PerturbationField.from_callable(lambda s: 0.01 * math.cos(3.0 * s))
    alpha, beta = 0.7, -1.3
    combined = PerturbationField(alpha * f1.values + beta * f2.values)
    r1, r2, rc = (fg.density_response(f) for f in (f1, f2, combined))
    expected_shift = alpha * r1.delta_e_fermi + beta * r2.delta_e_fermi
    assert rc.delta_e_fermi == pytest.approx(expected_shift, rel=1e-10)
    expected_dn = alpha * r1.delta_n + beta * r2.delta_n
    assert np.max(np.abs(rc.delta_n - expected_dn)) <= 1e-10


def test_rescaled_trap_consistency():
    # first-order response vs the exactly rescaled cloud profile at eps=1e-3,
    # compared on the response grid
    eps = 1e-3
    resp = fg.density_response(quadratic_field(eps))
    s = resp.s_grid
    perturbed = np.array([fg.zero_t_density(x) for x in s]) + resp.delta_n
    arg = np.clip(1.0 - s * s * math.sqrt(1.0 + eps), 0.0, None)
    exact = (1.0 + eps) ** 0.75 * (8.0 / math.pi ** 2) * arg ** 1.5
    assert np.max(np.abs(perturbed - exact)) <= 5.0 * eps * eps


def test_mean_field_zero_strength():
    resp = fg.mean_field_correction(0.0)
    assert resp.delta_e_fermi == 0.0
    assert np.max(np.abs(resp.delta_n)) == 0.0


def test_mean_field_repulsive_raises_fermi_energy():
    resp = fg.mean_field_correction(0.05)
    assert resp.delta_e_fermi > 0.0
    assert resp.delta_e_fermi == pytest.approx(0.05 * MEAN_FIELD_SHIFT, rel=1e-6)


def test_mean_field_linearity():
    small = fg.mean_field_correction(1e-4).delta_e_fermi
    large = fg.mean_field_correction(1e-2).delta_e_fermi
    assert small * 100.0 == pytest.approx(large, rel=1e-10)


def test_mean_field_table_is_the_pointwise_field():
    # n0 is tabulated once; each call's field is u_int times that table, the
    # bits of u_int * zero_t_density(s) at every grid point
    for u_int in (0.05, -0.031, 1e-4, 0.123456789 / 10.0):
        resp = fg.mean_field_correction(u_int)
        de, dn = perturb.response([u_int * fg.zero_t_density(s) for s in GRID])
        assert resp.delta_e_fermi == de
        assert resp.delta_n.tolist() == dn


def test_smallness_guard():
    with pytest.raises(DomainError, match="smallness guard"):
        PerturbationField.from_callable(lambda s: 0.2)
    with pytest.raises(DomainError, match="smallness guard"):
        fg.mean_field_correction(0.2)


def test_mean_field_correction_checks_its_field_once(monkeypatch):
    # the guard |u_int| n0(0) <= SMALLNESS_GUARD bounds the whole field, since
    # n0 falls from s = 0: the largest accepted u_int of either sign passes
    # field_values, so mean_field_correction never needs that second pass
    n0 = perturb._zero_t_density()
    edge = (perturb.SMALLNESS_GUARD + 1e-12) / n0[0]
    for u_int in (edge, -edge):
        assert perturb.field_values([u_int * n for n in n0])
    expected = fg.mean_field_correction(edge)

    def refuse(values):
        raise AssertionError("mean_field_correction re-checked its field")

    monkeypatch.setattr(perturb, "field_values", refuse)
    resp = fg.mean_field_correction(edge)
    assert resp.delta_e_fermi == expected.delta_e_fermi
    assert resp.delta_n.tolist() == expected.delta_n.tolist()
    with pytest.raises(DomainError, match="smallness guard"):
        fg.mean_field_correction(-2.0 * edge)


COLUMNS = "field table needs matching 1-d s and value columns"


@pytest.mark.parametrize("s, v, message", [
    ([0.0, 1.0], [0.01], COLUMNS),            # columns of different lengths
    ([0.0], [0.0], COLUMNS),                  # a single row
    ([[0.0, 1.0]], [[0.01, 0.01]], COLUMNS),  # 2-d columns
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.01, 0.02, 0.03],
     "field table abscissa must be strictly increasing"),
])
def test_field_table_malformed_columns_rejected(s, v, message):
    with pytest.raises(DomainError, match=message):
        PerturbationField.from_table(s, v)


def test_field_table_interpolation():
    s = np.linspace(0.0, 1.0, 40)
    fld = PerturbationField.from_table(s, 0.01 * s * s)
    # the 40-point table carries its own O(h^2) linear-interpolation bias
    assert fg.fermi_energy_shift(fld) == pytest.approx(0.005, abs=5e-6)


def test_field_table_partial_coverage_rejected():
    with pytest.raises(DomainError, match="cover"):
        PerturbationField.from_table([0.2, 0.6, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="cover"):
        PerturbationField.from_table([0.0, 0.4, 0.8], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("s, v, message", [
    ([math.nan, 0.5, 1.0], [0.0, 0.01, 0.02], "s must be finite, got nan in row 1"),
    ([0.0, math.nan, 1.0], [0.0, 0.01, 0.02], "s must be finite, got nan in row 2"),
    ([0.0, 0.5, math.nan], [0.0, 0.01, 0.02], "s must be finite, got nan in row 3"),
    ([0.0, 0.5, 1.0], [0.0, math.nan, 0.02], "dV/E_F must be finite, got nan in row 2"),
    ([0.0, 0.5, 1.0], [0.0, 0.01, math.inf], "dV/E_F must be finite, got inf in row 3"),
    ([0.0, 0.5, 1.0], [-math.inf, 0.01, 0.02], "dV/E_F must be finite, got -inf in row 1"),
])
def test_field_table_non_finite_entry_rejected(s, v, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        PerturbationField.from_table(s, v)


def test_field_validation():
    with pytest.raises(DomainError):
        PerturbationField(np.zeros(7))
    bad = np.zeros(GRID_SIZE)
    bad[11] = math.nan
    with pytest.raises(DomainError):
        PerturbationField(bad)


def test_field_keeps_a_read_only_copy():
    # a later write to the caller's array cannot skip the finiteness check and
    # the smallness guard, and the record's own values cannot be written
    given = np.zeros(GRID_SIZE)
    fld = PerturbationField(given)
    given[:] = 5.0
    assert fg.fermi_energy_shift(fld) == 0.0
    assert not np.shares_memory(given, fld.values)
    with pytest.raises(ValueError, match="read-only"):
        fld.values[0] = 1e300
    assert fg.density_response(fld).delta_e_fermi == 0.0


def test_grid_shape():
    assert len(GRID) == GRID_SIZE
    assert GRID[0] == 0.0 and GRID[-1] == 1.0


def test_grid_is_read_only():
    # GRID is the one grid behind every field's interpolation: a tuple, so no
    # write can move them all; a response's s_grid is the caller's own array
    with pytest.raises(TypeError):
        GRID[:] = 0.0
    fld = PerturbationField(np.linspace(0.0, 0.01, GRID_SIZE))
    assert fld.interp(0.5) == pytest.approx(0.005, rel=1e-12)
    s_grid = fg.density_response(fld).s_grid
    s_grid[0] = 1.0
    assert GRID[0] == 0.0 and fld.interp(0.0) == 0.0


def test_grid_is_one_tuple_and_s_grid_a_fresh_array_of_its_bits():
    # interp and s_grid take np.linspace: the same doubles as GRID, bit for bit
    assert type(GRID) is tuple and {type(s) for s in GRID} == {float}
    np.testing.assert_array_equal(np.linspace(0.0, 1.0, GRID_SIZE).view(np.int64),
                                  np.array(GRID).view(np.int64))
    fld = quadratic_field(0.01)
    first, second = fg.density_response(fld), fg.mean_field_correction(0.01)
    for resp in (first, second):
        assert resp.s_grid.dtype == np.float64 and resp.s_grid.flags.writeable
        assert resp.s_grid.tolist() == list(GRID)
    first.s_grid[:] = 0.5
    assert second.s_grid.tolist() == list(GRID)
    assert fg.density_response(fld).s_grid.tolist() == list(GRID)
    assert fld.interp(1.0) == pytest.approx(0.01, rel=1e-12)


def test_field_checks_entries_before_numpy_converts_them():
    # numbers of any type keep their bits; an object array is checked entry by entry
    values = np.linspace(-0.01, 0.01, GRID_SIZE)
    expected = PerturbationField(values).values
    for given in (values.tolist(), list(values), values.astype(object), tuple(values)):
        np.testing.assert_array_equal(PerturbationField(given).values, expected)
    ints = PerturbationField(np.zeros(GRID_SIZE, dtype=np.int64))
    assert ints.values.dtype == np.float64 and not ints.values.any()
    given = values.astype(object)
    given[9] = "0.01"
    with pytest.raises(DomainError, match="^field values must be finite at grid index 9, "
                                          "got '0.01'$"):
        PerturbationField(given)


@pytest.mark.parametrize("values, index", [
    (["0.01"] * GRID_SIZE, 0),
    ([b"0.01"] * GRID_SIZE, 0),
    (np.array(["0.01"] * GRID_SIZE), 0),
    (np.array([b"0.01"] * GRID_SIZE), 0),
    (np.array(["0.01"] * GRID_SIZE, dtype=object), 0),
    ([0.0] * 7 + [None] + [0.0] * (GRID_SIZE - 8), 7),
])
def test_field_refuses_text_bytes_and_none_by_grid_index(values, index):
    with pytest.raises(DomainError) as refused:
        PerturbationField(values)
    assert re.fullmatch(rf"field values must be finite at grid index {index}, got .+",
                        str(refused.value))


def test_field_names_a_non_finite_value_by_grid_index():
    bad = np.zeros(GRID_SIZE)
    bad[11] = math.nan
    with pytest.raises(DomainError, match="^field values must be finite, got nan at grid "
                                          "index 11$"):
        PerturbationField(bad)
    with pytest.raises(DomainError, match=re.escape(f"{GRID_SIZE} grid values, got 2")):
        PerturbationField(np.zeros((2, GRID_SIZE)))


def test_field_table_refuses_text_bytes_and_none_by_row():
    # numpy would parse "0.5" and b"0.5", and read None as a NaN the caller never gave
    for bad, got in (("0.5", "'0.5'"), (b"0.5", "b'0.5'"), (None, "None")):
        for s, v, column in (([0.0, bad, 1.0], [0.0, 0.01, 0.02], "s"),
                             ([0.0, 0.5, 1.0], [0.0, 0.01, bad], "dV/E_F")):
            row = 2 if column == "s" else 3
            message = f"field table {column} must be finite in row {row}, got {got}"
            for call in (PerturbationField.from_table, perturb.table_values):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    call(s, v)


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert _GAUSS_LEGENDRE == tuple(zip(nodes.tolist(), weights.tolist()))


def test_float_interpolation_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(17)
    for size in (2, 3, 7, 60, 2048, 5000):
        for _ in range(5):
            xp = np.cumsum(rng.exponential(1.0, size))
            xp = (xp - xp[0]) / (xp[-1] - xp[0]) * rng.uniform(0.5, 2.0) - rng.uniform(0.0, 0.5)
            fp = rng.normal(0.0, 0.05, size)
            # the table's own abscissae, the points beyond both ends, and the grid
            x = np.concatenate([xp, [xp[0] - 1.0, xp[-1] + 1.0], GRID,
                                rng.uniform(xp[0] - 0.1, xp[-1] + 0.1, 500)])
            table = xp.tolist(), fp.tolist()
            got = [_interp(v, *table) for v in x.tolist()]
            np.testing.assert_array_equal(got, np.interp(x, xp, fp))
