"""The frozen result records: construction, equality, hashing, repr and
immutability, the same for every record type of the package."""

import math
import re

import numpy as np
import pytest

import fermigas as fg
from fermigas import DomainError
from fermigas.curves import parse_csv


def li6_scales():
    return fg.derive_scales(fg.PRESETS["li6-top"])


# (record, the same fields again, other fields, its repr), one per record type
RECORDS = [
    (lambda: fg.TrapSpec(mass=1e-26, omega_r=1000.0, lam=1.0, n_particles=10),
     lambda: fg.TrapSpec(1e-26, 1000.0, 1.0, 10),
     lambda: fg.TrapSpec(1e-26, 1000.0, 2.0, 10),
     "TrapSpec(mass=1e-26, omega_r=1000.0, lam=1.0, n_particles=10)"),
    (lambda: fg.CharacteristicScales(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, fg.PRESETS["li6-top"]),
     lambda: fg.CharacteristicScales(e_fermi=1.0, t_fermi=2.0, r_fermi=3.0, k_fermi=4.0,
                                     sigma_r=5.0, level_spacing=6.0,
                                     spec=fg.PRESETS["li6-top"]),
     li6_scales,
     "CharacteristicScales(e_fermi=1.0, t_fermi=2.0, r_fermi=3.0, k_fermi=4.0, "
     "sigma_r=5.0, level_spacing=6.0)"),
    (lambda: fg.UniversalCurve("t", "m", ((0.0, 1.0), (0.5, 0.25))),
     lambda: fg.UniversalCurve(x_label="t", y_label="m", samples=((0.0, 1.0), (0.5, 0.25))),
     lambda: fg.UniversalCurve("t", "c", ((0.0, 1.0), (0.5, 0.25))),
     "UniversalCurve(x_label='t', y_label='m', samples=((0.0, 1.0), (0.5, 0.25)))"),
    (lambda: fg.ThermoState(t=0.5, m=0.25, u=1.5, c=2.0),
     lambda: fg.ThermoState(0.5, 0.25, 1.5, 2.0),
     lambda: fg.ThermoState(0.5, 0.25, 1.5, 2.5),
     "ThermoState(t=0.5, m=0.25, u=1.5, c=2.0)"),
    (lambda: fg.BoseParams(1000, 1.0, u_bose=0.5),
     lambda: fg.BoseParams(n_particles=1000, lam=1.0, a_scatt=0.5 / (4.0 * math.pi)),
     lambda: fg.BoseParams(1000, 1.0, a_scatt=0.5),
     f"BoseParams(n_particles=1000, lam=1.0, u_bose=0.5, a_scatt={0.5 / (4.0 * math.pi)!r})"),
    (lambda: fg.PauliPseudopotential(u_eff=1.0, a_eff=2.0, kf_a_eff=1.0),
     lambda: fg.PauliPseudopotential(1.0, 2.0, 1.0),
     lambda: fg.PauliPseudopotential(1.0, 3.0, 1.0),
     "PauliPseudopotential(u_eff=1.0, a_eff=2.0, kf_a_eff=1.0)"),
    (lambda: fg.ContinuumComparison(1.0, 2.0, 1.5, 0.25, 0.125),
     lambda: fg.ContinuumComparison(mu_exact=1.0, mu_continuum=2.0, zero_point=1.5,
                                    gap_raw=0.25, gap_adjusted=0.125),
     lambda: fg.ContinuumComparison(1.0, 2.0, 1.5, 0.25, 0.0),
     "ContinuumComparison(mu_exact=1.0, mu_continuum=2.0, zero_point=1.5, gap_raw=0.25, "
     "gap_adjusted=0.125)"),
]

# records with array fields, all of which their repr leaves out; an array
# field compares by its shape, dtype and bits, so the other record differs
# in one array's values, dtype or shape alone
ARRAY_RECORDS = [
    (lambda: fg.PerturbationField(np.zeros(fg.perturb.GRID_SIZE)),
     lambda: fg.PerturbationField([0.0] * fg.perturb.GRID_SIZE),
     lambda: fg.PerturbationField(np.full(fg.perturb.GRID_SIZE, 1e-3)),
     "PerturbationField()"),
    (lambda: fg.ResponseResult(0.25, np.zeros(3), np.ones(3)),
     lambda: fg.ResponseResult(0.25, np.zeros(3), np.ones(3)),
     lambda: fg.ResponseResult(0.25, np.zeros(3), np.ones(3, dtype=np.float32)),
     "ResponseResult(delta_e_fermi=0.25)"),
    (lambda: fg.DiscreteSpectrum(1.0, 3.0, np.arange(3.0), np.ones(3)),
     lambda: fg.DiscreteSpectrum(1.0, 3.0, np.array([0.0, 1.0, 2.0]), np.ones(3)),
     lambda: fg.DiscreteSpectrum(1.0, 3.0, np.arange(3.0), np.array([1.0, 3.0, 6.0])),
     "DiscreteSpectrum(lam=1.0, cutoff=3.0)"),
    (lambda: fg.ValidityReport(np.zeros(2), np.ones(2), np.ones(2), 0.5, 0.25),
     lambda: fg.ValidityReport(np.zeros(2), np.ones(2), np.ones(2), 0.5, 0.25),
     lambda: fg.ValidityReport(np.zeros(2), np.ones(2), np.ones((2, 1)), 0.5, 0.25),
     "ValidityReport(shell_thickness_sigma=0.5, inv_k_fermi_sigma=0.25)"),
]


@pytest.mark.parametrize("make, same, other, text", RECORDS + ARRAY_RECORDS)
def test_records_compare_and_hash_by_fields(make, same, other, text):
    record = make()
    assert record == same() and not record != same()
    assert hash(record) == hash(same())
    assert record != other()
    assert repr(record) == text


@pytest.mark.parametrize("make, text", [(r[0], r[3]) for r in ARRAY_RECORDS])
def test_array_fields_are_left_out_of_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [r[0] for r in RECORDS + ARRAY_RECORDS])
def test_records_are_frozen(make):
    record = make()
    name = next(iter(vars(record)))
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'no_such_field'"):
        record.no_such_field = 1.0
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is before


def test_records_of_different_types_differ():
    a = fg.PauliPseudopotential(1.0, 2.0, 1.0)
    b = fg.ThermoState(1.0, 2.0, 1.0, 0.0)
    assert a != b and b != a
    assert fg.ThermoState(0.5, 0.25, 1.5, 2.0) != (0.5, 0.25, 1.5, 2.0)


def test_post_init_checks_and_derived_fields():
    params = fg.BoseParams(1000, 1.0, a_scatt=0.5)
    assert params.u_bose == 4.0 * math.pi * 0.5
    assert fg.BoseParams(1000, 1.0, u_bose=2.0).a_scatt == 2.0 / (4.0 * math.pi)
    with pytest.raises(DomainError, match="exactly one"):
        fg.BoseParams(1000, 1.0)
    with pytest.raises(DomainError, match="mass"):
        fg.TrapSpec(mass=-1.0, omega_r=1000.0, lam=1.0, n_particles=10)
    with pytest.raises(DomainError, match="labels"):
        fg.UniversalCurve("t", "nope", ((0.0, 1.0),))
    with pytest.raises(DomainError, match="^curve has no samples$"):  # direct construction only
        fg.UniversalCurve("t", "m", ())
    fld = fg.PerturbationField([0.01] * fg.perturb.GRID_SIZE)
    assert isinstance(fld.values, np.ndarray) and fld.values.dtype == float


def test_unsorted_curve_names_its_abscissa_and_first_pair_out_of_order():
    for make in (fg.thermo_curve, fg.msd_curve):
        with pytest.raises(DomainError, match=r"^curve abscissa t must be strictly increasing, "
                                              r"got 0\.1 after 0\.2$"):
            make([0.2, 0.1])
    with pytest.raises(DomainError, match=r"^curve abscissa s must be strictly increasing, "
                                          r"got 0\.5 after 0\.5$"):
        fg.UniversalCurve("s", "density", ((0.0, 1.0), (0.5, 0.25), (0.5, 0.125), (0.25, 0.0)))


@pytest.mark.parametrize("text, number, line", [
    pytest.param("# curve\nt,m\n0.0\n0.5,0.25\n", 3, "0.0", id="a sample of one field"),
    pytest.param("t\n0.0,1.0\n", 1, "t", id="a header of one label"),
    pytest.param("t,m\n\n0.0,1.0,2.0\n", 3, "0.0,1.0,2.0", id="a sample of three fields"),
])
def test_curve_csv_line_without_two_fields_is_named(text, number, line):
    message = f"curve line {number} must hold two comma-separated fields, got {line!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        parse_csv(text)


@pytest.mark.parametrize("text, number, line", [
    pytest.param("t,m\nabc,1\n", 2, "abc,1", id="a sample whose abscissa is no number"),
    pytest.param("# curve\nt,m\n0.5,0.25\n\n0.75,\n", 5, "0.75,", id="an empty ordinate"),
])
def test_curve_csv_sample_that_is_not_two_numbers_is_named(text, number, line):
    message = f"curve line {number} must hold two numbers, got {line!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        parse_csv(text)


def test_missing_and_unknown_fields_are_type_errors():
    with pytest.raises(TypeError):
        fg.ThermoState(0.5, 0.25, 1.5)
    with pytest.raises(TypeError):
        fg.ThermoState(0.5, 0.25, 1.5, 2.0, 3.0)
    with pytest.raises(TypeError):
        fg.ThermoState(t=0.5, m=0.25, u=1.5, c=2.0, d=3.0)
    with pytest.raises(TypeError):
        fg.ThermoState(0.5, 0.25, 1.5, t=2.0)
