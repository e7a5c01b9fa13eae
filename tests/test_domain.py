"""One table of the public entry points and the arguments each one checks.

A particle number is a whole number: every entry point that takes one
refuses 2.5 and the text "3" with the one message of errors.check_count.
A number is a real number, not text: every scalar check refuses "0.5" and
b"0.5" with a DomainError that names its argument and shows the value.  A
Fermi-Dirac order is a number too, so text, bytes and None are refused.
"""

import re

import pytest

import fermigas as fg

SPEC = dict(mass=1e-26, omega_r=1000.0, lam=1.0, n_particles=1000)
GAS = dict(n_particles=1000, lam=1.0, u_bose=0.5)


def trap(**changes):
    return fg.TrapSpec(**{**SPEC, **changes})


def bose(**changes):
    return fg.BoseParams(**{**GAS, **changes})


# the names that take a particle number; every other name takes a real number
COUNTS = {"n_particles", "n_closed_shell"}
# the bad values each argument gets: a fraction and text for a count, text,
# bytes and None for the Fermi-Dirac order and eta, text and bytes elsewhere
BAD = {**dict.fromkeys(COUNTS, (2.5, "3")), "order": ("1.5", b"1.5", None),
       "eta": ("0.3", b"0.3", None)}

# entry point -> (argument name as its message gives it, call with the bad value there)
ENTRIES = {
    "TrapSpec": [
        ("n_particles", lambda x: trap(n_particles=x)),
        ("mass", lambda x: trap(mass=x)),
        ("omega_r", lambda x: trap(omega_r=x)),
        ("lambda", lambda x: trap(lam=x)),
    ],
    "BoseParams": [
        ("n_particles", lambda x: bose(n_particles=x)),
        ("lambda", lambda x: bose(lam=x)),
        ("u_bose", lambda x: bose(u_bose=x)),
        ("a_scatt", lambda x: bose(u_bose=None, a_scatt=x)),
    ],
    "exact_mu": [
        ("n_particles", lambda x: fg.exact_mu(x, 1.0, 0.5)),
        ("n_particles", lambda x: fg.exact_mu(x, 1.0, 0.0)),
        ("lambda", lambda x: fg.exact_mu(1000, x, 0.5)),
        ("t_abs", lambda x: fg.exact_mu(1000, 1.0, x)),
    ],
    "continuum_comparison": [
        ("n_particles", lambda x: fg.continuum_comparison(x, 1.0, 0.2)),
        ("lambda", lambda x: fg.continuum_comparison(1000, x, 0.2)),
        ("reduced temperature", lambda x: fg.continuum_comparison(1000, 1.0, x)),
    ],
    "counting_check": [
        ("n_particles", lambda x: fg.counting_check(x)),
        ("lambda", lambda x: fg.counting_check(1000, x)),
    ],
    "validity_report": [
        ("n_particles", lambda x: fg.validity_report(x, 1.0, [0.5])),
        ("lambda", lambda x: fg.validity_report(1000, x, [0.5])),
        ("radii", lambda x: fg.validity_report(1000, 1.0, [0.5, x])),
    ],
    "validity_table": [
        ("n_particles", lambda x: fg.scales.validity_table(x, 1.0, [0.5])),
        ("radii", lambda x: fg.scales.validity_table(1000, 1.0, [x])),
    ],
    "breakdown_shell_distance": [
        ("n_particles", lambda x: fg.breakdown_shell_distance(x)),
        ("lambda", lambda x: fg.breakdown_shell_distance(1000, x)),
    ],
    "semiclassical_central_density": [
        ("n_particles", lambda x: fg.semiclassical_central_density(x)),
        ("lambda", lambda x: fg.semiclassical_central_density(1000, x)),
    ],
    "exact_central_density": [
        ("n_closed_shell", lambda x: fg.exact_central_density(x)),
    ],
    "build_spectrum": [
        ("lambda", lambda x: fg.build_spectrum(x, 10.0)),
        ("cutoff", lambda x: fg.build_spectrum(1.0, x)),
    ],
    "effective_radius": [
        ("x", lambda v: fg.effective_radius(v, 0.1, 0.1, 1.0)),
        ("y", lambda v: fg.effective_radius(0.1, v, 0.1, 1.0)),
        ("z", lambda v: fg.effective_radius(0.1, 0.1, v, 1.0)),
        ("lambda", lambda v: fg.effective_radius(0.1, 0.1, 0.1, v)),
    ],
    "to_scaled": [
        ("rho", lambda x: fg.to_scaled(trap(), x, 1e5, 1e-7)),
        ("wavenumber", lambda x: fg.to_scaled(trap(), 1e-6, x, 1e-7)),
        ("temperature", lambda x: fg.to_scaled(trap(), 1e-6, 1e5, x)),
    ],
    "from_scaled": [
        ("s", lambda x: fg.from_scaled(trap(), x, 0.5, 0.2)),
        ("q", lambda x: fg.from_scaled(trap(), 0.5, x, 0.2)),
        ("reduced temperature", lambda x: fg.from_scaled(trap(), 0.5, 0.5, x)),
    ],
    "continuum_reliable": [
        ("reduced temperature", lambda x: fg.continuum_reliable(trap(), x)),
    ],
    "solve_mu": [("reduced temperature", fg.solve_mu)],
    "internal_energy": [("reduced temperature", fg.internal_energy)],
    "heat_capacity": [("reduced temperature", fg.heat_capacity)],
    "thermo_state": [("reduced temperature", fg.thermo_state)],
    "thermo_curve": [("reduced temperature", lambda x: fg.thermo_curve([0.1, x]))],
    "sommerfeld_mu": [("reduced temperature", fg.sommerfeld_mu)],
    "classical_mu": [("reduced temperature", fg.classical_mu)],
    "phase_space_occupancy": [
        ("s", lambda x: fg.phase_space_occupancy(x, 0.5, 0.2, 0.9)),
        ("q", lambda x: fg.phase_space_occupancy(0.5, x, 0.2, 0.9)),
        ("reduced temperature", lambda x: fg.phase_space_occupancy(0.5, 0.5, x, 0.9)),
        ("m", lambda x: fg.phase_space_occupancy(0.5, 0.5, 0.2, x)),
    ],
    "zero_t_density": [("s", fg.zero_t_density)],
    "density": [
        ("s", lambda x: fg.density(x, 0.2)),
        ("reduced temperature", lambda x: fg.density(0.5, x)),
    ],
    "momentum_density": [
        ("q", lambda x: fg.momentum_density(x, 0.2)),
        ("reduced temperature", lambda x: fg.momentum_density(0.5, x)),
    ],
    "normalization": [("reduced temperature", fg.normalization)],
    "mean_square_size": [("reduced temperature", fg.mean_square_size)],
    "msd_curve": [("reduced temperature", lambda x: fg.msd_curve([0.1, x]))],
    "profile_curves": [
        ("reduced temperature", lambda x: fg.profile_curves([0.1, x])),
        ("n_samples", lambda x: fg.profile_curves([0.1], x)),
        ("s_max", lambda x: fg.profile_curves([0.1], 3, x)),
    ],
    "bose_profile": [("s_b", lambda x: fg.bose_profile(x, bose()))],
    "mean_field_correction": [("u_int", fg.mean_field_correction)],
    "fd": [
        ("order", lambda x: fg.fd(x, 0.3)),
        ("eta", lambda x: fg.fd(1.5, x)),
    ],
    "fd_orders": [
        ("order", lambda x: fg.fd_orders([1.5, x], 0.3)),
        ("eta", lambda x: fg.fd_orders([1.5, 2.0], x)),
    ],
    "fd_derivative": [
        ("order", lambda x: fg.fd_derivative(x, 0.3)),
        ("eta", lambda x: fg.fd_derivative(2.0, x)),
    ],
    "band": [
        ("order", lambda x: fg.fdint.band(x, 0.3)),
        ("eta", lambda x: fg.fdint.band(1.5, x)),
    ],
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_point_refuses_fractional_counts_and_text(entry):
    for name, call in ENTRIES[entry]:
        for bad in BAD.get(name, ("0.5", b"0.5")):
            with pytest.raises(fg.DomainError) as refused:
                call(bad)
            message = str(refused.value)
            if name in COUNTS:
                assert message == f"{name} must be a positive integer, got {bad!r}", name
            else:
                assert re.fullmatch(rf"{re.escape(name)} must be .+, got {re.escape(repr(bad))}",
                                    message), (name, message)

