"""Command-line front-end emitting the universal curves as data tables.

_COMMANDS, name -> (help, handler), is the command set: build_parser makes
one subparser per entry, in table order, and main dispatches through it.
Output is CSV or JSON, byte-identical across runs for one configuration.  A
flat key=value config file (``#`` comments) named by FERMIGAS_CONFIG is read
as --key=value tokens placed right after the command, so later flags win, as
a trap flag (_TRAP_FLAGS) wins over that field of --preset.  Exit codes: 0
success, 1 numerical or I/O failure, 2 usage error (malformed input files too).

Each handler imports the library modules it uses and calls their float
code, so numpy is imported only where oracle falls back to its level sum on
arrays (oracle module docstring).
"""

import argparse
import math
import os
import sys

from . import scales
from .curves import UniversalCurve, linspace, sample_count, write_table
from .errors import DomainError, FermiGasError

_FIG_GRID_STEPS = 200   # default t grid for the mu, heat and size curves
_FIG_GRID_TMAX = 2.0
_PROFILE_SMAX = 1.5     # default s grid for the density profiles
_PROFILE_SAMPLES = 300

CONFIG_ENV_VAR = "FERMIGAS_CONFIG"


def _float_list(text):
    # parsing only: the library refuses a value outside its domain and names it
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _shell_list(text):
    shells = []
    for tok in filter(str.strip, text.split(",")):
        try:
            shell = int(tok)
        except ValueError:
            shell = -1
        if shell < 0 or shell in shells:
            raise argparse.ArgumentTypeError(
                f"expected distinct non-negative integers, got {tok!r} in {text!r}")
        shells.append(shell)
    if not shells:
        raise argparse.ArgumentTypeError(f"expected at least one shell, got {text!r}")
    return shells


# (flag, TrapSpec field, type, help) for each trap option; the field is also the dest
_TRAP_FLAGS = (
    ("--mass", "mass", float, "particle mass in kg"),
    ("--omega-r", "omega_r", float, "radial frequency in rad/s"),
    ("--lambda", "lam", float, "axial/radial anisotropy"),
    ("--n", "n_particles", int, "particle number"),
)


def _add_trap_options(sub):
    sub.add_argument("--preset", choices=sorted(scales.PRESETS))
    for flag, field, kind, hint in _TRAP_FLAGS:
        sub.add_argument(flag, dest=field, type=kind, help=hint)


def _trap_spec(p):
    """The --preset trap, each trap flag given replacing its field."""
    preset = scales.PRESETS.get(p["preset"])
    missing = [flag for flag, field, _, _ in _TRAP_FLAGS if p[field] is None]
    if preset is None and missing:
        raise DomainError("give --preset or all of " + ", ".join(missing))
    return scales.TrapSpec(**{field: getattr(preset, field) if p[field] is None
                              else p[field] for _, field, _, _ in _TRAP_FLAGS})


def build_parser():
    """The argument parser, one subparser per _COMMANDS entry."""
    parser = argparse.ArgumentParser(
        prog="fermigas",
        description="Universal curves of the harmonically trapped ideal Fermi gas",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--output", default=None, help="output path (default stdout)")
    subs = parser.add_subparsers(dest="command", required=True)
    cmd = {name: subs.add_parser(name, help=hint, parents=[common])
           for name, (hint, _) in _COMMANDS.items()}

    for name in ("mu-curve", "heat-curve", "msd-curve"):
        cmd[name].add_argument("--t-min", type=float, default=0.0)
        cmd[name].add_argument("--t-max", type=float, default=_FIG_GRID_TMAX)
        cmd[name].add_argument("--steps", type=int, default=_FIG_GRID_STEPS)

    sub = cmd["profile"]
    sub.add_argument("--t", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    sub.add_argument("--s-max", type=float, default=_PROFILE_SMAX)
    sub.add_argument("--samples", type=int, default=_PROFILE_SAMPLES)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--space", dest="kind", action="store_const",
                       const="space", default="space")
    group.add_argument("--momentum", dest="kind", action="store_const", const="momentum")

    _add_trap_options(cmd["scales"])

    cmd["perturb"].add_argument("--delta-v", required=True,
                                help="two-column CSV of (s, dV/E_F) covering [0, 1]")

    sub = cmd["bose-compare"]
    _add_trap_options(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--u-bose", type=float,
                       help="contact interaction in trap units")
    group.add_argument("--a-scatt", type=float,
                       help="s-wave scattering length in units of sigma_r")

    sub = cmd["oracle"]
    sub.add_argument("--n", dest="n_particles", type=int, default=10_000)
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--t", type=float, default=0.2)
    sub.add_argument("--shells", type=_shell_list, default=[10, 20, 40, 80])

    sub = cmd["validity"]
    sub.add_argument("--n", dest="n_particles", type=int, default=100_000)
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--radii", type=_float_list,
                     default=[i / 20 for i in range(25)])

    return parser


def _load_config_file(path):
    """The key=value entries of a config file as --key=value tokens."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        tokens.append(f"--{key}={value}")
    return tokens


def parse_argv(argv) -> argparse.Namespace:
    """Parse argv, with the config file's tokens placed after the command:
    argparse keeps the last occurrence of an option, so flags win."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if path and argv and not argv[0].startswith("-"):
        argv = [argv[0], *_load_config_file(path), *argv[1:]]
    return build_parser().parse_args(argv)


def _t_grid(p):
    # a finite grid of t >= 0; NaN fails every comparison
    if not 0.0 <= p["t_min"] < p["t_max"] < math.inf:
        raise DomainError(f"need 0 <= --t-min < --t-max < inf, got --t-min {p['t_min']!r} "
                          f"and --t-max {p['t_max']!r}")
    return linspace(p["t_min"], p["t_max"], sample_count("--steps", p["steps"]))


def _run_curve(p, fmt):
    """mu-curve, heat-curve or msd-curve, by p["command"]."""
    if p["command"] == "msd-curve":
        from .profiles import msd_curve
        curve = msd_curve(_t_grid(p))
    else:  # only the printed column of thermo_curve
        from .thermo import heat_capacity, solve_mu
        label, column = ("c", heat_capacity) if p["command"] == "heat-curve" else ("m", solve_mu)
        curve = UniversalCurve("t", label, tuple((t, column(t)) for t in _t_grid(p)))
    return curve.to_json() if fmt == "json" else curve.to_csv()


def _run_profile(p, fmt):
    from . import profiles

    curves = profiles.profile_curves(p["t"], p["samples"], p["s_max"])
    if p["kind"] == "momentum":
        # the momentum density is the same function of q = |k|/K_F
        curves = [UniversalCurve("q", c.y_label, c.samples) for c in curves]
    blocks = list(zip(p["t"], curves))
    if fmt == "json":
        return write_table(fmt, doc=[{"t": t, **c.to_json_obj()} for t, c in blocks])
    return "\n".join(write_table(fmt, (c.x_label, c.y_label), c.samples, [("t", t)])
                     for t, c in blocks)


def _run_scales(p, fmt):
    spec = _trap_spec(p)
    sc = scales.derive_scales(spec)
    pairs = [
        ("mass_kg", spec.mass),
        ("omega_r_rad_s", spec.omega_r),
        ("lambda", spec.lam),
        ("n_particles", spec.n_particles),
        ("e_fermi_j", sc.e_fermi),
        ("t_fermi_k", sc.t_fermi),
        ("r_fermi_m", sc.r_fermi),
        ("k_fermi_per_m", sc.k_fermi),
        ("inv_k_fermi_m", 1.0 / sc.k_fermi),
        ("sigma_r_m", sc.sigma_r),
        ("level_spacing_j", sc.level_spacing),
    ]
    return write_table(fmt, ("key", "value"), pairs, doc=dict(pairs))


def _read_delta_v_table(path):
    import csv

    rows = []
    try:  # an OSError is an I/O failure, not malformed input
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a UTF-8 CSV table: {exc}")
    for row in table:
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if not rows:
                continue  # header row
            raise DomainError(f"{path}: malformed table row {row!r}")
    if len(rows) < 2:
        raise DomainError(f"{path}: need at least two (s, dV/E_F) rows")
    return list(zip(*rows))  # the s and dV/E_F columns


def _run_perturb(p, fmt):
    from . import perturb

    values = perturb.field_values(perturb.table_values(*_read_delta_v_table(p["delta_v"])))
    de, dn = perturb.response(values)
    rows = list(zip(perturb.GRID_POINTS, dn))
    return write_table(fmt, ("s", "delta_n"), rows, [("delta_e_fermi_over_e_fermi", de)],
                       doc={"delta_e_fermi": de, "samples": rows})


def _run_bose_compare(p, fmt):
    from . import bose

    spec = _trap_spec(p)
    sc = scales.derive_scales(spec)
    pauli, u_eff_trap = bose._pauli_pseudopotential(sc)
    u_bose, a_scatt = p["u_bose"], p["a_scatt"]
    if u_bose is None and a_scatt is None:
        u_bose = u_eff_trap  # the gas mimicked by its own Pauli pseudopotential
    params = bose.BoseParams(spec.n_particles, spec.lam, u_bose=u_bose, a_scatt=a_scatt)
    rb = bose.bose_radius(params)
    pairs = [
        ("n_particles", spec.n_particles),
        ("lambda", spec.lam),
        ("u_bose_trap_units", params.u_bose),
        ("a_scatt_sigma", params.a_scatt),
        ("r_bose_sigma", rb),
        ("r_bose_m", rb * sc.sigma_r),
        ("mu_bose_hbar_omega", bose.bose_chemical_potential(params)),
        ("r_fermi_sigma", sc.r_fermi / sc.sigma_r),
        ("r_fermi_m", sc.r_fermi),
        ("pauli_u_eff_j_m3", pauli.u_eff),
        ("pauli_u_eff_trap_units", u_eff_trap),
        ("pauli_a_eff_m", pauli.a_eff),
        ("kf_a_eff", pauli.kf_a_eff),
    ]
    return write_table(fmt, ("key", "value"), pairs, doc=dict(pairs))


def _run_oracle(p, fmt):
    from . import oracle

    comp = oracle.continuum_comparison(p["n_particles"], p["lam"], p["t"])
    pairs = [
        ("n_particles", p["n_particles"]),
        ("lambda", p["lam"]),
        ("t", p["t"]),
        ("mu_exact_hbar_omega", comp.mu_exact),
        ("mu_continuum_hbar_omega", comp.mu_continuum),
        ("zero_point_hbar_omega", comp.zero_point),
        ("gap_raw_over_e_fermi", comp.gap_raw),
        ("gap_adjusted_over_e_fermi", comp.gap_adjusted),
    ]
    if p["lam"] == 1.0:
        for shell in p["shells"]:
            n_closed = oracle.closed_shell_count(shell)
            exact = oracle.exact_central_density(n_closed)
            semi = oracle.semiclassical_central_density(n_closed)
            pairs.append((f"central_density_ratio_shell_{shell}", exact / semi))
    return write_table(fmt, ("key", "value"), pairs, doc=dict(pairs))


def _run_validity(p, fmt):
    rows, shell, inv_kf = scales.validity_table(p["n_particles"], p["lam"], p["radii"])
    notes = [("shell_thickness_sigma", shell), ("inv_k_fermi_sigma", inv_kf)]

    def finite(x):
        return x if math.isfinite(x) else None

    doc = {**dict(notes), "rows": [{"s": s, "margin": finite(m), "cell_scale": finite(c)}
                                   for s, m, c in rows]}
    return write_table(fmt, ("s", "margin", "cell_scale"), rows, notes, doc)


_COMMANDS = {
    "mu-curve": ("reduced chemical potential vs temperature", _run_curve),
    "heat-curve": ("heat capacity per particle vs temperature", _run_curve),
    "msd-curve": ("mean-square cloud size vs temperature", _run_curve),
    "profile": ("universal density profile at given t", _run_profile),
    "scales": ("characteristic scales of a physical trap", _run_scales),
    "perturb": ("linear response to a trap perturbation", _run_perturb),
    "bose-compare": ("Thomas-Fermi Bose cloud contrast", _run_bose_compare),
    "oracle": ("exact level-sum cross-validation", _run_oracle),
    "validity": ("semiclassical validity margins", _run_validity),
}


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        text = _COMMANDS[args.command][1](vars(args), args.format)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except DomainError as exc:
        print(f"fermigas: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fermigas: I/O failure: {exc}", file=sys.stderr)
        return 1
    except (FermiGasError, ArithmeticError) as exc:
        print(f"fermigas: numerical failure: {exc}", file=sys.stderr)
        return 1
