"""Reference values and output checks, independent of the code they check.

* Fermi-Dirac integrals come from mpmath's polylogarithm,
  f_k(eta) = -Li_k(-e^eta), at 30 or more digits.  m(t) is the root of
  6 t^3 f_3(m/t) = 1 found by Newton's method in mpmath; u, c, the density
  and <rho^2>/R_F^2 = u/2 (virial theorem) follow at that root.
* The exact chemical potential is checked by recounting occupations over a
  spectrum the benchmark enumerates itself, with its own, wider cutoff.
* The central density is the exact rational sum of |psi_n(0)|^2 over every
  occupied oscillator state, with |psi_2i(0)|^2 sigma sqrt(pi) = C(2i,i)/4^i.
* The perturbation response integrates the piecewise-linear field against
  s^2 sqrt(1-s^2) with closed-form antiderivatives.
* Physical scales are derived in mpmath from the CODATA 2018 constants as
  published (hbar = 1.054571817e-34 J s, k_B = 1.380649e-23 J/K), the
  values the package documents.  hbar there is h/2pi cut to 10 digits, so
  against h/2pi itself the derived scales differ by up to 1.5e-9 relative
  (the Pauli u_eff goes as hbar^2.5); the check compares arithmetic, not
  the choice of constant.

Each check yields (output kind, error) pairs.  The error is relative,
|x - ref| / max(|ref|, scale), where scale is zero except for quantities
that pass through zero: m (scale t), the density change dn (scale of its
two terms) and the oracle gaps (scale mu/E_F, since a gap is a difference
of chemical potentials).  Magnitudes below UNDERFLOW lie under the normal
double range and are compared absolutely.  An operation passes when every
error is at most TOLERANCE.
"""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

import workloads

TOLERANCE = 1e-9
UNDERFLOW = 1e-290
DIGITS = 30

HBAR_SI = mp.mpf("1.054571817e-34")
KB_SI = mp.mpf("1.380649e-23")
# li6-top as documented in the README: 6Li in a TOP trap.
LI6_TOP = {"mass": 9.988e-27, "omega_r": 3800.0, "lam": math.sqrt(8.0),
           "n": 100_000}


def rel_err(x, ref, scale=0):
    """|x - ref| / max(|ref|, scale, UNDERFLOW); inf for a non-finite x."""
    if x is None or not math.isfinite(x):
        return math.inf
    den = max(abs(mp.mpf(ref)), mp.mpf(scale), mp.mpf(UNDERFLOW))
    return float(abs(mp.mpf(x) - ref) / den)


def _digits_for(t):
    # c = 12 f4/f3 - 9 f3/f2 cancels ~ 2 log10(eta) digits at eta = m/t
    return DIGITS + (int(2 * math.log10(1.0 / t)) + 2 if t < 1.0 else 0)


def fd_ref(k, eta):
    """f_k(eta) = -Li_k(-exp(eta)) at the working precision."""
    return mp.re(-mp.polylog(k, -mp.exp(eta)))


class References:
    """Memoised mpmath references for one run."""

    def __init__(self):
        self._m = {}
        self._hat = None
        self._spectra = {}

    # -- thermodynamics -------------------------------------------------
    def m(self, t, guess=None):
        """Root of 6 t^3 f_3(m/t) = 1 (mpf, at the t-dependent precision)."""
        t = float(t)
        if t == 0.0:
            return mp.mpf(1)
        if t in self._m:
            return self._m[t]
        with mp.workdps(_digits_for(t) + 5):
            tm = mp.mpf(t)
            if guess is not None and math.isfinite(guess):
                m = mp.mpf(guess)
            elif t < 0.5:
                m = 1 - mp.pi ** 2 * tm ** 2 / 3
            else:
                m = -tm * mp.log(6 * tm ** 3)
            for _ in range(100):
                eta = m / tm
                g = 6 * tm ** 3 * fd_ref(3, eta) - 1
                step = g / (6 * tm ** 2 * fd_ref(2, eta))
                step = max(min(step, tm * 5), -tm * 5)  # damp far from the root
                m -= step
                if abs(step) <= mp.mpf(10) ** (-mp.mp.dps + 4) * max(1, abs(m)):
                    break
            else:
                raise ArithmeticError(f"reference m(t) did not converge at t={t}")
        self._m[t] = m
        return m

    def thermo(self, t, guess=None):
        """(m, u, c) at t > 0."""
        m = self.m(t, guess)
        with mp.workdps(_digits_for(t) + 5):
            tm = mp.mpf(t)
            eta = m / tm
            f2, f3, f4 = fd_ref(2, eta), fd_ref(3, eta), fd_ref(4, eta)
            return m, 18 * tm ** 4 * f4, 12 * f4 / f3 - 9 * f3 / f2

    def density(self, s, t, guess=None):
        s = mp.mpf(s)
        if t == 0.0:
            return 8 / mp.pi ** 2 * max(1 - s * s, 0) ** mp.mpf(1.5)
        m = self.m(t, guess)
        with mp.workdps(_digits_for(t) + 5):
            tm = mp.mpf(t)
            return 6 / mp.pi ** 1.5 * tm ** 1.5 * fd_ref(mp.mpf(1.5), (m - s * s) / tm)

    # -- perturbation ---------------------------------------------------
    def hat_weights(self):
        """int hat_j(s) s^2 sqrt(1-s^2) ds for the piecewise-linear field."""
        if self._hat is None:
            with mp.workdps(45):
                s = [mp.mpf(x) for x in workloads.field_grid()]

                def f2(x):
                    return (mp.asin(x) - x * mp.sqrt(1 - x * x) * (1 - 2 * x * x)) / 8

                def f3(x):
                    return -(1 - x * x) ** mp.mpf(1.5) * (3 * x * x + 2) / 15

                a2 = [f2(x) for x in s]
                a3 = [f3(x) for x in s]
                w = [mp.mpf(0)] * len(s)
                for j in range(len(s) - 1):
                    a, b = s[j], s[j + 1]
                    h = b - a
                    d2, d3 = a2[j + 1] - a2[j], a3[j + 1] - a3[j]
                    w[j] += (b * d2 - d3) / h
                    w[j + 1] += (d3 - a * d2) / h
                self._hat = [float(x) for x in w]
        return self._hat

    def fermi_shift(self, values):
        """Particle-conserving dE_F/E_F for field values on the grid."""
        return math.fsum(w * v for w, v in zip(self.hat_weights(), values)) / (math.pi / 16)

    # -- exact spectrum -------------------------------------------------
    def levels(self, lam, cutoff):
        """Every level p + lam*nz <= cutoff (p planar, degeneracy p + 1), unmerged."""
        cached = self._spectra.get(lam)
        if cached is None or cached[0] < cutoff:
            top = 1.25 * cutoff
            e, g = [], []
            for nz in range(int(top // lam) + 1):
                p = np.arange(0, int(math.floor(top - lam * nz)) + 1, dtype=float)
                e.append(p + lam * nz)
                g.append(p + 1.0)
            e, g = np.concatenate(e), np.concatenate(g)
            order = np.argsort(e, kind="stable")
            cached = (top, e[order], g[order])
            self._spectra[lam] = cached
        _, e, g = cached
        n = int(np.searchsorted(e, cutoff, side="right"))
        return e[:n], g[:n]

    def exact_mu_error(self, mu, n_particles, lam, t_abs):
        """Relative error of mu from the residual of a fresh occupation recount."""
        if mu is None or not math.isfinite(mu):
            return math.inf
        e, g = self.levels(lam, mu + 50.0 * t_abs + 10.0)
        x = (e - mu) / t_abs
        occ = np.where(x >= 0, np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
                       1.0 / (1.0 + np.exp(x)))
        residual = float(np.sum(g * occ)) - n_particles
        slope = float(np.sum(g * occ * (1.0 - occ))) / t_abs
        return abs(residual / slope) / abs(mu)


def central_density_ref(top):
    """n(0) sigma^3 of shells 0..top, exact sum over even (nx, ny, nz)."""
    k_max = top // 2
    c = [math.comb(2 * i, i) for i in range(k_max + 1)]
    pair = [sum(c[i] * c[s - i] for i in range(s + 1)) for s in range(k_max + 1)]
    triple = [sum(pair[i] * c[s - i] for i in range(s + 1)) for s in range(k_max + 1)]
    total = sum(Fraction(triple[s], 4 ** s) for s in range(k_max + 1))
    return mp.mpf(total.numerator) / total.denominator / mp.pi ** 1.5


def semiclassical_n0_ref(n_particles, lam):
    """Continuum n(0) sigma^3 = N lam (8/pi^2) / (R_F/sigma)^3, R_F/sigma = sqrt(2 E_F)."""
    e_f = (6 * lam * mp.mpf(n_particles)) ** (mp.mpf(1) / 3)
    return n_particles * lam * 8 / mp.pi ** 2 / (2 * e_f) ** mp.mpf(1.5)


def validity_ref(n_particles, lam, s):
    """(margin, cell_scale) at radius s, from the T = 0 cloud in trap units."""
    s = mp.mpf(s)
    e_f = (6 * lam * mp.mpf(n_particles)) ** (mp.mpf(1) / 3)
    radius = mp.sqrt(2 * e_f)                       # R_F / sigma
    inside = max(1 - s * s, 0)
    n_sigma3 = n_particles * lam * 8 / mp.pi ** 2 * inside ** mp.mpf(1.5) / radius ** 3
    margin = mp.inf if s == 0 else n_sigma3 / (s * radius)
    if s == 0 or s >= 1:
        cell = mp.nan
    else:
        cell = mp.sqrt(n_sigma3 ** (-mp.mpf(1) / 3) * radius * inside / (2 * s))
    return margin, cell


def _match(x, ref):
    """Error of x against an mpf that may be inf or nan (then x must match)."""
    if mp.isnan(ref):
        return 0.0 if x is None or (isinstance(x, float) and math.isnan(x)) else math.inf
    if mp.isinf(ref):
        return 0.0 if x is None or x == math.inf else math.inf
    return rel_err(x, ref)


# -- per-operation checks ----------------------------------------------------

def _pick(seq, k, salt):
    """k items spread evenly over seq, offset by salt (deterministic)."""
    n = len(seq)
    if n <= k:
        return list(seq)
    step = n / k
    return [seq[min(n - 1, int((i + (salt % 97) / 97.0) * step))] for i in range(k)]


def check_thermo_samples(refs, rows, kind, salt, k=3):
    """rows: (t, value) pairs of one figure curve; kind in m, c, msd, u."""
    out = []
    for t, value in _pick(rows, k, salt):
        if t == 0.0:
            exact = {"m": 1.0, "c": 0.0, "msd": 0.375, "u": 0.75}[kind]
            out.append((kind, 0.0 if value == exact else math.inf))
            continue
        m, u, c = refs.thermo(t, value if kind == "m" else None)
        if kind == "m":
            out.append(("m", rel_err(value, m, t)))
        elif kind == "c":
            out.append(("c", rel_err(value, c)))
        elif kind == "u":
            out.append(("u", rel_err(value, u)))
        else:
            out.append(("msd", rel_err(value, u / 2)))
    return out


def check_density_samples(refs, t, rows, salt, k=2):
    out = []
    for s, value in _pick(rows, k, salt):
        out.append(("density", rel_err(value, refs.density(s, t))))
    return out


def check_response(refs, values, de, dn, salt):
    de_ref = refs.fermi_shift(values)
    out = [("perturb", rel_err(de, de_ref))]
    grid = workloads.field_grid()
    for j in _pick(range(len(grid)), 3, salt):
        root = math.sqrt(max(1.0 - grid[j] ** 2, 0.0))
        pref = 12 / mp.pi ** 2 * root
        ref = pref * (de_ref - values[j])
        out.append(("perturb", rel_err(dn[j], ref, pref * max(abs(de_ref), abs(values[j])))))
    return out


def _exact_round_trip(samples, parsed):
    ok = len(samples) == len(parsed) and all(
        float(a) == float(x) and float(b) == float(y)
        for (a, b), (x, y) in zip(samples, parsed))
    return [("serialize", 0.0 if ok else math.inf)]


def _parse_curve_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]


def check_library_op(refs, op, out, ops_out, index):
    """Errors for one in-process operation of the figures or oracle workload."""
    kind = op["kind"]
    salt = index
    if kind == "thermo_curve":
        return (check_thermo_samples(refs, out["m"], "m", salt)
                + check_thermo_samples(refs, out["c"], "c", salt + 1))
    if kind == "thermo_state":
        errs = []
        for t, st in _pick(list(zip(op["ts"], out)), 2, salt):
            m, u, c = refs.thermo(t, st["m"])
            errs += [("m", rel_err(st["m"], m, t)), ("u", rel_err(st["u"], u)),
                     ("c", rel_err(st["c"], c))]
        return errs
    if kind == "mean_square_size":
        return check_thermo_samples(refs, list(zip(op["ts"], out)), "msd", salt, 2)
    if kind == "normalization":
        return [("normalization", rel_err(x, 1)) for x in out]
    if kind == "profile_curves":
        errs = []
        for t, rows in zip(op["ts"], out):
            errs += check_density_samples(refs, t, rows, salt)
        return errs
    if kind in ("density_grid", "momentum_grid"):
        errs = []
        for j, (t, row) in enumerate(_pick(list(zip(op["ts"], out)), 2, salt)):
            errs += check_density_samples(refs, t, list(zip(op["s"], row)), salt + j, 1)
        return errs
    if kind == "mean_field_correction":
        u = op["u_int"]
        values = [u * 8 / math.pi ** 2 * max(1.0 - s * s, 0.0) ** 1.5
                  for s in workloads.field_grid()]
        return check_response(refs, values, out["de"], out["dn"], salt)
    if kind == "density_response":
        values = workloads.field_values(op["field"], workloads.field_grid())
        return check_response(refs, values, out["de"], out["dn"], salt)
    if kind in ("to_csv", "to_json"):
        src = ops_out[op["source"]]
        samples = (src["m"], src["c"])[op["curve"]] if isinstance(src, dict) \
            else src[op["curve"]]
        if kind == "to_csv":
            return _exact_round_trip(samples, _parse_curve_csv(out))
        return _exact_round_trip(samples, json.loads(out)["samples"])
    if kind == "continuum_comparison":
        return check_comparison(refs, op["n"], op["lam"], op["t"], out)
    if kind == "exact_central_density":
        return [("central_density", rel_err(out, central_density_ref(op["shell"])))]
    if kind == "counting_check":
        n = workloads.closed_shell_count(op["shell"])
        threshold = (6.0 * n) ** (1.0 / 3.0) - 1.5
        top = int(math.floor(threshold))
        count = sum((k + 1) * (k + 2) // 2 for k in range(top + 1))
        edge = (top + 2) * (top + 3) // 2
        return [("counting", 0.0 if list(out) == [abs(count - n), edge] else math.inf)]
    if kind == "exact_mu_zero_t":
        return [("exact_mu", rel_err(out, op["shell"] + 0.5))]
    if kind == "validity_report":
        return check_validity(op["n"], op["lam"], out["radii"], out["margin"],
                              out["cell"], out["shell"], out["inv_kf"])
    raise ValueError(f"no check for operation kind {kind!r}")


def check_comparison(refs, n, lam, t, out):
    e_f = (6.0 * lam * n) ** (1.0 / 3.0)
    errs = [("exact_mu", refs.exact_mu_error(out["mu_exact"], n, lam, t * e_f))]
    mu_cont = refs.m(t, out["mu_continuum"] / e_f) * e_f
    errs.append(("m", rel_err(out["mu_continuum"], mu_cont, t * e_f)))
    errs.append(("oracle_gap", rel_err(out["zero_point"], 1 + mp.mpf(lam) / 2)))
    zp = 1 + mp.mpf(lam) / 2
    mu_ex = mp.mpf(out["mu_exact"])
    scale = abs(mu_cont) / e_f
    errs.append(("oracle_gap", rel_err(out["gap_raw"], abs(mu_ex - mu_cont) / e_f, scale)))
    errs.append(("oracle_gap", rel_err(out["gap_adjusted"],
                                       abs(mu_ex + zp - mu_cont) / e_f, scale)))
    return errs


def check_validity(n, lam, radii, margin, cell, shell, inv_kf):
    errs = []
    for s, m_val, c_val in zip(radii, margin, cell):
        m_ref, c_ref = validity_ref(n, lam, s)
        errs.append(("validity", _match(m_val, m_ref)))
        errs.append(("validity", _match(c_val, c_ref)))
    e_f = (6 * lam * mp.mpf(n)) ** (mp.mpf(1) / 3)
    errs.append(("validity", rel_err(shell, mp.mpf(n) ** (-mp.mpf(1) / 6))))
    errs.append(("validity", rel_err(inv_kf, 1 / mp.sqrt(2 * e_f))))
    return errs


# -- command-line outputs ----------------------------------------------------

def _kv(text, fmt):
    if fmt == "json":
        return json.loads(text)
    rows = [ln.split(",", 1) for ln in text.splitlines()[1:] if ln]
    return {k: float(v) for k, v in rows}


def _option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def _scales_ref(args):
    if "--preset" in args:
        mass, omega, lam, n = (LI6_TOP[k] for k in ("mass", "omega_r", "lam", "n"))
    else:
        mass, omega = float(_option(args, "--mass")), float(_option(args, "--omega-r"))
        lam, n = float(_option(args, "--lambda")), int(_option(args, "--n"))
    hbar = HBAR_SI
    m, w = mp.mpf(mass), mp.mpf(omega)
    e_f = hbar * w * (6 * mp.mpf(lam) * n) ** (mp.mpf(1) / 3)
    k_f = mp.sqrt(2 * m * e_f) / hbar
    return {
        "mass_kg": mass, "omega_r_rad_s": omega, "lambda": lam, "n_particles": n,
        "e_fermi_j": e_f, "t_fermi_k": e_f / KB_SI,
        "r_fermi_m": mp.sqrt(2 * e_f / (m * w * w)), "k_fermi_per_m": k_f,
        "inv_k_fermi_m": 1 / k_f, "sigma_r_m": mp.sqrt(hbar / (m * w)),
        "level_spacing_j": hbar * w,
    }


def _bose_ref(args):
    sc = _scales_ref(args)
    n, lam = sc["n_particles"], mp.mpf(sc["lambda"])
    hbar_w = sc["level_spacing_j"]
    sigma = sc["sigma_r_m"]
    u_eff = sc["e_fermi_j"] * sc["r_fermi_m"] ** 3 / n
    u_eff_trap = u_eff / (hbar_w * sigma ** 3)
    if "--u-bose" in args:
        u = mp.mpf(float(_option(args, "--u-bose")))
    elif "--a-scatt" in args:
        u = 4 * mp.pi * mp.mpf(float(_option(args, "--a-scatt")))
    else:
        u = u_eff_trap
    r_b = (15 * lam * u * n / (4 * mp.pi)) ** mp.mpf(0.2)
    return {
        "n_particles": n, "lambda": sc["lambda"], "u_bose_trap_units": u,
        "a_scatt_sigma": u / (4 * mp.pi), "r_bose_sigma": r_b,
        "r_bose_m": r_b * sigma, "mu_bose_hbar_omega": r_b ** 2 / 2,
        "r_fermi_sigma": sc["r_fermi_m"] / sigma, "r_fermi_m": sc["r_fermi_m"],
        "pauli_u_eff_j_m3": u_eff, "pauli_u_eff_trap_units": u_eff_trap,
        "pauli_a_eff_m": sc["inv_k_fermi_m"], "kf_a_eff": 1,
    }


def _check_kv(got, ref, kind):
    if set(got) != set(ref):
        return [(kind, math.inf)]
    return [(kind, rel_err(float(got[k]), mp.mpf(ref[k]))) for k in ref]


def _curve_rows(text, fmt):
    if fmt == "json":
        return [tuple(r) for r in json.loads(text)["samples"]]
    return _parse_curve_csv(text)


def check_cli_output(refs, op, text, salt, field_path_values=None):
    """Errors for the stdout of one `python -m fermigas` invocation."""
    cmd, fmt, args = op["command"], op["format"], op.get("args", [])
    if cmd in ("mu-curve", "heat-curve", "msd-curve"):
        rows = _curve_rows(text, fmt)
        grid = np.linspace(0.0, float(_option(args, "--t-max")), int(_option(args, "--steps")))
        if [r[0] for r in rows] != [float(t) for t in grid]:
            return [("grid", math.inf)]
        kind = {"mu-curve": "m", "heat-curve": "c", "msd-curve": "msd"}[cmd]
        return check_thermo_samples(refs, rows, kind, salt)
    if cmd == "profile":
        temps = [float(t) for t in _option(args, "--t").split(",")]
        if fmt == "json":
            blocks = [(b["t"], [tuple(r) for r in b["samples"]]) for b in json.loads(text)]
        else:
            blocks = []
            for chunk in text.split("\n\n"):
                if chunk.strip():
                    t = float(chunk.splitlines()[0].split("=", 1)[1])
                    blocks.append((t, _parse_curve_csv(chunk)))
        if [b[0] for b in blocks] != temps:
            return [("grid", math.inf)]
        errs = []
        for i, (t, rows) in enumerate(blocks):
            errs += check_density_samples(refs, t, rows, salt + i)
        return errs
    if cmd == "scales":
        return _check_kv(_kv(text, fmt), _scales_ref(args), "scales")
    if cmd == "bose-compare":
        return _check_kv(_kv(text, fmt), _bose_ref(args), "bose")
    if cmd == "perturb":
        if fmt == "json":
            doc = json.loads(text)
            de, dn = doc["delta_e_fermi"], [r[1] for r in doc["samples"]]
        else:
            lines = text.splitlines()
            de = float(lines[0].split("=", 1)[1])
            dn = [float(ln.split(",")[1]) for ln in lines[2:] if ln]
        return check_response(refs, field_path_values, de, dn, salt)
    if cmd == "oracle":
        got = _kv(text, fmt)
        n, lam, t = int(_option(args, "--n")), float(_option(args, "--lambda")), \
            float(_option(args, "--t"))
        errs = check_comparison(refs, n, lam, t, {
            "mu_exact": float(got["mu_exact_hbar_omega"]),
            "mu_continuum": float(got["mu_continuum_hbar_omega"]),
            "zero_point": float(got["zero_point_hbar_omega"]),
            "gap_raw": float(got["gap_raw_over_e_fermi"]),
            "gap_adjusted": float(got["gap_adjusted_over_e_fermi"])})
        if lam == 1.0:
            for k in (int(s) for s in _option(args, "--shells").split(",")):
                n_k = workloads.closed_shell_count(k)
                ref = central_density_ref(k) / semiclassical_n0_ref(n_k, 1)
                errs.append(("central_density",
                             rel_err(float(got[f"central_density_ratio_shell_{k}"]), ref)))
        return errs
    if cmd == "validity":
        n = int(_option(args, "--n"))
        if fmt == "json":
            doc = json.loads(text)
            rows = [(r["s"], r["margin"], r["cell_scale"]) for r in doc["rows"]]
            shell, inv_kf = doc["shell_thickness_sigma"], doc["inv_k_fermi_sigma"]
        else:
            lines = text.splitlines()
            shell = float(lines[0].split("=", 1)[1])
            inv_kf = float(lines[1].split("=", 1)[1])
            rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[3:] if ln]
        radii, margin, cell = zip(*rows)
        return check_validity(n, 1.0, radii, margin, cell, shell, inv_kf)
    raise ValueError(f"no check for subcommand {cmd!r}")
