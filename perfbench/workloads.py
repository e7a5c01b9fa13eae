"""Seeded operation lists for the three benchmark workloads.

Every list is a pure function of (workload, seed, seconds): the same
arguments give the same operations, which carry only plain inputs (numbers,
lists, option strings).  The program under test never sees the seed.

--seconds sizes a list: a workload is built from whole rounds, and the
number of rounds is the run length divided by the cost of one round as
measured at the commit that introduced the benchmark (ROUND_COST_S).  The
list is fixed for a given seed and length, so a faster program finishes
the same list sooner and cpu_s shows it.

Costs depend steeply on where a temperature falls (series, quadrature or
Sommerfeld band of the FD kernel) and on the spectrum size in the oracle.
So draws are stratified over the whole list (each of n draws lands in its
own 1/n slice of the range, in shuffled order), and each figures
operation takes its temperatures on a log grid with one random offset.
The work per list, and per operation of a kind, then stays nearly the
same from seed to seed while every input is fresh.
"""

import math
import random

WORKLOADS = ("cli", "figures", "oracle")

# CPU seconds one round took when the benchmark was introduced (2-CPU
# sandbox, one thread per process).
ROUND_COST_S = {"cli": 13.0, "figures": 2.1, "oracle": 0.46}

T_RANGE = (1e-3, 5.0)            # figures: reduced temperatures, log-spaced
DEFECT_T_RANGE = (1e-8, 1e-5)    # heat_capacity cancellation band (trace probe)
# Below t = 0.03 the radial-moment quadrature now and then misses 1e-9
# (about 1 in 300 temperatures below 3e-3; 4.5e-8 at t = 1.7495e-3, 1.7e-9
# at t = 0.01074), so moment tables start at 0.03 and the traced run probes
# the band below, with these known cases.
MOMENT_T_RANGE = (0.03, 5.0)
MOMENT_DEFECT_T = (0.0017495119107473278, 0.0017444977508576378, 0.010740828437837722)
S_MAX = 1.5                      # density grids cover s in [0, S_MAX]
SQRT8 = math.sqrt(8.0)
ORACLE_LAMBDAS = (0.5, 1.0, SQRT8)
ORACLE_N_RANGE = (1e3, 3e4)      # continuum_comparison particle numbers
ORACLE_T_RANGE = (0.02, 0.2)
SHELL_RANGE = (10, 200)          # closed-shell indices
README_N = 100_000               # the particle number the README advertises
README_T = 0.2
PERTURB_AMPLITUDE = (0.01, 0.06)  # dV/E_F stays inside the 0.1 smallness guard
FIELD_GRID_SIZE = 2048            # documented grid of perturb.PerturbationField

CLI_SUBCOMMANDS = ("mu-curve", "heat-curve", "msd-curve", "profile", "scales",
                   "perturb", "bose-compare", "oracle", "validity")

# Operations per figures round, by kind, and the temperatures each takes.
# Every operation spans the whole T_RANGE on its own log grid, so its cost
# hardly depends on the draw, and the kinds form cost tiers (CPU times on
# a 2-CPU sandbox): serializers and response (< 3 ms, 18% of operations),
# density tables (8-30 ms, the next 12%), thermo_state tables (35-70 ms,
# the next 36%, whose middle holds the median), profiles and moment tables
# (40-110 ms, the next 18%), thermo_curve (100-400 ms, the top 15%, which
# holds the 90th percentile).  to_csv/to_json serialize a curve produced
# by an earlier thermo_curve or profile_curves operation.
FIGURES_ROUND = {
    "to_csv": 2, "to_json": 2, "density_response": 1, "mean_field_correction": 1,
    "thermo_state": 12, "density_grid": 2, "momentum_grid": 2,
    "profile_curves": 2, "mean_square_size": 2, "normalization": 2,
    "thermo_curve": 5,
}
# The costly band of fd (-1 < eta < 30, t ~ 0.033-0.85) spans 3.2 of the
# 8.5 e-folds of T_RANGE, so a grid of 8 holds 3 such points 96% of the time.
FIGURES_TEMPS = {"thermo_state": 8, "density_grid": 3, "momentum_grid": 3,
                 "profile_curves": 3, "mean_square_size": 3, "normalization": 3}
DENSITY_GRID_POINTS = 16
PROFILE_SAMPLES = (150, 250)
ORACLE_ROUND = {
    "continuum_comparison": 12, "exact_central_density": 4,
    "counting_check": 2, "exact_mu_zero_t": 2, "validity_report": 2,
}


def rounds_for(workload, seconds):
    return max(1, round(float(seconds) / ROUND_COST_S[workload]))


def strata(rng, n, lo, hi, log=False):
    """n draws, one in each 1/n slice of [lo, hi] (log-spaced if asked), shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (i + rng.random()) * (b - a) / n for i in range(n)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def int_strata(rng, n, lo, hi):
    """Stratified integers in [lo, hi] inclusive."""
    return [min(hi, int(math.floor(v))) for v in strata(rng, n, lo, hi + 1)]


def closed_shell_count(n):
    """Particles filling isotropic shells 0..n (the benchmark's own count)."""
    return sum((k + 1) * (k + 2) // 2 for k in range(n + 1))


def field_values(params, s_values):
    """Smooth positive dV(s)/E_F = a (1 + b sin(w s + phi)) at the given s."""
    a, b, w, phi = params
    return [a * (1.0 + b * math.sin(w * s + phi)) for s in s_values]


def field_grid():
    """The 2048-point grid on which perturb holds its field, as Python floats."""
    n = FIELD_GRID_SIZE
    return [i / (n - 1) for i in range(n)]


def _field_params(rng):
    return [rng.uniform(*PERTURB_AMPLITUDE), rng.uniform(0.2, 0.6),
            rng.uniform(1.0, 6.0), rng.uniform(0.0, 2.0 * math.pi)]


class _FreshT:
    """Hands out temperatures never used before in the list."""

    def __init__(self):
        self.used = set()

    def take(self, values):
        for t in values:
            if t in self.used:
                raise ValueError(f"temperature {t!r} drawn twice")
            self.used.add(t)
        return values


def log_grid(rng, k, lo, hi):
    """k log-spaced points over [lo, hi] shifted together by one random offset.

    A systematic grid puts a near-constant number of points in each band
    of the range, unlike k independent draws.
    """
    step = math.log(hi / lo) / k
    u = rng.random()
    return [lo * math.exp((j + u) * step) for j in range(k)]


def _figures(rng, rounds):
    fresh = _FreshT()
    count = {k: v * rounds for k, v in FIGURES_ROUND.items()}
    ops = []
    for n_pts in int_strata(rng, count["thermo_curve"], 20, 50):
        ops.append({"kind": "thermo_curve", "ts": fresh.take(log_grid(rng, n_pts, *T_RANGE))})
    for kind, k in FIGURES_TEMPS.items():
        t_range = MOMENT_T_RANGE if kind in ("mean_square_size", "normalization") else T_RANGE
        for _ in range(count[kind]):
            op = {"kind": kind, "ts": fresh.take(log_grid(rng, k, *t_range))}
            if kind in ("density_grid", "momentum_grid"):
                op["s"] = sorted(strata(rng, DENSITY_GRID_POINTS, 0.0, S_MAX))
            ops.append(op)
    for op, n_samples in zip((op for op in ops if op["kind"] == "profile_curves"),
                             int_strata(rng, count["profile_curves"], *PROFILE_SAMPLES)):
        op["n_samples"] = n_samples
    for i in range(count["mean_field_correction"]):
        sign = 1.0 if i % 2 == 0 else -1.0
        ops.append({"kind": "mean_field_correction",
                    "u_int": sign * rng.uniform(0.01, 0.1)})
    for _ in range(count["density_response"]):
        ops.append({"kind": "density_response", "field": _field_params(rng)})
    rng.shuffle(ops)

    # Each serializer follows a distinct curve-producing operation.
    sources = [i for i, op in enumerate(ops)
               if op["kind"] in ("thermo_curve", "profile_curves")]
    n_ser = count["to_csv"] + count["to_json"]
    kinds = ["to_csv"] * count["to_csv"] + ["to_json"] * count["to_json"]
    rng.shuffle(kinds)
    after = {}
    for src, kind in zip(sorted(rng.sample(sources, n_ser)), kinds):
        after[src] = kind
    out = []
    for i, op in enumerate(ops):
        out.append(op)
        if i in after:
            n_curves = 2 if op["kind"] == "thermo_curve" else len(op["ts"])
            out.append({"kind": after[i], "source": len(out) - 1,
                        "curve": rng.randrange(n_curves)})
    return out


def _oracle(rng, rounds):
    count = {k: v * rounds for k, v in ORACLE_ROUND.items()}
    n_cc = count["continuum_comparison"]
    lams = [ORACLE_LAMBDAS[i % 3] for i in range(n_cc)]
    rng.shuffle(lams)
    fresh = _FreshT()
    ops = [{"kind": "continuum_comparison", "n": int(round(n)), "lam": lam, "t": t}
           for n, lam, t in zip(strata(rng, n_cc, *ORACLE_N_RANGE, log=True), lams,
                                fresh.take(strata(rng, n_cc, *ORACLE_T_RANGE)))]
    ops.extend({"kind": "exact_central_density", "shell": k}
               for k in int_strata(rng, count["exact_central_density"], *SHELL_RANGE))
    ops.extend({"kind": "counting_check", "shell": k}
               for k in int_strata(rng, count["counting_check"], *SHELL_RANGE))
    ops.extend({"kind": "exact_mu_zero_t", "shell": k}
               for k in int_strata(rng, count["exact_mu_zero_t"], *SHELL_RANGE))
    for n in strata(rng, count["validity_report"], 1e3, 1e7, log=True):
        lam = rng.choice(ORACLE_LAMBDAS)
        radii = sorted(strata(rng, 25, 0.0, 1.2))
        ops.append({"kind": "validity_report", "n": int(round(n)), "lam": lam,
                    "radii": radii})
    rng.shuffle(ops)
    return ops


def _trap_args(rng, use_preset):
    if use_preset:
        return ["--preset", "li6-top"]
    return ["--mass", repr(rng.uniform(1e-27, 1.5e-25)),
            "--omega-r", repr(math.exp(rng.uniform(math.log(100.0), math.log(1e4)))),
            "--lambda", repr(math.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
            "--n", str(int(math.exp(rng.uniform(math.log(1e3), math.log(1e7)))))]


def _cli(rng, rounds):
    """One round runs each subcommand once; formats alternate between rounds."""
    # --steps and --t-max rise together: the grid's share in the costly
    # quadrature band (t < ~0.9) goes as steps / t-max, which then stays
    # within 100-120 points, so each figure process costs about the same.
    fig_args = {}
    for name in ("mu-curve", "heat-curve", "msd-curve"):
        u = strata(rng, rounds, 0.0, 1.0)
        fig_args[name] = ([1.0 + 1.5 * x for x in u], [100 + int(200 * x) for x in u])
    first_json = {name: rng.random() < 0.5 for name in CLI_SUBCOMMANDS}
    first_momentum = rng.random() < 0.5
    ops = []
    for r in range(rounds):
        block = []
        for name in CLI_SUBCOMMANDS:
            fmt = "json" if (r % 2 == 0) == first_json[name] else "csv"
            op = {"kind": "cli", "command": name, "format": fmt}
            if name in fig_args:
                t_max, steps = fig_args[name][0][r], fig_args[name][1][r]
                op["args"] = ["--t-max", repr(t_max), "--steps", str(steps)]
            elif name == "profile":
                ts = strata(rng, rng.randint(1, 5), *T_RANGE, log=True)
                op["args"] = ["--t", ",".join(repr(t) for t in ts)]
                if (r % 2 == 0) == first_momentum:
                    op["args"].append("--momentum")
            elif name == "scales":
                op["args"] = _trap_args(rng, r % 2 == 0)
            elif name == "bose-compare":
                op["args"] = _trap_args(rng, r % 2 == 1)
                choice = rng.randrange(3)
                if choice == 1:
                    op["args"] += ["--u-bose", repr(rng.uniform(0.01, 1.0))]
                elif choice == 2:
                    op["args"] += ["--a-scatt", repr(rng.uniform(1e-3, 0.1))]
            elif name == "perturb":
                op["field"] = _field_params(rng)
            elif name == "oracle":
                lam = rng.choice(ORACLE_LAMBDAS)
                n = int(math.exp(rng.uniform(*map(math.log, ORACLE_N_RANGE))))
                shells = sorted(rng.sample(range(SHELL_RANGE[0], SHELL_RANGE[1] + 1),
                                           rng.randint(1, 4)))
                op["args"] = ["--n", str(n), "--lambda", repr(lam),
                              "--t", repr(rng.uniform(*ORACLE_T_RANGE)),
                              "--shells", ",".join(str(k) for k in shells)]
            elif name == "validity":
                n = int(math.exp(rng.uniform(math.log(1e3), math.log(1e7))))
                op["args"] = ["--n", str(n)]
            block.append(op)
        rng.shuffle(block)
        ops.extend(block)
    return ops


def generate(workload, seed, seconds):
    """The operation list of one measured run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    build = {"cli": _cli, "figures": _figures, "oracle": _oracle}[workload]
    return build(rng, rounds_for(workload, seconds))


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cli_library_ops(cli_ops):
    """The library calls behind each command-line operation, for the replay.

    scales and bose-compare are closed-form arithmetic and have none.
    """
    ops = []
    for op in cli_ops:
        cmd, args = op["command"], op.get("args", [])
        opt = dict(zip(args[::2], args[1::2]))
        if cmd in ("mu-curve", "heat-curve", "msd-curve"):
            grid = _linspace(0.0, float(opt["--t-max"]), int(opt["--steps"]))
            if cmd == "msd-curve":
                ops.append({"kind": "mean_square_size", "ts": grid})
            else:
                ops.append({"kind": "thermo_curve", "ts": grid})
                ops.append({"kind": "to_" + op["format"], "source": len(ops) - 1,
                            "curve": 0 if cmd == "mu-curve" else 1})
        elif cmd == "profile":
            s = _linspace(0.0, S_MAX, 300)  # the subcommand's default grid
            ops.append({"kind": "density_grid", "s": s,
                        "ts": [float(t) for t in opt["--t"].split(",")]})
        elif cmd == "perturb":
            ops.append({"kind": "density_response", "field": op["field"]})
        elif cmd == "oracle":
            n, lam = int(opt["--n"]), float(opt["--lambda"])
            ops.append({"kind": "continuum_comparison", "n": n, "lam": lam,
                        "t": float(opt["--t"])})
            if lam == 1.0:
                ops.extend({"kind": "exact_central_density", "shell": int(k)}
                           for k in opt["--shells"].split(","))
        elif cmd == "validity":
            radii = [round(x, 3) for x in _linspace(0.0, 1.2, 25)]
            ops.append({"kind": "validity_report", "n": int(opt["--n"]), "lam": 1.0,
                        "radii": radii})
    return ops


def probes(seed):
    """Inputs the traced run sends to known defects, outside every workload.

    heat_capacity loses accuracy to cancellation for t in [1e-8, 1e-5];
    the moments miss 1e-9 now and then for t < 0.03; exact_mu refuses the
    README's N = 1e5 at t = 0.2 (spectrum cap).
    """
    rng = random.Random(f"probes:{seed}")
    return {
        "heat_capacity_t": strata(rng, 6, *DEFECT_T_RANGE, log=True),
        "moment_t": list(MOMENT_DEFECT_T) + strata(rng, 4, T_RANGE[0], MOMENT_T_RANGE[0],
                                                   log=True),
        "exact_mu": [{"n": README_N, "lam": lam, "t": README_T}
                     for lam in (1.0, SQRT8)],
    }
