"""Print one sha256 per (list, seed, operation kind) over the library
outputs of the benchmark's figures and oracle operation lists, and of
seeded lists of level-sum, pole-sum, T = 0 count and thermodynamic calls.

    python tools/output_digest.py SEED...

Run from the root of a source checkout: the package is imported from its
./src and the benchmark's list builder and runner from ./perfbench, which
is only read.  Each benchmark list is perfbench/workloads.generate(workload,
seed, 20); every operation is built by perfbench/worker.prepare and run in
order in this one process, and its output is put through worker.encode.
Those lists no longer reach the ladder enumeration, so the levels list
(levels_calls) adds 30 calls that do: build_spectrum at the oracle
workload's cutoffs, exact_mu below the pole sum's T* = 0.1 hbar*omega_r,
and exact_mu at classical reduced t in [1, 5].  Those lists keep to
t <= 0.2 at T > 0, so the poles list (poles_calls) adds 40 exact_mu calls
from T = 0.1 to 1e5 hbar*omega_r, five of them with the root below 2T,
where the reflection terms are largest.  None of them reaches the 2^53
cap of exact state counts, so the counts list (counts_calls) adds 50
T = 0 calls from N = 1 to past 2^53: counting_check and exact_mu at
lambda from COUNT_LAMBDAS, and at closed shells on both sides of the
cap.  The figures list keeps the thermodynamics to t in [1e-3, 5], so the
states list (states_calls) adds thermo_state, internal_energy,
heat_capacity and normalization at 0, at the t on both sides of eta = m/t
= 1, at 3e102 and at 60 t log-uniform in [1e-300, 3e102], each
thermo_state on a cold solve_mu cache, and thermo_curve over three sorted
grids of those t.  The digest hashes floats by float.hex, arrays by the
sha256 of their bytes and errors by their text, so two checkouts print
the same line exactly when every output of that kind is bit-identical.
A line reads

    LIST SEED KIND COUNT SHA256

where a serializer's kind names the kind of the operation whose curve it
writes (to_csv<profile_curves), so a change shows which outputs moved.
"""

import hashlib
import math
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

WORKLOADS = ("figures", "oracle")
SECONDS = 20
LEVEL_LAMBDAS = (0.5, 1.0, math.sqrt(8.0))  # the oracle workload's
POLE_LAMBDAS = (1.0 / 3.0, 0.1, 2.0 / 3.0, 1.5, math.sqrt(8.0), math.pi, 10.0)
COUNT_LAMBDAS = (1e-6, 1e-3, 1.0 / 3.0, 0.5, 1.0, math.sqrt(8.0), math.pi)


def canonical(value, out):
    """Append an exact, type-tagged text form of value to the list out."""
    if isinstance(value, np.ndarray):
        out.append(f"a{value.dtype.str}{value.shape}:"
                   + hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest())
    elif isinstance(value, float):
        out.append("f" + value.hex())
    elif isinstance(value, (int, str, type(None))):
        out.append(f"{type(value).__name__}:{value!r}")
    elif isinstance(value, (list, tuple)):
        out.append(f"[{len(value)}")
        for item in value:
            canonical(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append(f"{{{len(value)}")
        for key in sorted(value):
            out.append(repr(key))
            canonical(value[key], out)
        out.append("}")
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def replayed(worker, ops):
    """(kind, run) of each benchmark operation in list order, where run
    returns its encoded output and keeps it for the serializers after it."""
    worker.clear_mu_cache()
    results = [None] * len(ops)
    for i, op in enumerate(ops):
        kind = op["kind"]
        if "source" in op:  # a serializer: name the kind of the curve it writes
            kind += "<" + ops[op["source"]]["kind"]

        def run(i=i, op=op):
            results[i] = worker.prepare(op, results)()
            return worker.encode(op, results[i])
        yield kind, run


def levels_calls(seed):
    """(kind, run) of the 30 seeded level-sum calls: four build_spectrum per
    oracle workload lambda at exact_mu's spectrum cutoff for N in [1e3, 3e4]
    and t in [0.02, 0.2]; six exact_mu per lambda in {sqrt 8, pi} at t_abs in
    [0.05, 0.1); six at reduced t in [1, 5] for N in [1e3, 1e4]."""
    import fermigas as fg

    rng = random.Random(seed)

    def particles(top):
        return round(math.exp(rng.uniform(math.log(1e3), math.log(top))))

    def spectrum(lam, cutoff):
        sp = fg.build_spectrum(lam, cutoff)
        return sp.lam, sp.cutoff, sp.energies, sp.degeneracies

    calls = []
    for lam in LEVEL_LAMBDAS:
        for _ in range(4):
            e_fermi = (6.0 * lam * particles(3e4)) ** (1.0 / 3.0)
            cutoff = 2.0 ** (1.0 / 3.0) * e_fermi + 36.0 * rng.uniform(0.02, 0.2) * e_fermi + 2.0
            calls.append(("build_spectrum", lambda lam=lam, c=cutoff: spectrum(lam, c)))
    for lam in (math.sqrt(8.0), math.pi):
        for _ in range(6):
            args = (particles(3e4), lam, rng.uniform(0.05, 0.1))
            calls.append(("exact_mu_low_t", lambda args=args: fg.exact_mu(*args)))
    for _ in range(6):
        n, lam = particles(1e4), rng.choice(LEVEL_LAMBDAS)
        args = (n, lam, rng.uniform(1.0, 5.0) * (6.0 * lam * n) ** (1.0 / 3.0))
        calls.append(("exact_mu_classical", lambda args=args: fg.exact_mu(*args)))
    return calls


def poles_calls(seed):
    """(kind, run) of the 40 seeded pole-sum calls: 35 exact_mu at T
    log-spaced from 0.1 to 1e5 hbar*omega_r, each with a lambda from
    POLE_LAMBDAS and the N in [1, 1e9] nearest E_F = T/t, t log-uniform in
    [0.02, 1]; five at t in [0.3, 0.48] for N in [1e2, 1e5], whose root lies
    below 2T."""
    import fermigas as fg

    rng = random.Random(seed)
    calls = []
    for i in range(35):
        t_abs, lam = 10.0 ** (-1.0 + 6.0 * i / 34), rng.choice(POLE_LAMBDAS)
        e_fermi = t_abs / math.exp(rng.uniform(math.log(0.02), 0.0))
        args = (min(max(round(e_fermi ** 3 / (6.0 * lam)), 1), 10 ** 9), lam, t_abs)
        calls.append(("exact_mu_poles", lambda args=args: fg.exact_mu(*args)))
    for _ in range(5):
        n = round(math.exp(rng.uniform(math.log(1e2), math.log(1e5))))
        lam = rng.choice(POLE_LAMBDAS)
        args = (n, lam, rng.uniform(0.3, 0.48) * (6.0 * lam * n) ** (1.0 / 3.0))
        calls.append(("exact_mu_below_2t", lambda args=args: fg.exact_mu(*args)))
    return calls


def counts_calls(seed):
    """(kind, run) of the 50 seeded T = 0 count calls: per lambda in
    COUNT_LAMBDAS, three counting_check and three exact_mu(N, lambda, 0) at
    N log-uniform in [1, 2e16], each exact_mu N replaced, where at most 1e6
    axial rows lie below E_F - (1 + lambda/2), by the states up to there, so
    that most fill their last level; then both at four closed-shell N at
    lambda = 1, two on each side of the 2^53 cap, which each count meets
    alone: both answer up to shell 378,075 and refuse from 378,076 on."""
    import fermigas as fg

    rng = random.Random(seed)

    def particles():
        return round(math.exp(rng.uniform(0.0, math.log(2e16))))

    def filled(n, lam):
        cutoff = (6.0 * lam * n) ** (1.0 / 3.0) - (1.0 + 0.5 * lam)
        if not 0.0 <= cutoff < 1e6 * lam:
            return n
        top = np.floor(cutoff - lam * np.arange(int(cutoff / lam) + 1))
        return int(((top + 1.0) * (top + 2.0)).sum()) // 2

    calls = []
    for lam in COUNT_LAMBDAS:
        for _ in range(3):
            args = (particles(), lam)
            calls.append(("counting_check", lambda args=args: fg.counting_check(*args)))
        for _ in range(3):
            args = (filled(particles(), lam), lam, 0.0)
            calls.append(("exact_mu_zero_t", lambda args=args: fg.exact_mu(*args)))
    # shells 0..378,075 hold fewer than 2^53 states, 0..378,076 more
    for lo, hi in ((300_000, 378_076), (378_000, 378_076), (378_076, 378_150), (378_076, 400_000)):
        args = (fg.closed_shell_count(rng.randrange(lo, hi)), 1.0)
        calls.append(("counting_check_shells", lambda args=args: fg.counting_check(*args)))
        calls.append(("exact_mu_shells", lambda args=args: fg.exact_mu(*args, 0.0)))
    return calls


def states_calls(seed):
    """(kind, run) of the 259 seeded thermodynamic calls: per t of 64 (0, the
    adjacent t below and above which eta = m/t falls below 1, the largest
    accepted t, and 60 log-uniform in [1e-300, 3e102]), thermo_state,
    internal_energy, heat_capacity and normalization; then thermo_curve over
    three sorted grids of 20 of those t.  solve_mu's cache is cleared before
    each t's thermo_state, so it solves cold."""
    import fermigas as fg

    below, above = 0.4, 0.45  # eta = 1 lies near t = 0.4245
    while math.nextafter(below, 1.0) < above:
        mid = 0.5 * (below + above)
        below, above = (mid, above) if fg.solve_mu(mid) / mid >= 1.0 else (below, mid)
    rng = random.Random(seed)
    ts = [0.0, below, above, 3e102] + [10.0 ** rng.uniform(-300.0, math.log10(3e102))
                                       for _ in range(60)]

    def cold_state(t):
        fg.solve_mu.cache_clear()
        state = fg.thermo_state(t)
        return state.t, state.m, state.u, state.c

    def curve(grid):
        mu, c = fg.thermo_curve(grid)
        return mu.samples, c.samples

    calls = []
    for t in ts:
        calls.append(("thermo_state", lambda t=t: cold_state(t)))
        calls += [(name, lambda t=t, fn=getattr(fg, name): fn(t))
                  for name in ("internal_energy", "heat_capacity", "normalization")]
    for _ in range(3):
        grid = sorted(rng.sample(ts, 20))
        calls.append(("thermo_curve", lambda grid=grid: curve(grid)))
    return calls


def digests(runs) -> dict:
    """{kind: (count, sha256)} over the output, or the error, of each
    (kind, run) in order; every kind runs in one pass."""
    counts, parts = Counter(), defaultdict(list)
    for kind, run in runs:
        counts[kind] += 1
        try:
            value = run()
        except Exception as exc:
            parts[kind].append(f"error:{type(exc).__name__}: {exc}")
            continue
        canonical(value, parts[kind])
    return {kind: (counts[kind], hashlib.sha256("\n".join(parts[kind]).encode()).hexdigest())
            for kind in sorted(counts)}


def main(argv):
    if not argv:
        sys.exit(__doc__)
    try:
        seeds = [int(seed) for seed in argv]
    except ValueError:
        sys.exit(__doc__)
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import worker
    import workloads

    lists = [(workload, seed, replayed(worker, workloads.generate(workload, seed, SECONDS)))
             for workload in WORKLOADS for seed in seeds]
    lists += [("levels", seed, levels_calls(seed)) for seed in seeds]
    lists += [("poles", seed, poles_calls(seed)) for seed in seeds]
    lists += [("counts", seed, counts_calls(seed)) for seed in seeds]
    lists += [("states", seed, states_calls(seed)) for seed in seeds]
    for name, seed, runs in lists:
        for kind, (count, sha) in digests(runs).items():
            print(f"{name} {seed} {kind} {count} {sha}")


if __name__ == "__main__":
    main(sys.argv[1:])
