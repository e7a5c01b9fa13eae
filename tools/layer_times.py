"""Print the CPU time per call of the thermodynamic layers and of the
oracle's continuum comparison, each timed on its own, with the constraint
evaluations of a cold solve and the memory of a full solve_mu cache.

    python tools/layer_times.py [--seed S] [--points N] [--passes P]

Run from the root of a source checkout: the package is imported from its
./src, and the benchmark's speed probe and oracle operation list from
./perfbench, which is only read.  Each line is the least, over P passes,
of one pass's CPU time over a seeded set of inputs, divided by its calls
(by its temperatures for thermo_curve):

  solve_mu (cold)          N temperatures log-uniform in [1e-3, 5] (the
                           figures workload's range), solve_mu's cache
                           cleared before each call;
  internal_energy (warm),  the same temperatures with every m cached;
  heat_capacity (warm),
  normalization (warm)
  thermo_state (cold),     per temperature, the cache cleared before each
  thermo_curve (cold)      pass: thermo_state at each t, thermo_curve over
                           the sorted t;
  continuum_comparison     the continuum_comparison operations of the
  (cold)                   oracle workload's list for the seed, the cache
                           cleared before each pass, as the workload's
                           fresh t find it.

Three more lines count rather than time: the mean constraint evaluations
per cold solve_mu over the same temperatures, counted by a spy on the
constraint that solve_mu hands monotone_root; the mean pole-sum
evaluations per classical exact_mu, counted by a spy on the residual that
oracle._pole_sum returns, over as many seeded inputs as temperatures: the
particle number log-uniform in the oracle workload's range, lambda in
{1/3, 1/2, 1, sqrt 8} and t = T/E_F uniform in [0.3, 5], where the
continuum start often lies below T/2; and the bytes tracemalloc sees a full
solve_mu cache hold: 4096 cold solves at distinct t in [1e-3, 5], per
entry and in all.

No tracer runs, so the thermodynamic layers are timed without the replay
that fills solve_mu's cache before the benchmark's traced run times them.
The speed probe (perfbench/speed.py) runs between the passes; its median
is printed beside the numbers, against the reference time it scales the
benchmark's operations to, since CPU time drifts with the machine's load.
As in the benchmark, numpy's BLAS runs one thread: the probe's np.dot
would otherwise leave worker threads spinning, whose CPU time the process
clock counts (the cold solve read 7-15 us instead of 4.2-4.5 in about a
third of processes on a 2-CPU machine).
"""

import argparse
import gc
import math
import os
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def least_per_call(passes, calls, run, probes, speed, before=None):
    """Least CPU seconds per call of run() over passes, each timed with the
    garbage collector off, as timeit times; a probe runs before each."""
    best = math.inf
    for _ in range(passes):
        probes.append(speed.probe())
        if before is not None:
            before()
        gc.disable()
        try:
            c0 = time.process_time()
            run()
            best = min(best, time.process_time() - c0)
        finally:
            gc.enable()
    return best / calls


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=9101)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--passes", type=int, default=7)
    args = parser.parse_args(argv)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # read when numpy is first imported, below
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import fermigas as fg
    from fermigas import oracle, thermo
    import speed
    import workloads

    rng = random.Random(args.seed)
    ts = [math.exp(rng.uniform(math.log(1e-3), math.log(5.0))) for _ in range(args.points)]
    grid = sorted(ts)
    comparisons = [(op["n"], op["lam"], op["t"])
                   for op in workloads.generate("oracle", args.seed, 20)
                   if op["kind"] == "continuum_comparison"]
    clear = fg.solve_mu.cache_clear
    probes = []

    def cold_solves():
        for t in ts:
            clear()
            fg.solve_mu(t)

    def warm(fn):
        def run():
            for t in ts:
                fn(t)
        return run

    def states():
        for t in ts:
            fg.thermo_state(t)

    def comparison():
        for args_ in comparisons:
            fg.continuum_comparison(*args_)

    def warm_up():
        for t in ts:
            fg.solve_mu(t)

    def evaluations_per_solve():
        count = [0]
        root = thermo.monotone_root

        def counted_root(g, *bracket):
            def counted(x):
                count[0] += 1
                return g(x)
            return root(counted, *bracket)

        thermo.monotone_root = counted_root
        try:
            cold_solves()
        finally:
            thermo.monotone_root = root
        return count[0] / len(ts)

    def pole_evaluations_per_classical_mu():
        count, pole_sum = [0], oracle._pole_sum

        def counted_pole_sum(*args):
            found = pole_sum(*args)
            if found is None:
                return None

            def counted(mu):
                count[0] += 1
                return found[0](mu)
            return (counted, *found[1:])

        draw = random.Random(args.seed)
        lo_n, hi_n = map(math.log, workloads.ORACLE_N_RANGE)
        oracle._pole_sum = counted_pole_sum
        try:
            for _ in ts:
                n = round(math.exp(draw.uniform(lo_n, hi_n)))
                lam = draw.choice([1.0 / 3.0, 0.5, 1.0, math.sqrt(8.0)])
                fg.exact_mu(n, lam, draw.uniform(0.3, 5.0) * (6.0 * lam * n) ** (1 / 3))
        finally:
            oracle._pole_sum = pole_sum
        return count[0] / len(ts)

    def cache_bytes():
        size = fg.solve_mu.cache_info().maxsize
        fill = [1e-3 * 5e3 ** ((i + 0.5) / size) for i in range(size)]
        clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in fill:
                fg.solve_mu(t)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            clear()
        return size, held

    timed = [
        ("solve_mu (cold)", least_per_call(args.passes, len(ts), cold_solves, probes, speed)),
        ("internal_energy (warm)", least_per_call(args.passes, len(ts), warm(fg.internal_energy),
                                                  probes, speed, warm_up)),
        ("heat_capacity (warm)", least_per_call(args.passes, len(ts), warm(fg.heat_capacity),
                                                probes, speed, warm_up)),
        ("normalization (warm)", least_per_call(args.passes, len(ts), warm(fg.normalization),
                                                probes, speed, warm_up)),
        ("thermo_state (cold)", least_per_call(args.passes, len(ts), states, probes, speed, clear)),
        ("thermo_curve (cold)", least_per_call(args.passes, len(grid), lambda: fg.thermo_curve(grid),
                                               probes, speed, clear)),
        (f"continuum_comparison x{len(comparisons)} (cold)",
         least_per_call(args.passes, max(len(comparisons), 1), comparison, probes, speed, clear)),
    ]
    probes.append(speed.probe())
    evaluations = evaluations_per_solve()
    pole_evaluations = pole_evaluations_per_classical_mu()
    entries, held = cache_bytes()
    print(f"speed probe: {1e3 * statistics.median(probes):.2f} ms, median of {len(probes)} "
          f"(reference {1e3 * speed.REFERENCE_S:.2f} ms)")
    print(f"seed {args.seed}, {len(ts)} t log-uniform in [1e-3, 5], least of {args.passes} passes")
    for name, seconds in timed:
        print(f"{name:34s} {1e6 * seconds:8.2f} us")
    print(f"{'evaluations per cold solve':34s} {evaluations:8.2f}")
    print(f"{'pole-sum evaluations per exact_mu':34s} {pole_evaluations:8.2f} (t in [0.3, 5])")
    print(f"{f'solve_mu cache, {entries} entries':34s} {held / entries:8.1f} B per entry "
          f"({held / 2 ** 20:.2f} MiB)")


if __name__ == "__main__":
    main(sys.argv[1:])
