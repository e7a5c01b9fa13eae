"""fermigas benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cli,figures,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  Load comes from one client, one operation at a time (closed loop);
every child runs with OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = 1.

Workloads:
  cli      fresh `python -m fermigas` processes covering all nine
           subcommands, half CSV, half JSON: what a user pays per table.
  figures  one import, then public library calls behind the paper's
           figures (m, u, c curves, densities, moments, response,
           serialization) at temperatures never used before in the run.
  oracle   one import, then exact discrete-spectrum calls (level sums,
           eigenfunction sums, validity margins).

--trace 0 prints the end-to-end metrics.  Times are CPU seconds (user +
system) of the program's own processes, because wall-clock time on a
shared machine also counts other tenants' load (on a 2-CPU sandbox, 16
identical imports took 0.85-1.39 s of wall time and, in 15 of them,
0.83-0.90 s of CPU time).  CPU time itself drifts with that load, so on
figures and oracle each operation is scaled to a reference machine speed
by a probe run between operations in the worker (speed.py); command-line
children and imports stay unscaled.  Unscaled CPU and wall times are
printed alongside (# unscaled) and reported by the traced run.
  setup_s       median over several fresh processes of the CPU time until
                `import fermigas` returns, unscaled (probes between the
                imports tracked them worse than none);
  cpu_s         CPU time of the seeded operation list (sum over its
                operations), set-up and reference computation excluded;
  op_p50_ms, op_p90_ms   per-operation CPU-time percentiles;
  peak_rss_mb   peak resident memory of the worker, or of the largest
                command-line child;
  success_rate  operations that returned and passed their check, over
                operations attempted (1 - error rate).
--trace 1 runs a separate traced run and prints the per-layer metrics
(see worker.py for the bottom-up replay).  It also sends inputs to known
defects kept out of the workloads (workloads.probes) and counts them in
the layers' `failed`, listing each input with its error.  Every output
is checked against references independent of the code (reference.py);
the last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
import speed
import workloads

perf = time.perf_counter

SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0      # every run ends well inside 180 s
CLI_TIMEOUT_S = 60.0

IMPORT_SNIPPET = (
    "import fermigas\n"
    "import json, sys, time\n"
    "print(json.dumps({'cpu': time.process_time(), 'file': fermigas.__file__,"
    " 'numpy': getattr(sys.modules.get('numpy'), '__version__', None),"
    " 'scipy': getattr(sys.modules.get('scipy'), '__version__', None)}), flush=True)\n"
)

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

LAYERS = (
    "fdint.fd.series", "fdint.fd.quadrature", "fdint.fd.sommerfeld",
    "thermo.solve_mu", "thermo.internal_energy", "thermo.heat_capacity",
    "thermo.thermo_state", "thermo.thermo_curve",
    "profiles.density", "profiles.momentum_density", "profiles.mean_square_size",
    "profiles.normalization", "profiles.profile_curves",
    "perturb.density_response", "perturb.mean_field_correction",
    "curves.to_csv", "curves.to_json",
    "oracle.build_spectrum", "oracle.exact_mu", "oracle.continuum_comparison",
    "oracle.exact_central_density", "oracle.counting_check", "oracle.validity_report",
)
LAYER_STATS = (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"), ("failed", "count"))


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child that broke)."""


class Run:
    """Paths, child environment and the deadline of one benchmark run."""

    def __init__(self, root):
        self.root = root
        self.deadline = perf() + RUN_BUDGET_S
        self.out_dir = root / ".perfbench_out"
        self.tmp = self.out_dir / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "FERMIGAS_CONFIG"}
        env.update(THREAD_ENV)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self):
        left = self.deadline - perf()
        if left <= 1.0:
            raise BenchError("run budget exhausted")
        return left

    def spawn(self, argv, timeout, stdout_path):
        """Run a child to exit; returns (CPU s, wall s, exit code, peak RSS MB)."""
        timeout = min(timeout, self.remaining())
        with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
            t0 = perf()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                     cwd=self.root, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            elapsed = perf() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        return (usage.ru_utime + usage.ru_stime, elapsed, child.returncode,
                usage.ru_maxrss / 1024.0)

    def time_import(self):
        """(CPU s, wall s) from process start until `import fermigas` returns."""
        t0 = perf()
        child = subprocess.Popen([sys.executable, "-c", IMPORT_SNIPPET],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=self.env, cwd=self.root, stdin=subprocess.DEVNULL)
        try:
            line = child.stdout.readline()
            elapsed = perf() - t0
            _, err = child.communicate(timeout=min(60.0, self.remaining()))
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0 or not line:
            raise BenchError("`import fermigas` failed: " + err.decode(errors="replace")[-400:])
        info = json.loads(line)
        src = (self.root / "src").resolve()
        if src not in Path(info["file"]).resolve().parents:
            raise BenchError(f"fermigas imported from {info['file']}, not from {src}")
        return info.pop("cpu"), elapsed, info


def machine_note(root, versions):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "mpmath": reference.mp.__version__,
        "threads": THREAD_ENV,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((root / "src" / "fermigas").glob("*.py")))).hexdigest(),
    }


def git_commit(root):
    """HEAD of the checkout if it carries a .git directory, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- the workloads -----------------------------------------------------------

def run_worker(run, job, name):
    job_path, out_path = run.tmp / f"{name}-job.json", run.tmp / f"{name}-out.json"
    job_path.write_text(json.dumps(job))
    worker = str(Path(__file__).with_name("worker.py"))
    _, _, code, _ = run.spawn([sys.executable, worker, str(job_path), str(out_path)],
                              run.remaining(), run.tmp / f"{name}.log")
    if code != 0:
        log = (run.tmp / f"{name}.log.err").read_text(errors="replace")
        raise BenchError(f"worker exited with {code}: {log[-800:]}")
    return json.loads(out_path.read_text())


def write_field_csv(run, op, i):
    path = run.tmp / f"dv-{i}.csv"
    grid = workloads.field_grid()
    lines = ["s,dV"] + [f"{s:.17g},{v:.17g}"
                        for s, v in zip(grid, workloads.field_values(op["field"], grid))]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli_ops(run, ops, tag):
    """Each operation is a fresh process; same result layout as the worker's.

    Child CPU times stay unscaled: speed probes run in this process between
    children tracked them worse than none (their spread over ten runs rose
    from 23% to 29%), unlike probes inside the worker.
    """
    argvs = []
    for i, op in enumerate(ops):
        argv = [sys.executable, "-m", "fermigas", op["command"], "--format", op["format"]]
        if op["command"] == "perturb":
            argv += ["--delta-v", str(write_field_csv(run, op, i))]
        argvs.append(argv + op.get("args", []))
    doc = {"cpu_raw": [], "wall": [], "outputs": [], "errors": [], "speed_probes": []}
    codes, rss = [], []
    for i, argv in enumerate(argvs):
        cpu, wall, code, peak = run.spawn(argv, CLI_TIMEOUT_S, run.tmp / f"{tag}-{i}.out")
        doc["cpu_raw"].append(cpu)
        doc["wall"].append(wall)
        codes.append(code)
        rss.append(peak)
    doc["cpu"] = doc["cpu_raw"]
    doc["cpu_s"] = math.fsum(doc["cpu"])
    doc["cpu_raw_s"] = math.fsum(doc["cpu_raw"])
    doc["wall_s"] = math.fsum(doc["wall"])
    doc["peak_rss_mb"] = max(rss)
    for i, code in enumerate(codes):
        doc["outputs"].append((run.tmp / f"{tag}-{i}.out").read_text())
        doc["errors"].append(None if code == 0 else f"exit {code}: "
                             + (run.tmp / f"{tag}-{i}.out.err").read_text()[-300:])
    return doc


def check_all(refs, ops, outputs, errors, cli):
    """Per-operation verdicts and the worst error per output kind."""
    worst, failures = {}, []
    for i, (op, out, err) in enumerate(zip(ops, outputs, errors)):
        if err is None:
            try:
                if cli:
                    values = (workloads.field_values(op["field"], workloads.field_grid())
                              if op["command"] == "perturb" else None)
                    errs = reference.check_cli_output(refs, op, out, i, values)
                else:
                    errs = reference.check_library_op(refs, op, out, outputs, i)
            except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
                errs, err = [], f"unreadable output: {type(exc).__name__}: {exc}"
            for kind, e in errs:
                worst[kind] = max(worst.get(kind, 0.0), e)
            bad = [(k, e) for k, e in errs if not e <= reference.TOLERANCE]
            if bad and err is None:
                err = "check failed: " + ", ".join(f"{k} error {e:.3g}" for k, e in bad[:4])
        if err is not None:
            failures.append({"op": i, "kind": op.get("command", op["kind"]), "error": err})
    return worst, failures


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(setup, doc, attempted, failed):
    return {
        "setup_s": (setup, "s"),
        "cpu_s": (doc["cpu_s"], "s"),
        "op_p50_ms": (percentile(doc["cpu"], 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(doc["cpu"], 90) * 1e3, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(spans, states, extra_failed):
    by_name = {}
    for name, start, end, _parent, _op, failed, probe in spans:
        by_name.setdefault(name, []).append((end - start, failed, probe))
    metrics = {}
    for layer in LAYERS:
        rows = by_name.get(layer, [])
        timed = [d for d, failed, probe in rows if not failed and not probe]
        values = {
            "calls": len(rows),
            "busy_s": math.fsum(timed),
            "p50_us": statistics.median(timed) * 1e6 if timed else 0.0,
            "failed": sum(1 for _, failed, _ in rows if failed) + extra_failed.get(layer, 0),
        }
        for stat, unit in LAYER_STATS:
            metrics[f"{layer}.{stat}"] = (values[stat], unit)
    metrics["oracle.build_spectrum.states"] = (states, "count")
    return metrics


def cli_layer_metrics(import_cpu, ops, latencies):
    metrics = {"cli.import.p50_s": (statistics.median(import_cpu), "s")}
    for name in workloads.CLI_SUBCOMMANDS:
        lat = [dt for op, dt in zip(ops, latencies) if op["command"] == name]
        metrics[f"cli.{name}.p50_s"] = (statistics.median(lat), "s")
    return metrics


def check_probes(refs, probes, results):
    """Known-defect probes: errors per input, failures per layer, refusals."""
    failed = {"thermo.heat_capacity": 0, "profiles.mean_square_size": 0,
              "profiles.normalization": 0}

    def row(layer, t, value, ref):
        err = reference.rel_err(value, ref)
        failed[layer] += not err <= reference.TOLERANCE
        return {"layer": layer, "t": t, "value": value, "error": err}

    rows = [row("thermo.heat_capacity", t, c, refs.thermo(t)[2])
            for t, c in zip(probes["heat_capacity_t"], results["heat_capacity"])]
    for t, (msd, norm) in zip(probes["moment_t"], results["moments"]):
        rows.append(row("profiles.mean_square_size", t, msd, refs.thermo(t)[1] / 2))
        rows.append(row("profiles.normalization", t, norm, 1))
    refusals = [{"n": p["n"], "lambda": p["lam"], "t": p["t"], "refusal": msg}
                for p, msg in zip(probes["exact_mu"], results["exact_mu_refusals"])]
    return rows, refusals, failed


def emit(line_key, payload):
    print(f"# {line_key}: {json.dumps(payload, default=str)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "fermigas" / "__init__.py").is_file():
        print("perfbench: run from a fermigas checkout (no src/fermigas here)", file=sys.stderr)
        return 2
    run = Run(root)
    try:
        return measure(run, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)


def measure(run, args):
    w, seed, trace = args.workload, args.seed, args.trace == 1
    run.time_import()  # compiles bytecode into the checkout; not timed
    setups = [run.time_import() for _ in range(SETUP_REPEATS)]
    import_cpu = [cpu for cpu, _, _ in setups]
    emit("machine", machine_note(run.root, setups[0][2]))

    # A traced run replays every operation once more layer by layer, so it
    # takes a list of half the length to stay inside the run budget.
    ops = workloads.generate(w, seed, args.seconds / 2 if trace else args.seconds)
    probes = workloads.probes(seed)
    if w == "cli":
        doc = run_cli_ops(run, ops, "cli")
        if trace:
            doc["traced"] = run_cli_ops(run, ops, "cli-traced")
            extra = [workloads.cli_library_ops(ops)] + [
                workloads.generate(o, seed, workloads.ROUND_COST_S[o])
                for o in ("figures", "oracle")]
            replayed = run_worker(run, {"mode": "trace", "ops": [], "replay_extra": extra,
                                        "probes": probes}, "trace")
            doc.update({k: replayed[k] for k in ("spans", "states", "probes")})
            cli_metrics = cli_layer_metrics(import_cpu, ops, doc["traced"]["cpu"])
    else:
        other = "oracle" if w == "figures" else "figures"
        extra = [workloads.generate(other, seed, workloads.ROUND_COST_S[other])] if trace else []
        doc = run_worker(run, {"mode": "trace" if trace else "measure", "ops": ops,
                               "probes": probes, "replay_extra": extra}, w)
        if trace:
            cli_ops = workloads.generate("cli", seed, workloads.ROUND_COST_S["cli"])
            cli_metrics = cli_layer_metrics(import_cpu, cli_ops,
                                            run_cli_ops(run, cli_ops, "cli-probe")["cpu"])

    refs = reference.References()
    worst, failures = check_all(refs, ops, doc["outputs"], doc["errors"], cli=(w == "cli"))
    attempted, failed = len(ops), len(failures)
    emit("worst_error_by_kind", {"tolerance": reference.TOLERANCE, "worst": worst})
    if failures:
        emit("failed_operations", failures)
    unscaled = {"setup_cpu_s": statistics.median(cpu for cpu, _, _ in setups),
                "setup_wall_s": statistics.median(wall for _, wall, _ in setups),
                "list_cpu_s": doc["cpu_raw_s"], "list_wall_s": doc["wall_s"]}
    if doc["speed_probes"]:
        unscaled["probe_median_s"] = statistics.median(p for _, p in doc["speed_probes"])
        unscaled["probe_reference_s"] = speed.REFERENCE_S
    emit("unscaled", unscaled)

    detail = {"workload": w, "seed": seed, "trace": trace, "ops": ops, "cpu": doc["cpu"],
              "cpu_raw": doc["cpu_raw"], "wall": doc["wall"],
              "speed_probes": doc["speed_probes"],
              "failures": failures, "worst": worst}
    if trace:
        rows, refusals, extra_failed = check_probes(refs, probes, doc["probes"])
        emit("known_defect.accuracy", rows)
        emit("known_defect.exact_mu_refusals", refusals)
        metrics = layer_metrics(doc["spans"], doc["states"], extra_failed)
        metrics.update(cli_metrics)
        traced = doc["traced"]
        metrics["bench.cpu.untraced_s"] = (doc["cpu_s"], "s")  # scaled
        metrics["bench.cpu.traced_s"] = (traced["cpu_s"], "s")
        metrics["bench.wall.untraced_s"] = (doc["wall_s"], "s")
        metrics["bench.wall.traced_s"] = (traced["wall_s"], "s")
        metrics["bench.trace.overhead_pct"] = (
            100.0 * (traced["cpu_s"] - doc["cpu_s"]) / doc["cpu_s"], "%")
        detail["spans"] = doc["spans"]
        detail["span_fields"] = ["name", "start", "end", "parent", "op", "failed", "probe"]
    else:
        metrics = end_to_end(statistics.median(import_cpu), doc, attempted, failed)
    out_file = run.out_dir / f"{w}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(detail, default=str))
    emit("detail", str(out_file.relative_to(run.root)))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
