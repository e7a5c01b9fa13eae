"""Runs an operation list in one fresh process: `python worker.py JOB OUT`.

JOB is a JSON file {"mode": "measure" | "trace", "ops": [...],
"replay_extra": [[...], ...], "probes": {...}}.  The worker imports
fermigas once, builds every input before the clock starts, then runs the
operations one after another (one client, closed loop).  OUT receives per-operation latencies in CPU seconds
at the reference speed (speed.py), unscaled CPU seconds and wall seconds,
the outputs for checking, the list totals and the peak resident memory
reached by the end of the list.

In trace mode the list runs twice, first bare and then with a span around
each operation, so the difference is the tracing overhead.  Then the list,
and each extra list named in the job, is re-run bottom-up, one layer at a
time, each public call inside its own span:

1. fd at the eta values the public outputs imply (eta = m/t for u and c,
   (m - s^2)/t for density samples), banded by regime;
2. solve_mu on first touch, after clearing its cache, so it runs cold;
3. u, c, the densities, the moments, the curve builders and serializers,
   which now find m(t) cached and so hold only their own work.

Oracle operations replay build_spectrum at the cutoff exact_mu uses, then
exact_mu, then continuum_comparison.  Spans stay in memory and are written
to OUT when the run ends.
"""

import json
import math
import resource
import sys
import time

import numpy as np

import fermigas as fg
from fermigas import fdint, thermo

import speed
import workloads

perf = time.perf_counter
cpu_clock = time.process_time
PROBE_EVERY_S = 0.1


def closed_shell(op):
    return workloads.closed_shell_count(op["shell"])


def prepare(op, results):
    """Zero-argument callable for one operation; inputs are built here, untimed."""
    kind = op["kind"]
    if kind == "thermo_curve":
        ts = op["ts"]
        return lambda: fg.thermo_curve(ts)
    if kind in ("thermo_state", "mean_square_size", "normalization"):
        fn, ts = getattr(fg, kind), op["ts"]
        return lambda: [fn(t) for t in ts]
    if kind == "profile_curves":
        ts, n = op["ts"], op["n_samples"]
        return lambda: fg.profile_curves(ts, n_samples=n)
    if kind in ("density_grid", "momentum_grid"):
        fn = fg.density if kind == "density_grid" else fg.momentum_density
        ts, s = op["ts"], op["s"]
        return lambda: [[fn(x, t) for x in s] for t in ts]
    if kind == "mean_field_correction":
        u = op["u_int"]
        return lambda: fg.mean_field_correction(u)
    if kind == "density_response":
        values = np.array(workloads.field_values(op["field"], workloads.field_grid()))
        return lambda: fg.density_response(fg.PerturbationField(values))
    if kind in ("to_csv", "to_json"):
        src, idx, name = op["source"], op["curve"], kind
        return lambda: getattr(results[src][idx], name)()
    if kind == "continuum_comparison":
        n, lam, t = op["n"], op["lam"], op["t"]
        return lambda: fg.continuum_comparison(n, lam, t)
    if kind == "exact_central_density":
        n = closed_shell(op)
        return lambda: fg.exact_central_density(n)
    if kind == "counting_check":
        n = closed_shell(op)
        return lambda: fg.counting_check(n, 1.0)
    if kind == "exact_mu_zero_t":
        n = closed_shell(op)
        return lambda: fg.exact_mu(n, 1.0, 0.0)
    if kind == "validity_report":
        n, lam, radii = op["n"], op["lam"], op["radii"]
        return lambda: fg.validity_report(n, lam, radii)
    raise ValueError(f"unknown operation kind {kind!r}")


def encode(op, out):
    """JSON-ready form of an operation's output, for the checker."""
    kind = op["kind"]
    if kind == "thermo_curve":
        return {"m": [list(r) for r in out[0].samples], "c": [list(r) for r in out[1].samples]}
    if kind == "thermo_state":
        return [{"m": st.m, "u": st.u, "c": st.c} for st in out]
    if kind == "profile_curves":
        return [[list(r) for r in c.samples] for c in out]
    if kind in ("mean_field_correction", "density_response"):
        return {"de": out.delta_e_fermi, "dn": out.delta_n.tolist()}
    if kind == "continuum_comparison":
        return {k: getattr(out, k) for k in ("mu_exact", "mu_continuum", "zero_point",
                                             "gap_raw", "gap_adjusted")}
    if kind == "counting_check":
        return list(out)
    if kind == "validity_report":
        return {"radii": out.radii.tolist(), "margin": out.margin.tolist(),
                "cell": out.cell_scale.tolist(), "shell": out.shell_thickness_sigma,
                "inv_kf": out.inv_k_fermi_sigma}
    if kind in ("mean_square_size", "normalization", "exact_central_density",
                "exact_mu_zero_t"):
        return np.asarray(out, dtype=float).tolist()
    return out


def clear_mu_cache():
    clear = getattr(thermo.solve_mu, "cache_clear", None)
    if clear is not None:
        clear()


def run_list(ops, tracer=None):
    """Run ops in order, timing each in CPU and wall seconds.

    A speed probe runs before the first operation, after each PROBE_EVERY_S
    of operation CPU time and after the last; no operation's time includes
    it.  Returns per-operation CPU times scaled to the reference speed
    ("cpu", see speed.py) and unscaled ("cpu_raw"), wall times, the list
    totals (sums over operations), the raw results and each error.
    """
    clear_mu_cache()
    results = [None] * len(ops)
    calls = [prepare(op, results) for op in ops]
    cpu, wall, errors = [], [], []
    probes = [(0, speed.probe())]
    since_probe = 0.0
    for i, call in enumerate(calls):
        c0, t0 = cpu_clock(), perf()
        try:
            results[i] = call()
            err = None
        except Exception as exc:  # every failure counts against the operation
            err = f"{type(exc).__name__}: {exc}"
        t1, c1 = perf(), cpu_clock()
        cpu.append(c1 - c0)
        wall.append(t1 - t0)
        errors.append(err)
        if tracer is not None:
            tracer.record("op." + ops[i]["kind"], t0, t1, None, i, err is not None)
        since_probe += c1 - c0
        if since_probe >= PROBE_EVERY_S:
            probes.append((i + 1, speed.probe()))
            since_probe = 0.0
    probes.append((len(ops), speed.probe()))
    scaled = speed.scale(cpu, probes)
    return {"cpu_s": math.fsum(scaled), "cpu_raw_s": math.fsum(cpu),
            "wall_s": math.fsum(wall), "cpu": scaled, "cpu_raw": cpu, "wall": wall,
            "speed_probes": probes, "results": results, "errors": errors}


class Tracer:
    """In-memory spans: (name, start, end, parent, op id, failed, probe)."""

    def __init__(self):
        self.spans = []
        self.states = 0
        self.probe = False

    def record(self, name, start, end, parent, op_id, failed):
        self.spans.append((name, start, end, parent, op_id, failed, self.probe))
        return len(self.spans) - 1

    def call(self, name, fn, *args, op_id=None, parent=None):
        t0 = perf()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed call is recorded, the replay goes on
            self.record(name, t0, perf(), parent, op_id, True)
            return exc
        self.record(name, t0, perf(), parent, op_id, False)
        return out

    def fd(self, k, eta, op_id, parent):
        band = "series" if eta <= -1.0 else "sommerfeld" if eta >= 30.0 else "quadrature"
        return self.call(f"fdint.fd.{band}", fdint.fd, k, eta, op_id=op_id, parent=parent)


def spectrum_cutoff(n_particles, lam, t_abs):
    """The cutoff exact_mu builds its spectrum to (its default safety of 2)."""
    return 2.0 ** (1.0 / 3.0) * (6.0 * lam * n_particles) ** (1.0 / 3.0) + 36.0 * t_abs + 2.0


def replay(tr, op, i, source):
    """Bottom-up re-run of one operation; source holds its measured result."""
    kind = op["kind"]
    root = tr.record("replay." + kind, perf(), 0.0, None, i, False)
    kw = {"op_id": i, "parent": root}
    if source is None:  # the measured operation failed: nothing to replay
        tr.spans[root] = ("replay." + kind, tr.spans[root][1], perf(), None, i, True, tr.probe)
        return

    def thermo_layers(ts, orders=(2.0, 3.0, 4.0)):
        ts = [t for t in ts if t > 0.0]
        ms = {t: fg.solve_mu(t) for t in ts}
        for t in ts:
            for k in orders:
                tr.fd(k, ms[t] / t, i, root)
        clear_mu_cache()
        for t in ts:
            tr.call("thermo.solve_mu", fg.solve_mu, t, **kw)
        return ms

    def density_layers(t, s_values, fn_name="density"):
        if t > 0.0:
            m = fg.solve_mu(t)
            for s in s_values:
                tr.fd(1.5, (m - s * s) / t, i, root)
            clear_mu_cache()
            tr.call("thermo.solve_mu", fg.solve_mu, t, **kw)
        fn = getattr(fg, fn_name)
        for s in s_values:
            tr.call(f"profiles.{fn_name}", fn, s, t, **kw)

    if kind in ("thermo_curve", "thermo_state"):
        ts = op["ts"]
        thermo_layers(ts)
        for t in ts:
            if t > 0.0:
                tr.call("thermo.internal_energy", fg.internal_energy, t, **kw)
                tr.call("thermo.heat_capacity", fg.heat_capacity, t, **kw)
        if kind == "thermo_curve":
            tr.call("thermo.thermo_curve", fg.thermo_curve, ts, **kw)
        else:
            for t in ts:
                tr.call("thermo.thermo_state", fg.thermo_state, t, **kw)
    elif kind in ("mean_square_size", "normalization"):
        thermo_layers(op["ts"], orders=())
        for t in op["ts"]:
            tr.call(f"profiles.{kind}", getattr(fg, kind), t, **kw)
    elif kind == "profile_curves":
        for t, curve in zip(op["ts"], source):
            density_layers(t, [s for s, _ in curve.samples])
        tr.call("profiles.profile_curves", fg.profile_curves, op["ts"], op["n_samples"], **kw)
    elif kind in ("density_grid", "momentum_grid"):
        name = "density" if kind == "density_grid" else "momentum_density"
        for t in op["ts"]:
            density_layers(t, op["s"], name)
    elif kind == "mean_field_correction":
        tr.call("perturb.mean_field_correction", fg.mean_field_correction, op["u_int"], **kw)
    elif kind == "density_response":
        fld = fg.PerturbationField(np.array(
            workloads.field_values(op["field"], workloads.field_grid())))
        tr.call("perturb.density_response", fg.density_response, fld, **kw)
    elif kind in ("to_csv", "to_json"):
        curve = source
        tr.call(f"curves.{kind}", getattr(curve, kind), **kw)
    elif kind == "continuum_comparison":
        n, lam, t = op["n"], op["lam"], op["t"]
        thermo_layers([t], orders=(2.0, 3.0))
        e_f = (6.0 * lam * n) ** (1.0 / 3.0)
        spec = tr.call("oracle.build_spectrum", fg.build_spectrum, lam,
                       spectrum_cutoff(n, lam, t * e_f), **kw)
        tr.states += getattr(spec, "state_count", 0)
        tr.call("oracle.exact_mu", fg.exact_mu, n, lam, t * e_f, **kw)
        tr.call("oracle.continuum_comparison", fg.continuum_comparison, n, lam, t, **kw)
    elif kind == "exact_central_density":
        tr.call("oracle.exact_central_density", fg.exact_central_density,
                closed_shell(op), **kw)
    elif kind == "counting_check":
        n = closed_shell(op)
        spec = tr.call("oracle.build_spectrum", fg.build_spectrum, 1.0,
                       (6.0 * n) ** (1.0 / 3.0) + 1.0, **kw)
        tr.states += getattr(spec, "state_count", 0)
        tr.call("oracle.counting_check", fg.counting_check, n, 1.0, **kw)
    elif kind == "exact_mu_zero_t":
        n = closed_shell(op)
        spec = tr.call("oracle.build_spectrum", fg.build_spectrum, 1.0,
                       spectrum_cutoff(n, 1.0, 0.0), **kw)
        tr.states += getattr(spec, "state_count", 0)
        tr.call("oracle.exact_mu", fg.exact_mu, n, 1.0, 0.0, **kw)
    elif kind == "validity_report":
        tr.call("oracle.validity_report", fg.validity_report, op["n"], op["lam"],
                op["radii"], **kw)
    else:
        raise ValueError(f"no replay for operation kind {kind!r}")
    name, start, _, parent, op_id, failed, probe = tr.spans[root]
    tr.spans[root] = (name, start, perf(), parent, op_id, failed, probe)


def run_probes(tr, probes):
    """Known-defect inputs; their spans count calls and failures, not timings."""
    tr.probe = True
    heat = [tr.call("thermo.heat_capacity", fg.heat_capacity, t)
            for t in probes["heat_capacity_t"]]
    moments = [[tr.call(f"profiles.{name}", getattr(fg, name), t)
                for name in ("mean_square_size", "normalization")]
               for t in probes["moment_t"]]
    refused = []
    for p in probes["exact_mu"]:
        e_f = (6.0 * p["lam"] * p["n"]) ** (1.0 / 3.0)
        out = tr.call("oracle.exact_mu", fg.exact_mu, p["n"], p["lam"], p["t"] * e_f)
        refused.append(str(out) if isinstance(out, Exception) else None)
    tr.probe = False
    def value(x):
        return None if isinstance(x, Exception) else x

    return {"heat_capacity": [value(c) for c in heat],
            "moments": [[value(x) for x in pair] for pair in moments],
            "exact_mu_refusals": refused}


def replay_sources(ops, results):
    """Measured result each replayed operation needs (curves to re-serialize)."""
    out = []
    for op, res in zip(ops, results):
        if op["kind"] in ("to_csv", "to_json"):
            src = results[op["source"]]
            out.append(None if src is None else src[op["curve"]])
        else:
            out.append(res)
    return out


def main(job_path, out_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    ops = job["ops"]
    measured = run_list(ops)
    doc = {}
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["mode"] == "trace":
        tr = Tracer()
        traced = run_list(ops, tr)
        doc["traced"] = {k: traced[k] for k in ("cpu_s", "cpu_raw_s", "wall_s")}
        lists = [(ops, measured["results"])]
        lists += [(extra, run_list(extra)["results"]) for extra in job["replay_extra"]]
        op_id = 0
        for replay_ops, replay_results in lists:
            for op, source in zip(replay_ops, replay_sources(replay_ops, replay_results)):
                replay(tr, op, op_id, source)
                op_id += 1
        doc["probes"] = run_probes(tr, job["probes"])
        doc["spans"] = tr.spans
        doc["states"] = tr.states
    results = measured.pop("results")
    doc.update(measured)
    doc["outputs"] = [None if r is None else encode(op, r) for op, r in zip(ops, results)]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
