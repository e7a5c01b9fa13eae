"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_list(workload):
    first = workloads.generate(workload, 7, 20)
    assert first == workloads.generate(workload, 7, 20)
    assert first != workloads.generate(workload, 8, 20)
    assert workloads.probes(7) == workloads.probes(7)


@pytest.mark.parametrize("workload", ["figures", "oracle"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_temperature_repeats_across_operations(workload, seed):
    seen = {}
    for i, op in enumerate(workloads.generate(workload, seed, 20)):
        ts = op.get("ts") or ([op["t"]] if "t" in op else [])
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert t not in seen, f"t={t} reused by operations {seen[t]} and {i}"
            seen[t] = i
    assert seen


def test_list_length_follows_seconds():
    assert len(workloads.generate("oracle", 1, 10)) < len(workloads.generate("oracle", 1, 20))


def _thermo_state_op(t):
    import fermigas as fg

    st = fg.thermo_state(t)
    return {"kind": "thermo_state", "ts": [t]}, [{"m": st.m, "u": st.u, "c": st.c}]


@pytest.mark.parametrize("field", ["m", "u", "c"])
def test_checker_fails_a_wrong_value(field):
    op, out = _thermo_state_op(0.3)
    refs = reference.References()
    worst, failures = run.check_all(refs, [op], [out], [None], cli=False)
    assert failures == [] and max(worst.values()) <= reference.TOLERANCE

    bad = [dict(out[0])]
    bad[0][field] *= 1.0 + 1e-8
    _, failures = run.check_all(refs, [op], [bad], [None], cli=False)
    assert len(failures) == 1 and failures[0]["error"].startswith("check failed")


def test_checker_fails_a_wrong_exact_mu():
    import fermigas as fg

    op = {"kind": "continuum_comparison", "n": 2000, "lam": 1.0, "t": 0.1}
    comp = fg.continuum_comparison(2000, 1.0, 0.1)
    out = {k: getattr(comp, k) for k in ("mu_exact", "mu_continuum", "zero_point",
                                         "gap_raw", "gap_adjusted")}
    refs = reference.References()
    assert run.check_all(refs, [op], [out], [None], cli=False)[1] == []
    out["mu_exact"] *= 1.0 + 1e-8
    assert len(run.check_all(refs, [op], [out], [None], cli=False)[1]) == 1


def test_raised_error_counts_as_failed():
    op = {"kind": "normalization", "ts": [0.5]}
    _, failures = run.check_all(reference.References(), [op], [None],
                                ["NumericsError: no"], cli=False)
    assert failures[0]["error"] == "NumericsError: no"


def test_central_density_reference_matches_direct_sum():
    top = 6
    total = 0.0
    for nx in range(0, top + 1, 2):
        for ny in range(0, top + 1 - nx, 2):
            for nz in range(0, top + 1 - nx - ny, 2):
                total += math.prod(math.comb(n, n // 2) / 2 ** n for n in (nx, ny, nz))
    assert float(reference.central_density_ref(top)) == pytest.approx(
        total / math.pi ** 1.5, rel=1e-15)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric_with_its_unit(trace, section):
    proc = _run_bench(ROOT, "--workload", "oracle", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run_bench(bare, "--workload", "figures", "--seed", "1", "--seconds", "1")
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
