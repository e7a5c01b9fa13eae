"""Record what the command line prints for a fixed list of invocations.

    python tools/cli_snapshot.py OUTDIR

Run from the root of a source checkout: the package is imported from its
./src.  Each invocation of the list below runs as `python -m fermigas ...`
in a fresh process, with OUTDIR as its working directory and
FERMIGAS_CONFIG unset, and leaves OUTDIR/<name>/ holding argv, stdout,
stderr and exit (the exit code).  `diff -r` of the snapshots of two
checkouts then shows every change a user would see.  The list is every
command at default flags in CSV and JSON, the oracle's low-temperature,
anisotropic, large-N and T = 0 cases, values outside each number flag's
domain, the sample and step cap included, and traps whose scales or Pauli
pseudopotential leave the float range.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

TABLE = "delta_v.csv"   # 2048 rows of (s, dV/E_F), written into OUTDIR
LI6 = ("--preset", "li6-top")

DEFAULTS = [
    ("mu-curve",), ("heat-curve",), ("msd-curve",), ("profile",),
    ("profile", "--momentum"), ("scales", *LI6), ("perturb", "--delta-v", TABLE),
    ("bose-compare", *LI6), ("oracle",), ("validity",),
]

ORACLE = [
    ("oracle", "--lambda", "2.8284271247461903"),
    ("oracle", "--n", "100000"),
    ("oracle", "--n", "969", "--t", "0.0001"),
    ("oracle", "--n", "1", "--t", "0.001"),
    ("oracle", "--n", "20", "--t", "0"),
    ("oracle", "--lambda", "2.8284271247461903", "--n", "6", "--t", "0"),
    ("oracle", "--t", "0"),
    # t E_F is subnormal: the solve's own error, and no numpy warning
    ("oracle", "--n", "1000", "--t", "1e-320"),
]

BAD_VALUES = [
    ("scales", *LI6, "--mass", "-1"),
    ("scales", *LI6, "--mass", "inf"),
    ("scales", *LI6, "--omega-r", "0"),
    ("scales", *LI6, "--lambda", "nan"),
    ("scales", *LI6, "--n", "0"),
    ("scales", *LI6, "--n", "2.5"),
    ("scales", *LI6, "--n", "1" + "0" * 400),
    # 48 N lambda past the float range, then SI scales past it
    ("scales", "--mass", "1e-26", "--omega-r", "1000", "--lambda", "10", "--n", "1" + "0" * 307),
    ("bose-compare", "--mass", "1e-26", "--omega-r", "1000", "--lambda", "10",
     "--n", "1" + "0" * 307),
    ("oracle", "--lambda", "10", "--n", "1" + "0" * 307),
    ("validity", "--lambda", "10", "--n", "1" + "0" * 307),
    ("scales", "--mass", "1e-300", "--omega-r", "1e-300", "--lambda", "1", "--n", "1000"),
    ("scales", "--mass", "1e-26", "--omega-r", "1e300", "--lambda", "1", "--n", "1" + "0" * 300),
    ("bose-compare", "--mass", "1e-26", "--omega-r", "1e300", "--lambda", "1",
     "--n", "1" + "0" * 300),
    # SI scales in range whose Pauli pseudopotential E_F R_F^3/N is not
    ("bose-compare", "--mass", "1e-200", "--omega-r", "1e-100", "--lambda", "1", "--n", "1000"),
    ("bose-compare", *LI6, "--n", "-3"),
    ("bose-compare", *LI6, "--u-bose", "-0.5"),
    ("bose-compare", *LI6, "--a-scatt", "inf"),
    ("mu-curve", "--t-min", "-1"),
    ("mu-curve", "--t-min", "nan"),
    ("mu-curve", "--t-max", "0.1", "--t-min", "0.5"),
    ("heat-curve", "--t-max", "inf"),
    ("heat-curve", "--t-max", "-1"),
    ("msd-curve", "--steps", "1"),
    ("msd-curve", "--steps", "abc"),
    ("profile", "--t", "abc"),
    ("profile", "--t", "-0.5"),
    ("profile", "--s-max", "0"),
    ("profile", "--s-max", "1e-320"),
    ("profile", "--s-max", "1e200", "--samples", "3"),  # s^2 past the float range: density 0
    ("profile", "--samples", "1"),
    # above the sample cap: a checkout without the cap starts building a list
    # of this length, so snapshot such a checkout with its own copy of this tool
    ("profile", "--samples", "1000001"),
    ("profile", "--samples", "100000000000000000000"),
    ("mu-curve", "--steps", "100000000000000000000"),
    ("heat-curve", "--steps", "1000001"),
    ("msd-curve", "--steps", "1000001"),
    ("oracle", "--n", "0"),
    ("oracle", "--lambda", "-1"),
    ("oracle", "--lambda", "abc"),
    ("oracle", "--lambda", "1e-7"),
    ("oracle", "--t", "-0.5"),
    ("oracle", "--t", "nan"),
    ("oracle", "--shells", ","),
    ("validity", "--n", "-5"),
    ("validity", "--lambda", "inf"),
    ("validity", "--radii", "nan,0.5"),
]


def invocations():
    """(name, argv) of every invocation; the names are unique path components."""
    runs = [(*argv, "--format", fmt) for argv in DEFAULTS for fmt in ("csv", "json")]
    runs += [*ORACLE, *BAD_VALUES]
    named = [(re.sub(r"[^\w.+-]+", "_", " ".join(argv))[:100], argv) for argv in runs]
    assert len({name for name, _ in named}) == len(named)
    return named


def write_table(path):
    rows = (f"{s!r},{1e-3 * s * s!r}" for s in (i / 2047 for i in range(2048)))
    path.write_text("s,delta_v\n" + "\n".join(rows) + "\n")


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / TABLE)
    env = {key: value for key, value in os.environ.items() if key != "FERMIGAS_CONFIG"}
    env["PYTHONPATH"] = str(Path("src").resolve())
    for name, args in invocations():
        proc = subprocess.run([sys.executable, "-m", "fermigas", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        run = out / name
        run.mkdir(exist_ok=True)
        (run / "argv").write_text(" ".join(args) + "\n")
        (run / "stdout").write_text(proc.stdout)
        (run / "stderr").write_text(proc.stderr)
        (run / "exit").write_text(f"{proc.returncode}\n")
        print(f"{proc.returncode}  {' '.join(args)}")


if __name__ == "__main__":
    main(sys.argv[1:])
