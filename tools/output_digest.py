"""Print one sha256 per (workload, seed) over the library outputs of the
benchmark's figures and oracle operation lists.

    python tools/output_digest.py SEED...

Run from the root of a source checkout: the package is imported from its
./src and the benchmark's list builder and runner from ./perfbench, which
is only read.  Each list is perfbench/workloads.generate(workload, seed, 20);
every operation is built by perfbench/worker.prepare and run in order in
this one process, and its output, or its error, is put through
worker.encode.  The digest hashes floats by float.hex and arrays by the
sha256 of their bytes, so two checkouts print the same line exactly when
every output is bit-identical.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("figures", "oracle")
SECONDS = 20


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


def digest(worker, ops) -> str:
    """sha256 over the encoded output, or the error, of each operation in turn."""
    worker.clear_mu_cache()
    results = [None] * len(ops)
    parts = []
    for i, op in enumerate(ops):
        try:
            results[i] = worker.prepare(op, results)()
        except Exception as exc:
            parts.append(f"error:{type(exc).__name__}: {exc}")
            continue
        canonical(worker.encode(op, results[i]), parts)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


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

    for workload in WORKLOADS:
        for seed in seeds:
            ops = workloads.generate(workload, seed, SECONDS)
            print(f"{workload} {seed} {len(ops)} {digest(worker, ops)}")


if __name__ == "__main__":
    main(sys.argv[1:])
