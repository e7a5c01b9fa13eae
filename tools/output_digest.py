"""Print one sha256 per (workload, seed, operation kind) over the library
outputs of the benchmark's figures and oracle operation lists.

    python tools/output_digest.py SEED...

Run from the root of a source checkout: the package is imported from its
./src and the benchmark's list builder and runner from ./perfbench, which
is only read.  Each list is perfbench/workloads.generate(workload, seed, 20);
every operation is built by perfbench/worker.prepare and run in order in
this one process, and its output, or its error, is put through
worker.encode.  The digest hashes floats by float.hex and arrays by the
sha256 of their bytes, so two checkouts print the same line exactly when
every output of that kind is bit-identical.  A line reads

    WORKLOAD SEED KIND COUNT SHA256

where a serializer's kind names the kind of the operation whose curve it
writes (to_csv<profile_curves), so a change shows which outputs moved.
"""

import hashlib
import sys
from collections import Counter, defaultdict
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


def digests(worker, ops) -> dict:
    """{kind: (count, sha256)} over the encoded output, or the error, of each
    operation of that kind in list order; every kind runs in one pass."""
    worker.clear_mu_cache()
    results = [None] * len(ops)
    counts, parts = Counter(), defaultdict(list)
    for i, op in enumerate(ops):
        kind = op["kind"]
        if "source" in op:  # a serializer: name the kind of the curve it writes
            kind += "<" + ops[op["source"]]["kind"]
        counts[kind] += 1
        try:
            results[i] = worker.prepare(op, results)()
        except Exception as exc:
            parts[kind].append(f"error:{type(exc).__name__}: {exc}")
            continue
        canonical(worker.encode(op, results[i]), parts[kind])
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

    for workload in WORKLOADS:
        for seed in seeds:
            ops = workloads.generate(workload, seed, SECONDS)
            for kind, (count, sha) in digests(worker, ops).items():
                print(f"{workload} {seed} {kind} {count} {sha}")


if __name__ == "__main__":
    main(sys.argv[1:])
