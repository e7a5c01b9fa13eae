"""Machine-speed probe: scales CPU times to a reference speed.

On a shared machine the CPU time of identical work drifts with other
tenants' load (hyperthread and cache sharing, clock changes): on a 2-CPU
sandbox the CPU time of `import fermigas` spread 39% over ten runs, and a
workload's total 19% over five.  A short fixed probe of the same kind of
work (Python loops over math calls and small numpy arrays), run between
operations, slows down with it.  Each operation's CPU time is scaled by
REFERENCE_S / (median of the WINDOW probes nearest to it); over those
five runs this cut the spread of the total from 19% to 5% and of the
median operation from 25% to 4%.

The probe never calls the program, so a change to the program cannot
move it; scaled times are CPU seconds at the speed where the probe takes
REFERENCE_S.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.006   # CPU seconds of one probe at the reference speed
WINDOW = 9            # probes around an operation whose median sets its speed


def _work():
    x = np.linspace(0.0, 1.0, 48)
    total = 0.0
    for i in range(1000):
        y = np.exp(-x * (i % 7 + 1)) / (1.0 + x)
        total += float(np.dot(y, x)) + math.exp(-i * 1e-3) * math.sqrt(i + 1.0)
    return total


def probe():
    """CPU seconds one fixed unit of work takes now."""
    c0 = time.process_time()
    _work()
    return time.process_time() - c0


def scale(times, probes):
    """times[i] scaled to the reference speed.

    probes holds (position, seconds) pairs in order; a probe at position p
    ran just before operation p (p = len(times) after the last one).
    """
    positions = [p for p, _ in probes]
    out = []
    j = 0
    for i, t in enumerate(times):
        while j < len(positions) and positions[j] <= i:
            j += 1
        # probes[j] is the first after operation i; centre the window on it
        lo = max(0, min(j - WINDOW // 2 - 1, len(probes) - WINDOW))
        local = statistics.median(s for _, s in probes[lo:lo + WINDOW])
        out.append(t * REFERENCE_S / local)
    return out
