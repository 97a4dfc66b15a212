"""The machine's speed at a moment, read from a fixed pure-Python kernel.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a quarter or more over seconds and minutes as its neighbours come and go.
A time measured in wall seconds carries that drift.  The benchmark
therefore times a fixed reference kernel between queries and scales each
query's time by how fast the kernel ran around it:

    corrected = measured * NOMINAL_S / kernel seconds near the query

A corrected time is the time the query would have taken on a machine whose
kernel run takes NOMINAL_S.  The kernel uses nothing from dacosta, so a
change to the program moves the corrected times exactly as it moves the
measured ones; only the machine's drift is divided out.  Its work is the
kind the engines do: recursion, small tuples, dict lookups, frozensets.

    python3 perfbench/speed.py      # prints the median kernel seconds here
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's median seconds between the benchmark's queries on a shared
# 2-vCPU Xeon VM (2.1 GHz), CPython 3.11, so that corrected times read close
# to wall times there.
NOMINAL_S = 0.00050
REPEATS = 3


def _kernel():
    memo = {}

    def expand(n, acc):
        if n == 0:
            return (acc,)
        key = (n, acc & 7)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = expand(n - 1, acc * 3 + 1) + expand(n - 1, acc + 2)[:1]
        memo[key] = out
        return out

    total = 0
    for j in range(12):
        memo.clear()
        leaves = expand(12, j)
        total += len(frozenset(leaves[:8])) + len({x: (x, j) for x in leaves})
    return total


def probe():
    """Seconds of one kernel run now: the median of REPEATS runs, with the
    garbage collector held off so that it bills no program garbage here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


if __name__ == "__main__":
    runs = [probe() for _ in range(200)]
    print(statistics.median(runs))
