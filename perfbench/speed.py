"""Machine-speed reference for scaling measured times.

The benchmark shares a virtual machine whose speed drifts by tens of
percent over minutes: identical passes measured a few minutes apart
differ more than any bound worth keeping.  Next to every measured
interval the benchmark times a fixed kernel that never touches qdim and
scales the interval by ``NOMINAL_S / kernel time``.  A reported time is
therefore the time the interval would take on a machine running the
kernel in ``NOMINAL_S``; raw seconds are printed alongside.
"""

import math
import statistics
import time

import numpy as np

# a fixed nominal kernel time, close to its time on the 2-vCPU Xeon VM
# the baseline was recorded on
NOMINAL_S = 0.01


def reference_seconds(repeats: int = 3) -> float:
    """Median time of the kernel: an interpreted float loop, many small
    numpy calls and a large array sort, the mix qdim spends its time on."""
    x = np.linspace(0.0, 1.0, 100_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(20_000):
            s += math.sqrt(i + s % 7.0)
        for _ in range(200):
            s += float(np.logaddexp.reduce(x[:32]))
        for _ in range(4):
            s += float(np.sort(x[::-1] * 1.5)[7])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
