"""Host-speed probe: a fixed kernel that uses no defkt code.

On the shared 2-vCPU host this benchmark was defined on, the same code ran
up to 1.5x faster or slower for stretches of seconds to minutes. Longer
measurements do not average this out. Each run therefore times this kernel
right after its round window. run.py divides the run's timings by the
kernel's slowdown relative to REFERENCE_S.

perfbench/README.md gives the measured effect on each workload. A change
to defkt does not touch the kernel, so it moves corrected and uncorrected
timings alike.

The kernel mixes the costs the workloads are made of: dense GEMMs of the
reference MLP's shape, in-place updates of a vector the size of its
parameters, interpreter overhead and small numpy calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time, measured once on the host above: 2-vCPU Intel Xeon,
# OpenBLAS SkylakeX kernel, 1 BLAS thread, numpy 2.4.6. It only sets the
# scale of the corrected timings.
REFERENCE_S = 0.0154


def kernel_seconds(repeats: int = 15) -> float:
    """Median wall time of one pass of the kernel."""
    rng = np.random.default_rng(0)
    a, b = rng.random((200, 784)), rng.random((784, 200))
    v, g = rng.random(200_000), rng.random(200_000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(4):
            a @ b
        for _ in range(25):
            v *= 0.5
            v += g
        total = 0
        for i in range(30_000):
            total += i * i
        x = np.zeros(8)
        for _ in range(1_500):
            x = x + 1.0
        times.append(time.perf_counter() - start)
    return statistics.median(times)
