"""Machine-speed reference for the benchmark's timings.

The shared 2-vCPU Xeon VM the benchmark was built on changes speed by up
to 40% between runs a minute apart, and by as much within a run; a fixed
loop of interpreted Python slows down in step with the workloads.  So each
run times this fixed reference loop next to its points, and scales its
timings to a machine that runs one loop in ``REF_S`` seconds.  The loop
mixes interpreted Python with small numpy calls, the mix a point spends
its time in.  On that VM, over five 30 s runs with five seeds, the
quartile spread of points per second over its median fell from 0.16 to
0.04 on strata-n4 and from 0.14 to 0.09 on field-n3.
"""

from __future__ import annotations

import time

import numpy as np

# seconds one reference loop takes on the scaled-to machine
REF_S = 1e-3


def reference_loop() -> float:
    """One pass of fixed work; returns a value so none of it is skipped."""
    s = 0
    for i in range(15000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(150):
        a = np.sqrt(a + 1.0)
    return s + float(a[0])


def time_reference(min_seconds: float) -> tuple[int, float]:
    """Run the loop at least once and until ``min_seconds`` have passed;
    return (loops run, seconds taken)."""
    clock = time.perf_counter
    t0 = clock()
    n = 0
    while True:
        reference_loop()
        n += 1
        elapsed = clock() - t0
        if elapsed >= min_seconds:
            return n, elapsed
