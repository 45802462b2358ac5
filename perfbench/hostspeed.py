"""Host-speed correction for the benchmark's times.

On a shared host the speed of pure-Python code drifts by a third and more
within minutes (on a 2-vCPU VM a fixed 0.13 s op ranged over 0.098-0.158 s
in ten-op medians taken in one process over 150 s), which is wider than
any bound a benchmark can keep.  Scaled as below, the interquartile spread
of those medians fell from 0.286 to 0.053 of their median.
The benchmark therefore times a fixed reference loop, independent of
``khovanov``, next to everything it measures, and reports each time scaled
to a host on which that loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / (reference loop's time nearby)

A change to the package moves the measured time and not the reference, so
regressions and gains show in full; a change of host speed moves both.  The
raw seconds are kept next to the result in ``perfbench/out``.
"""

from __future__ import annotations

import gc
import statistics
import time

# typical time of reference_loop() in a workload process on a 2-vCPU
# Firecracker VM with Python 3.11.7 (it ranged over 6-9 ms there); reported
# times are seconds on that host
REFERENCE_S = 0.0075
ITERATIONS = 20_000


def reference_loop() -> int:
    """Fixed pure-Python work like the package's inner loops: tuple keys,
    dict lookups and small-integer arithmetic."""
    table = {}
    for i in range(ITERATIONS):
        key = (i * 7919 % 1009, i & 7)
        table[key] = table.get(key, 0) + i
    return len(table)


def sample(count: int = 3) -> float:
    """Median time of ``count`` runs of the reference loop.  The collector
    is off meanwhile, so the size of the caller's heap does not reach the
    reference time."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(reference_times) -> float:
    """Factor that turns seconds measured next to ``reference_times`` into
    seconds on the reference host."""
    return REFERENCE_S / statistics.mean(reference_times)
