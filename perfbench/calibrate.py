"""Host-speed calibration for the benchmark's timings.

On a shared machine the speed of the whole host drifts: the same
deterministic task takes 240 ms for a while and 450 ms for the next
stretch, for wall and CPU time alike.  A fixed kernel timed next to each
task drifts with it: over ~12 s windows, the ratio of a task's time to the
kernel's varied about three times less than the task's time alone.  Task
times are therefore reported in reference-host seconds: the measured time
times `REFERENCE_S` over the kernel's time measured beside the task.  The
kernel depends on nothing in the package, so a change to the package leaves
it unchanged.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010    # the kernel's time on a 2-core x86-64 reference host
WINDOW = 3             # kernel samples either side of a task that set its factor
_ARRAY = np.random.default_rng(0).random((64, 64))


def kernel():
    """Scalar float arithmetic in a Python loop, like the ODE integrator,
    then small array updates, like the descents."""
    y = 0.0
    for i in range(30000):
        s = 1.0 + 1e-4 * i
        y += 1e-4 * (s - y / s)
    a = _ARRAY.copy()
    for _ in range(150):
        a = a - 0.01 * np.sqrt(np.roll(a, 1, axis=0) * a + 1.0)
    return y + float(a[0, 0])


def sample():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale_now():
    """Factor from measured to reference-host seconds at this moment."""
    return REFERENCE_S / statistics.median(sample() for _ in range(3))


def scales(samples):
    """Factor from measured to reference-host seconds for each position in
    a sequence of kernel samples: the median of the samples near it."""
    n = len(samples)
    return [REFERENCE_S / statistics.median(samples[max(0, i - WINDOW):
                                                    min(n, i + WINDOW + 1)])
            for i in range(n)]
