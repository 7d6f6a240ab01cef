"""Host speed reference for timings taken on a shared, drifting machine.

On a shared 2-core x86_64 host (Python 3.11.7), the speed of Python code
swings by up to a half in phases that last from a second to minutes, and a
whole 20 s run can fall inside one slow phase. So every interval the
benchmark reports is multiplied by `scale()`, measured just before it: the
reference time of a fixed kernel over its time now. A reported
time then reads as host time at the reference speed, and a phase that slows
the kernel and the program alike cancels out.

The kernel does what hapdock's tick does most: small numpy arrays built,
sliced, clipped and turned back into tuples and floats. It calls none of
hapdock's code, so a change to the program leaves it alone. On lift replays
recorded through a noisy stretch it tracked the program's speed better than
pure-Python kernels (arithmetic loops, dict and tuple churn, difflib). The
garbage collector is off while it runs.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

import numpy as np

KERNEL_ITERATIONS = 50
_LIMIT = np.array([9.5, 9.5, 9.5])
# Best-of-two kernel time in a fast phase of the reference box
# (2-core x86_64, Python 3.11.7, numpy 2.4).
REF_NS = 370_000


def _kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        v = np.zeros(6)
        v[:3] = (i * 0.1, 1.0, 2.0)
        c = np.clip(v[:3], -_LIMIT, _LIMIT)
        acc += float(c.sum()) + sum(tuple(np.asarray((1.0, 2.0, 3.0)) * 0.5))
    return acc


def scale() -> float:
    """REF_NS over the kernel's current time (best of two); 1.0 at reference speed."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        _kernel()
        t1 = perf_counter_ns()
        _kernel()
        t2 = perf_counter_ns()
    finally:
        if collecting:
            gc.enable()
    return REF_NS / min(t1 - t0, t2 - t1)


def rescale(raw, scales: list[float], window: int) -> list[float]:
    """raw[i] times the scale measured for its window of `window` items."""
    return [t * scales[i // window] for i, t in enumerate(raw)]
