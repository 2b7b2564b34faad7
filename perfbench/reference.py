"""The reference loop that times are divided by.

It lives apart from ``workloads`` so that a set-up probe can time it before
importing the library.
"""

import time
from fractions import Fraction

# reference_loop()'s time on the machine of BASELINE.md; setup_s is set-up
# time scaled to this speed.
REFERENCE_S = 0.008


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of the interpreter work the
    library spends its time in: int and Fraction arithmetic, dict updates and
    float arithmetic.  It does not touch polykahan, so a change to the
    library cannot move it.

    A shared host's speed can drift by tens of percent over minutes; timed
    next to each operation, this loop drifts with it, and operation time
    divided by loop time cancels most of the drift.
    """
    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    third = Fraction(1, 3)
    y = 0.5
    for i in range(1500):
        k = i % 97
        acc[k] = acc.get(k, 0) + third * i
        y = y * 0.999 + i * i * 1e-9
    return time.perf_counter() - t0
