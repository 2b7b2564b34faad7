"""Time one fresh-process set-up of a workload.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is everything before the first timed operation: importing the
library, building and binding the workload's maps, writing its configs,
and the first compile of the float steppers.  Prints the seconds it took,
then the median time of reference_loop() over seven runs just before the
set-up and seven just after it.
"""

import statistics
import sys
import time

from reference import reference_loop

before = [reference_loop() for _ in range(7)]
t0 = time.perf_counter()
import workloads  # noqa: E402  (imports polykahan, inside the timed region)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
elapsed = time.perf_counter() - t0
after = [reference_loop() for _ in range(7)]
print(repr(elapsed), repr(statistics.median(before + after)))
