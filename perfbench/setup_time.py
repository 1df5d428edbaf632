"""Time one set-up of a workload in a fresh interpreter: import the program
and generate the workload's inputs.  Prints the seconds taken and the speed
scale of this process, from reference slices run just before (see
``speed.py``).

    python3 perfbench/setup_time.py <workload> <seed> <corpus>

``run.py`` runs it between passes and reports the median scaled time as
``setup_s``.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import speed  # noqa: E402

# the first slice of a fresh interpreter warms it up and is not counted
slices = [speed.slice_time() for _ in range(4)][1:]
t0 = time.perf_counter()
import gen  # noqa: E402  (the import is what is timed)

gen.make_jobs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0, speed.scale(slices))
