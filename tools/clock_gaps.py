"""The longest stretches between two reads of the budget's clock.

    python3 tools/clock_gaps.py 'wide(10)'
    python3 tools/clock_gaps.py 'fuchsian(0, [6] * 5)'

Runs ``derived_series`` once on the input, an expression over ``wide(n)``
(``< x0..x{n-1} | x_i^2 >``) and the :mod:`adorn.zoo` families, and prints
the verdict, the seconds, the process's peak RSS and the three longest
stretches, each with the layers of the reads at both ends: ``start`` is
``Budget.start`` and ``end`` the return of ``derived_series``.  A stretch
is as long as the run can overrun its wall-clock limit there.  The program
is not edited: ``Budget.start`` and ``Budget.check`` are wrapped on the
class from here.  One input per process, so the peak RSS is the input's.
"""

import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adorn import zoo  # noqa: E402
from adorn.derived import derived_series  # noqa: E402
from adorn.fpgroup import Budget, GroupPresentation, Word  # noqa: E402


def wide(n: int) -> GroupPresentation:
    return GroupPresentation([f"x{i}" for i in range(n)],
                             [Word.gen(i) ** 2 for i in range(n)], name=f"wide({n})")


def main(text: str) -> None:
    names = {f: (lambda *a, f=f: zoo.make(f, a)) for f in zoo.FAMILIES}
    p = eval(text, {"__builtins__": {}}, {**names, "wide": wide})
    reads = []  # (perf_counter, layer), in order
    start, check = Budget.start, Budget.check

    def recorded_start(self):
        reads.append((time.perf_counter(), "start"))
        return start(self)

    def recorded_check(self, layer):
        reads.append((time.perf_counter(), layer))
        check(self, layer)

    Budget.start, Budget.check = recorded_start, recorded_check
    try:
        _, verdict = derived_series(p)
    finally:
        Budget.start, Budget.check = start, check
    reads.append((time.perf_counter(), "end"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{text}: {verdict}  {reads[-1][0] - reads[0][0]:.2f} s  peak RSS {rss_mb:.0f} MB")
    gaps = sorted(((b[0] - a[0], a[1], b[1]) for a, b in zip(reads, reads[1:])), reverse=True)
    for s, before, after in gaps[:3]:
        print(f"  {s * 1000:8.1f} ms  {before} -> {after}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    try:
        main(sys.argv[1])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head -2` does
        # stdout goes to devnull, so the flush at exit meets no closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
