"""Machine-speed reference for the benchmark's timings.

On a shared host the processor's speed for one process drifts by as much as
1.7x over minutes (neighbours on the same cores), which moves every timing
of a run together.  ``run.py`` therefore times a slice of fixed pure-Python
work, independent of ``adorn``, after every job, and reports the times of a
pass scaled by ``REF_S / t``, where ``t`` is the mean slice time in it: the
time at the speed at which a slice takes ``REF_S`` seconds.  The slices are
spread over the whole pass because the speed also changes within seconds;
one scale per pass, rather than one per job, keeps what a single job leaves
behind in the caches from moving its own time.  A set-up repetition runs in
a fresh interpreter, which times its own slices just before it
(``setup_time.py``); this module imports nothing beyond ``gc`` and ``time``,
so that loading it there preloads nothing the timed import needs.  The raw
times are kept in the result's ``info`` record.

The slice works on what the program works on: small integers, tuples,
lists and dicts, with row reduction of an integer matrix, free reduction of
a word, counting, and scattered reads and writes in a table of rows about
the size of an S7 coset table (about 1 MB).  Most of its time is in the
table, because a slice without it over-reacted to speed changes that moved
the coset enumeration of ``enumerate`` less.  The garbage collector is off
during a slice, so the slice's time does not depend on how much the program
keeps alive.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.0035  # about one slice on the reference machine (see README)
TABLE_ROWS = 8000
_TABLE = [[0] * 12 for _ in range(TABLE_ROWS)]


def _work() -> int:
    n = 14
    m = [[(i * 7 + j * 13) % 17 - 8 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        for i in range(k + 1, n):
            a, b = m[i][k], m[k][k] or 1
            m[i] = [(x * b - y * a) % 1000003 for x, y in zip(m[i], m[k])]
    counts: dict = {}
    word: list = []
    for i in range(1500):
        g = (i * 31) % 11 - 5
        if word and word[-1][0] == -g:
            word.pop()
        else:
            word.append((g, i % 3))
        key = (g, len(word) % 7)
        counts[key] = counts.get(key, 0) + 1
    j = 0
    for i in range(6000):
        j = (j * 1103515245 + 12345) % TABLE_ROWS
        row = _TABLE[j]
        row[i % 12] = row[(i + 5) % 12] + 1
    return len(word) + len(counts) + m[n - 1][n - 1] + j


def slice_time() -> float:
    """Seconds taken by one reference slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(times: list[float]) -> float:
    """The factor that takes a time measured among these slice times to the
    reference speed."""
    return REF_S * len(times) / sum(times)
