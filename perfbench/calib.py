"""A fixed pure-Python reference task that gauges the machine's speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to a factor of two over minutes.  A timed task that never changes (the
same kind of integer elimination and tuple hashing the library spends its
time on, but without importing it) shows how fast the machine was at that
moment.  run.py times it in every op process right after the op, and in
every set-up process right after the import, and reports its time metrics
at the reference speed REFERENCE_CALIB_MS (see run.py).

Imports only the standard library, so it costs the same on every commit.
"""

from __future__ import annotations

import gc
import random
import resource

# Seven fixed 6x6 integer matrices.
_MATRICES = tuple(
    tuple(tuple(rng.randrange(-3, 4) for _ in range(6)) for _ in range(6))
    for rng in (random.Random(f"calib/{k}") for k in range(7))
)
REPEATS = 20


def _det(rows) -> int:
    """Fraction-free (Bareiss) determinant, with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _task() -> int:
    seen = set()
    acc = 0
    for rows in _MATRICES:
        acc += _det(rows)
        for i, row in enumerate(rows):
            for other in rows[i + 1:]:
                seen.add(tuple(sorted(x + y for x, y in zip(row, other))))
    return acc + len(seen)


def cpu_ns() -> int:
    """CPU time used so far by this process and the children it waited for.

    CPU time leaves out the moments the host hands the core to another
    guest, which wall time counts; the children count so that work moved
    into a subprocess still shows.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime) * 1e9)


def measure_ns() -> int:
    """CPU nanoseconds the reference task takes now (a few milliseconds).

    The garbage collector is off while it runs, so the size of the heap an
    op left behind does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_ns()
        for _ in range(REPEATS):
            _task()
        return cpu_ns() - start
    finally:
        if enabled:
            gc.enable()
