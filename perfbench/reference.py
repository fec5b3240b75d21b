"""A fixed pure-Python computation that tracks how fast the machine runs now.

On a shared machine the same code runs 20 % faster or slower for minutes at
a time, and that drift swamped the differences the benchmark is meant to
resolve.  So the harness runs this reference (a bignum elimination mod 3^64,
the instruction mix of the Smith kernel, and no iwalab code) before every
round and scales the round's task times to a machine on which the reference
takes NOMINAL_SECONDS.  The raw times stay in the result file.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_SECONDS = 0.0075

_Q = 3**64
_RNG = random.Random(20171011)
_ROWS = [[_RNG.randrange(_Q) for _ in range(36)] for _ in range(36)]


def reference_seconds() -> float:
    rows = [list(r) for r in _ROWS]
    n = len(rows)
    t0 = time.perf_counter()
    for k in range(n):
        pivot = rows[k]
        for row in rows[k + 1:]:
            c = row[k]
            for j in range(k, n):
                row[j] = (row[j] - c * pivot[j]) % _Q
    return time.perf_counter() - t0


def scale_factors(refs, half_window: int = 2):
    """NOMINAL_SECONDS over the median reference time in a window around each round."""
    out = []
    for i in range(len(refs)):
        window = refs[max(0, i - half_window): i + half_window + 1]
        out.append(NOMINAL_SECONDS / statistics.median(window))
    return out
