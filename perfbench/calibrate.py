"""A fixed reference kernel that tells how fast the host runs right now.

The host this benchmark was tuned on runs the same code 1.0 to 1.9
times slower from one second to the next, and up to 1.8 times slower
for stretches of tens of seconds to minutes, process CPU time included;
a 40 s run can fall wholly inside such a stretch.  So the worker times
`kernel`, a few milliseconds of pure-Python work of the same kind as the
package's (a lattice-point scan against integer half-spaces into a set,
a `Fraction` sum), between every two queries.  A query's speed factor is
`REFERENCE_S / mean(kernel times just before and after it)`: how much
faster than during the query the host runs when it is quiet.  Each
query latency is multiplied by its factor, so it reads as seconds at the
quiet speed.  Pairing each query with its neighbouring kernel times
tracks the fast changes too: on this host, in a stretch where everything
ran twice as slow, five 40 s structure runs spread (quartile distance ÷
median) 0.10-0.18 as measured and 0.016-0.022 scaled this way.  The
kernel shares no code with polysgp, so a change to the package cannot
move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the time of `kernel` on a quiet machine of the kind the bench was
# tuned on (2-vCPU Intel Xeon VM, Python 3.11.7, where its 10th
# percentile over a minute was 4.9 ms); only ratios to it matter
REFERENCE_S = 0.0050

_PLANES = ((3, -1, 2, 28), (-2, 5, 1, 44), (1, 1, -4, 36), (-1, -2, -3, 160))


def kernel() -> int:
    """The fixed work: about 5 ms on the machine above."""
    pts = set()
    for x in range(24):
        for y in range(24):
            for z in range(12):
                if all(a * x + b * y + c * z <= d for a, b, c, d in _PLANES):
                    pts.add((x, y, z))
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 2 * i + 1)
    return len(pts) + acc.denominator % 7


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Factor from seconds measured while the kernel times `samples`
    were taken to seconds at the quiet speed (the median of two is their
    mean)."""
    return REFERENCE_S / statistics.median(samples)
