"""A fixed pure-Python kernel that measures the machine's current speed.

The shared 2-core host this benchmark was built on changes speed by a
quarter in stretches of one to five seconds, so a ten-second run sees
only a few of them and raw times spread by 10-20% from run to run.  The
worker runs this kernel before the first problem and after every
tenth of a second of solving; ``run.py`` divides each solve time by the
mean kernel time around it and multiplies by REFERENCE_S.  The kernel
shares no code with ``icis`` but does the same kind of work (dicts of
exponent tuples to Fractions, products and sums).  It runs with the
garbage collector off, so the library's gc settings and heap size do not
move it either; what the library can still move is shared with the
kernel only through the interpreter's allocator and the CPU caches.
"""

import gc
import time
from fractions import Fraction

# kernel seconds at the reference speed (one core of a 2.1 GHz Xeon VM)
REFERENCE_S = 0.006
# seconds of solving between two kernel runs
EVERY_S = 0.1


def _kernel():
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def calibrate():
    """Seconds the kernel takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
