"""Machine-speed calibration for the end-to-end timings.

On the shared 2-vCPU machine the benchmark was built on, the same Python
code ran up to 1.6 times faster or slower from one minute to the next, and
process CPU time moved with wall time, so neither clock alone could tell a
slower program from a slower machine. The runner therefore times a fixed
reference loop, which uses nothing of monowit, at op boundaries: before
the first op, then whenever the ops since the last reference time have
taken ``SEGMENT_S``, at the end of every pass and after every set-up. Each
op of such a segment is scaled by

    REFERENCE_S / (mean of the reference times just before and after it)

The scaled timings are seconds at the speed at which the reference loop
takes ``REFERENCE_S``. A change to monowit moves them as it moves raw
seconds; a change in machine speed that the loop sees cancels out. The
report line keeps the raw timings and the reference times next to them.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the reference loop's median time on the 2-vCPU build machine in
# its fastest phases (2.1 ms; 3.4-4 ms in slow ones); a fixed constant, so
# scaled timings compare across runs and commits.
REFERENCE_S = 0.002
SEGMENT_S = 0.5
_REPEATS = 15


def _reference_loop():
    """The kind of work monowit does, in plain Python: exact Fraction
    arithmetic and comparisons, and dicts keyed by tuples of Fractions."""
    table = {}
    total = Fraction(0)
    for i in range(1, 300):
        f = Fraction(i, i + 7)
        total += f * f
        table[(i % 17, f)] = total < 3
    return len(table)


def reference_time() -> float:
    """Median seconds of the reference loop now, garbage collection off so
    the size of the program's own heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Calibration:
    """The reference times of one run, with the seconds spent taking them."""

    def __init__(self):
        self.refs = []
        self.spent = 0.0
        self.take()

    def take(self) -> float:
        t0 = time.perf_counter()
        ref = reference_time()
        self.spent += time.perf_counter() - t0
        self.refs.append(ref)
        return ref

    def close_segment(self, n_ops) -> list:
        """Scale factors for the last ``n_ops`` ops, from the reference
        times before and after them."""
        before = self.refs[-1]
        factor = REFERENCE_S * 2 / (before + self.take())
        return [factor] * n_ops
