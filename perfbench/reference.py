"""The reference computation every verdict time is divided by.

The shared hosts this benchmark runs on change speed by up to a factor of
1.5 over tens of seconds to minutes, whatever the process does, so wall
times taken minutes apart do not compare.  A fixed computation timed right
before and right after each verdict slows down with the host and not with
the program: a verdict's wall time divided by the mean of the two is its
time in reference units (``ref``), which moves with the program only.

The reference multiplies two fixed bivariate polynomials with ``Fraction``
coefficients held in dicts, the kind of work tanvar's verdicts do, because
host contention slows that work more than it slows plain integer loops.  It
uses only the standard library and runs with the garbage collector paused,
so the library under test takes no part in it.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from fractions import Fraction

DEGREE = 5  # 21 terms a side, 441 products: about 2 ms under CPython 3.11

_P = {(i, j): Fraction((7 * i + 3 * j) % 19 - 9, (i + 2 * j) % 8 + 1)
      for i in range(DEGREE + 1) for j in range(DEGREE + 1 - i)}
_Q = {(i, j): Fraction((5 * i + 11 * j) % 17 - 8, (3 * i + j) % 7 + 1)
      for i in range(DEGREE + 1) for j in range(DEGREE + 1 - i)}


def _product() -> dict:
    out = {}
    for (a, b), c in _P.items():
        for (d, e), f in _Q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def reference_seconds() -> float:
    """Wall time of one reference product."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _product()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median(samples: int) -> float:
    return statistics.median(reference_seconds() for _ in range(samples))


def bracket(call, samples: int = 1):
    """(result of ``call()``, mean reference seconds around it).

    ``samples`` references on each side, their median taken, for calls so
    long and few that one reference's noise would show in the result.
    """
    before = reference_median(samples)
    out = call()
    after = reference_median(samples)
    return out, (before + after) / 2


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference
    runs where the verdicts and the child processes run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
