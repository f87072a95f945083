"""Host-speed calibration for the benchmark's timings.

The speed of a shared host drifts by tens of percent within a minute, and
every op slows with it.  So each time is also taken next to a fixed
calibration task, and reported times are scaled to a host on which that
task takes its reference time: time * reference / calibration.  The task
does not touch nodalcount, so no change to the program can move it.

Interpreter start-up does not slow like computation when the host slows.
So the ops that are child processes also take a spawned sample: a fresh
interpreter that runs this file, which imports the standard modules the
nodalcount CLI imports, runs the task once and exits.  Its reference time
is SPAWNED_REFERENCE_S.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
SPAWNED_REFERENCE_S = 0.070


def task() -> float:
    """Seconds taken by a fixed piece of pure-Python work: small exact
    rationals, tuples and dict stores, the program's own kind of work."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(5000):
        total += Fraction(i % 7, i % 11 + 1)
        table[i % 97, i % 13] = total.numerator % 1000
    return time.perf_counter() - start


def median(samples: int = 3) -> float:
    return statistics.median(task() for _ in range(samples))


if __name__ == "__main__":
    import argparse, dataclasses, importlib.resources, itertools, json, re  # noqa: F401, E401

    task()
