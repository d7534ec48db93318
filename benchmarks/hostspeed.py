"""Host speed, read off a fixed calibration chunk timed next to the jobs.

On a shared host the speed of the CPU a worker gets drifts by tens of
percent over seconds to minutes, and it drifts for the job and for any other
code alike.  So the benchmark times a fixed chunk of pure-Python work
(`chunk`) before every job and after the last one, and reports each time
scaled to a reference speed:

    reported = measured * REF_CHUNK_S / (time of the calibration chunks next to it)

A reported time is what the measured work would take on a host where one
chunk takes REF_CHUNK_S seconds.  The chunk is part of the benchmark, not of
the program, so a change to the program moves only the measured time.

The chunk mixes what the package spends its time on: Fraction and big-integer
arithmetic, modular powers, dict and list traffic, sorting and JSON output.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# Seconds one chunk took on the 2-vCPU Xeon VM the baseline was measured on,
# at the median of its speed; it only sets the scale of reported times.
REF_CHUNK_S = 0.02


def chunk() -> int:
    acc, table, xs = Fraction(0), {}, []
    for i in range(1, 1600):
        acc += Fraction(i % 97, i + 3)
        table[i * 7919 % 10007] = pow(i, 65537, 1000003)
        xs.append(i * 2654435761 % 4294967291)
    xs.sort()
    text = json.dumps([{"i": i, "v": table.get(i, 0)} for i in range(0, 10007, 5)], indent=2)
    return acc.numerator % 7 + len(text) + xs[0]


def time_chunk() -> float:
    """Seconds one calibration chunk takes now."""
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0
