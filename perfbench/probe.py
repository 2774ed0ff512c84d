"""The work CPU's speed, moment by moment, and seconds at reference speed.

On the reference host (2 vCPUs) each vCPU switches every few seconds
between a fast state and one about 1.6x slower, and the host also goes
through slower and faster phases lasting minutes.  A pass timed on the
plain wall clock carries whatever share of slow seconds it happened to
hit: runs of the same code spread by 20-30%.

``run.py`` pins itself, and so every process it starts, to one CPU.  This
probe runs there too.  Every ``PERIOD_S`` it times two back-to-back calls
of :func:`reference_work`, a fixed piece of pure-Python work shaped like
the program's (slotted objects, method calls, float math, dict and list
traffic), on its own thread's CPU clock.  Time spent waiting while the
measured work holds the CPU does not count, so each sample is the CPU's
speed at that moment.  The first call meets caches the measured work has
just filled and the second finds its own data warm; the pair slows down
about as much as the program does (a single warm call slows more, a
single cold one less).  :func:`reference_seconds` then weighs each moment
of an interval by that speed, ``REFERENCE_S / sample``: the interval's
length had the CPU run at the reference speed throughout.

The probe uses about 1.5% of the CPU.  It prints ``READY`` after its first
sample and writes its samples as JSON when it gets SIGTERM, or when the
process that started it has gone::

    python3 perfbench/probe.py --out SAMPLES.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: How often the probe samples the CPU's speed.
PERIOD_S = 0.02
#: CPU seconds one sample (two calls of :func:`reference_work`) takes at
#: the reference speed: the fast state of the reference host (a 2.0 GHz
#: Xeon vCPU; the slow state reads about 0.0004).  Only a unit: it scales
#: every reference-speed figure alike.
REFERENCE_S = 0.000250
#: Samples in the running median that smooths the probe's own jitter; the
#: host's states last seconds, far longer than this window (0.1 s).
SMOOTHING = 5

Sample = Tuple[float, float]


class _Point:
    __slots__ = ("x", "y", "heading")

    def __init__(self, x: float, y: float, heading: float) -> None:
        self.x = x
        self.y = y
        self.heading = heading

    def advance(self, step: float) -> "_Point":
        return _Point(self.x + step * math.cos(self.heading),
                      self.y + step * math.sin(self.heading), self.heading)

    def gap(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def reference_work() -> float:
    """Fixed pure-Python work; never change it, it defines the unit."""
    points = [_Point(i * 0.5, i * 0.25, i * 0.1) for i in range(24)]
    table = {}
    total = 0.0
    for step in range(4):
        moved = [p.advance(0.1 * step) for p in points]
        for i, point in enumerate(moved):
            gap = point.gap(moved[i - 1])
            table[(step, i)] = gap
            total += gap if gap < 5.0 else -gap
        points = moved
    return total + len(table)


def smoothed(costs: Sequence[float]) -> List[float]:
    """Running median of ``SMOOTHING`` samples (shorter at the ends)."""
    half = SMOOTHING // 2
    return [statistics.median(costs[max(0, k - half):k + half + 1])
            for k in range(len(costs))]


def reference_seconds(samples: Sequence[Sample], start: float, end: float) -> float:
    """``end - start`` (``time.monotonic`` stamps) at the reference speed.

    Each sample stands for the moments nearer to it than to its
    neighbours; the first and last stand for everything before and after.
    """
    if not samples:
        raise ValueError("the speed probe took no samples")
    times = [at for at, _ in samples]
    costs = smoothed([cost for _, cost in samples])
    total = 0.0
    for k, cost in enumerate(costs):
        low = (times[k - 1] + times[k]) / 2 if k else -math.inf
        high = (times[k] + times[k + 1]) / 2 if k + 1 < len(times) else math.inf
        overlap = min(high, end) - max(low, start)
        if overlap > 0:
            total += overlap * REFERENCE_S / cost
    return total


def speed(samples: Sequence[Sample], start: float, end: float) -> float:
    """Mean speed over ``[start, end]`` as a share of the reference speed."""
    return reference_seconds(samples, start, end) / (end - start)


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    parent = os.getppid()
    samples: List[Sample] = []
    while not stopping and os.getppid() == parent:
        at = time.monotonic()
        started = time.thread_time()
        reference_work()
        reference_work()
        samples.append((at, time.thread_time() - started))
        if len(samples) == 1:
            print("READY", flush=True)
        time.sleep(PERIOD_S)
    args.out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
