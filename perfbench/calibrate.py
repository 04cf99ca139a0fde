"""Host-speed calibration: a fixed loop of exact arithmetic, timed at
regular intervals while an operation runs.

The benchmark shares a few cores of a host with other machines, and the
speed it gets drifts by up to half over minutes while its own CPU time
stays equal to its wall time.  The loop below does the kind of work
permfiber does (sparse fraction-free elimination over the integers,
``Fraction`` sums, sorting tuples) but is the benchmark's own code, so a
change to the program leaves it alone.  ``Sampler`` runs it from a
timer signal every ``PERIOD_S`` of wall time inside the operation's
process, so its samples cover the whole operation, long or short; the
time they take is left out of the operation's wall time.  ``factor``
scales a run's times to the speed at which the loop takes
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction
from itertools import permutations
from math import gcd

# The loop's mean time on a calm 2-vCPU Intel Xeon host under CPython 3.11.
REFERENCE_S = 0.004
PERIOD_S = 0.2
EXPECTED = (40, 381, 120)


def loop() -> tuple:
    """One pass of the calibration work; returns a fixed checksum."""
    rng = random.Random(12345)
    n = 40
    pending = []
    for _ in range(n):
        row = {}
        for _ in range(6):
            row[rng.randrange(n)] = rng.choice((-2, -1, 1, 1, 2, 3))
        pending.append(row)
    rank = 0
    while pending:
        pivot = min(pending, key=len)
        pending.remove(pivot)
        col = min(pivot)
        p = pivot[col]
        rank += 1
        rest = []
        for row in pending:
            a = row.get(col)
            if a is None:
                rest.append(row)
                continue
            new = {c: v * p for c, v in row.items()}
            for c, v in pivot.items():
                x = new.get(c, 0) - a * v
                if x:
                    new[c] = x
                else:
                    new.pop(c, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                rest.append({c: v // g for c, v in new.items()} if g > 1 else new)
        pending = rest
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k % 7 - 3, k)
    words = sorted(tuple(sorted(w)) for w in permutations(range(5)))
    return rank, total.numerator % 1000, len(words)


class Sampler:
    """Times ``loop`` every ``PERIOD_S`` of wall time between ``start``
    and ``stop``; ``spent_s`` is the time the samples took in all."""

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0
        self.wrong: tuple | None = None
        loop()                          # warm up, untimed

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        result = loop()
        self.samples.append(time.perf_counter() - start)
        if result != EXPECTED:
            self.wrong = result
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(samples) -> float:
    """Multiply a time measured alongside ``samples`` by this to get
    the time at the reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
