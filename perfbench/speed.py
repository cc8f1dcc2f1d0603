"""Scaling of measured CPU times to a reference machine speed.

On a shared virtual machine the CPU time of the same work moves with
contention on the host's cores: on a two-vCPU KVM guest (2.0 GHz) it varied
by up to 2x over minutes, for phases long enough to cover whole runs.  A
fixed pure-Python reference kernel, timed next to the operations it scales,
follows those phases; an operation's reported time is its CPU time x REF_NS /
(recent kernel CPU time).  Where the kernel takes REF_NS the factor is 1.  A
change to the program does not change the kernel, so it shows in full.

The speed also moves within seconds: over 30 s the median of nine kernel
runs ranged from 1.1 to 2.3 times REF_NS.  So an operation that takes
LONG_NS or more is followed by BRACKET kernel runs; when the operation
before it was long too, that one's runs come just before it, and the factor is
the median of the six.  For operations of 12 to 150 ms this cut the
interquartile range over median of their scaled times from 0.13-0.18 (a
median over the last second) to 0.07-0.12.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter, thread_time_ns

# Kernel CPU time on that guest in its quiet phases, in ns.
REF_NS = 350_000
REFRESH_S = 0.1
LONG_NS = 5_000_000
BRACKET = 3
WINDOW = 2 * BRACKET


def kernel() -> int:
    """Run the reference kernel once; return its CPU time in ns.

    Its mix mirrors the program's: float 2x2 products and angles, exact
    Fraction products, tuples and a dict.
    """
    t0 = thread_time_ns()
    m = (1.5, 0.25, -0.5, 0.75)
    seen = {}
    for i in range(150):
        a, b, c, d = m
        m = (a * 0.9 + b * 0.1, a * 0.2 + b * 0.8, c * 0.9 + d * 0.1, c * 0.2 + d * 0.8)
        seen[i & 15] = math.atan2(c * math.cos(a) + d, a * math.sin(b) + b)
    f = (Fraction(3, 7), Fraction(1, 5), Fraction(-2, 9), Fraction(5, 11))
    g = f
    for _ in range(12):
        a, b, c, d = g
        e, h, k, n = f
        g = (a * e + b * k, a * h + b * n, c * e + d * k, c * h + d * n)
    return thread_time_ns() - t0


class Speed:
    """REF_NS over the median kernel time of the last WINDOW kernel runs.

    Call factor() just after each operation, with its CPU time.  Shorter
    operations share kernel runs, one every REFRESH_S, which costs under 1%
    of the time; the median over the last WINDOW keeps sub-millisecond jitter
    out of the factor.
    """

    def __init__(self):
        self.times: list[int] = []
        self.stamp = -math.inf

    def factor(self, op_ns: int = 0) -> float:
        if op_ns >= LONG_NS:
            runs = BRACKET
        else:
            runs = 1 if perf_counter() - self.stamp > REFRESH_S else 0
        if runs:
            self.times = (self.times + [kernel() for _ in range(runs)])[-WINDOW:]
            self.stamp = perf_counter()
        return REF_NS / statistics.median(self.times)
