"""Machine-speed probe: a fixed pure-Python loop, timed.

The benchmark shares its machine with other work, which slows the interpreter
by up to a fifth for minutes at a time. Each timed unit is bracketed by this
probe, and the unit's time is rescaled to a probe time of ``NOMINAL_S``, so a
slowdown that hits both cancels. The probe does not touch the package, so a
change to the package moves the rescaled time in full.
"""
import math
import time

NOMINAL_S = 0.020
ITERATIONS = 24_000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Seconds the fixed loop takes now: attribute access, float math, dict updates."""
    t0 = time.perf_counter()
    acc = {}
    x = 1.0
    for i in range(ITERATIONS):
        p = _Point(x, i)
        x = math.sqrt(p.a * 1.0001 + p.b)
        k = i & 63
        acc[k] = acc.get(k, 0.0) + x
    return time.perf_counter() - t0
