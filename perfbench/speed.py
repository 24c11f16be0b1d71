"""The machine's current speed, from a fixed piece of work timed next to each
measured one.

On a shared virtual machine the CPU speed can swing by 2x over seconds to
minutes, and every timing swings with it. Each timed interval of the
benchmark is therefore bracketed by two runs of ``yardstick``, and reported
as ``seconds * NOMINAL_S / yardstick seconds``: its time at the speed at
which the yardstick takes ``NOMINAL_S``. A change to the program moves the
reported time as it moves the raw time, since the yardstick does not call
the program.

The yardstick does what a DGS step does, in the same proportions as the
benchmark's workloads: Python-level loops over tiny numpy arrays, with a
batch of trigonometry on a few thousand points every tenth round.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# The yardstick's median time on a 2-vCPU Intel Xeon VM, python 3.11, numpy 2.
NOMINAL_S = 0.025
ROUNDS = 1300

_SMALL = np.random.default_rng(0).standard_normal(5)
_BATCH = np.random.default_rng(1).standard_normal((20, 200))


def yardstick() -> float:
    """Seconds the fixed piece of work takes now."""
    acc = 0.0
    start = perf_counter()
    for i in range(ROUNDS):
        y = _SMALL * 0.5 + 1.0
        acc += float(np.sum(np.sin(y)))
        for k in range(5):
            acc += float(y[k]) * 1e-9
        if i % 10 == 0:
            acc += float(np.cos(_BATCH * 1.3).sum())
    elapsed = perf_counter() - start
    if acc != acc:  # keeps the work from being dead code; never true
        raise ArithmeticError("yardstick produced NaN")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two yardsticks to the
    nominal speed."""
    return NOMINAL_S / (0.5 * (before + after))
