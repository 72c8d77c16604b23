"""A fixed pure-Python kernel that gauges how fast the shared machine runs.

On a shared 2-vCPU virtual machine the solver's speed drifts by up to 30%
between runs a few minutes apart, with no CPU steal. The kernel's time
drifts with it, though not fully, so the benchmark scales its timings by the
kernel's speed in the same run, as SPEC scores scale by a reference machine.
The measured timings stay in each run's detail record.

The kernel does what ``Coverage.value`` does, on data of its own: frozensets
of string ids, set unions, and sorted sums of dict lookups. It never touches
``nswfair`` and runs with the garbage collector off, so neither the solver's
code nor the size of its heap moves it. The closed loop runs it between ops,
outside their timing, for about 5% of the run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

_rng = random.Random(0)
_ITEMS = [f"i{k}" for k in range(120)]
_ELEMENTS = [f"e{k}" for k in range(200)]
_COVERS = {i: frozenset(_rng.sample(_ELEMENTS, 8)) for i in _ITEMS}
_WEIGHTS = {e: _rng.random() for e in _ELEMENTS}
_BUNDLES = [frozenset(_rng.sample(_ITEMS, 10)) for _ in range(1800)]

SHARE = 0.05  # of the run's elapsed time spent in the kernel
REFERENCE_S = 0.040  # the kernel's time at the reference speed; scaled timings are at that speed


def kernel_s() -> float:
    """Seconds one run of the kernel takes."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        for bundle in _BUNDLES:
            covered: set = set()
            for j in sorted(bundle):
                covered |= _COVERS[j]
            total += sum(_WEIGHTS[e] for e in sorted(covered))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def spot_scale(samples: int = 5) -> float:
    """The scale from a few kernel runs taken now, for a timing just made."""
    return REFERENCE_S / statistics.median(kernel_s() for _ in range(samples))


class Gauge:
    """Kernel timings taken between ops, keeping the kernel at ``SHARE`` of
    the time elapsed since the gauge was made."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.start = time.perf_counter()

    def between_ops(self) -> None:
        spent = sum(self.samples)
        while not self.samples or spent < SHARE * (time.perf_counter() - self.start):
            self.samples.append(kernel_s())
            spent += self.samples[-1]

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        reference speed; divide a rate by it."""
        return REFERENCE_S / self.median()
