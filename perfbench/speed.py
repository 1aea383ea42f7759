"""Machine-speed sampler of a benchmark worker.

The benchmark shares a few cores of a host with other tenants.  There the
speed of the same Python code drifts by up to 1.5x from one second to the
next (clock changes, contention for the core), in CPU time as much as in wall
time, so raw times of identical runs spread by 20-30%.

Each worker process therefore starts a `Sampler` before it imports the
program: a thread that every PERIOD_S times one fixed piece of standard-library
work (exact `Fraction` sums and dict updates, the mix the program itself runs).
The samples are taken while the worker works, so they see the speed the work
saw.  `factor()` turns them into the worker's scale: REFERENCE_NS over their
trimmed mean.  run.py multiplies the worker's times by it, which gives them in
seconds at the reference speed: a change of the program shows, a change of the
machine's speed mostly cancels.  Sampling costs the worker about 5% of its time.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

# The chunk's time at the reference speed: its typical time on the reference
# machine (2-vCPU Xeon VM, Python 3.11).  Only fixes the unit of scaled times.
REFERENCE_NS = 1_100_000
PERIOD_S = 0.02
MIN_SAMPLES = 20
TRIM = 0.1  # share of samples dropped at each end before averaging


def chunk_ns() -> int:
    """Time one fixed piece of work, about 1 ms: short enough that the
    worker's thread rarely takes the interpreter lock back in the middle."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 250):
        total += Fraction(i % 7 + 1, i)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter_ns() - start


class Sampler:
    def __init__(self) -> None:
        self.samples: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(chunk_ns())

    def stop(self) -> int:
        """Stop sampling; a worker too short for MIN_SAMPLES takes the rest
        now, right after its work.  Returns the time spent topping up."""
        self._stop.set()
        self._thread.join()
        start = time.perf_counter_ns()
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(chunk_ns())
        return time.perf_counter_ns() - start


def factor(samples: list[int]) -> float:
    """REFERENCE_NS over the trimmed mean of the samples.  A mean, not a
    median, because a worker's time is the sum over its slow and fast spells."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut : len(ordered) - cut]
    return REFERENCE_NS * len(kept) / sum(kept)
