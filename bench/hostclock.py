"""Host-speed correction for the benchmark's timings.

The benchmark's host is shared: other tenants' load moves the speed at
which it runs pure-Python code between about 0.6 and 1.0 of its best,
within seconds and between runs minutes apart. ``time.process_time``
tracks wall time exactly through these swings, so it is the CPU that is
slower, not the process that waits. Medians over one run cannot remove
this: whole runs land in slower or faster stretches.

So every timed stretch of work is bracketed by two reference readings,
and its wall time is scaled by ``REF_NS`` over the mean of the two. A
reading is the fastest of ``REF_RUNS`` runs of a fixed routine (dict
inserts and a sort, pure Python, about half a millisecond each): a run
that the scheduler interrupts reads slow, and taking the fastest drops
it. A corrected figure reads as the time the work would take at the
speed at which the routine takes ``REF_NS``. The routine runs with the
garbage collector off, so the package's heap does not move it; a change
to the package moves the work's time and not the reference's. The
correction is not exact; ``bench/README.md`` gives how far it goes.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

# About the routine's time on the 2-core development host at its best
# speed, so corrected figures read close to that host's unloaded wall
# time. Any constant would do: comparisons are between corrected figures.
REF_NS = 400_000
REF_RUNS = 4


def _order(item: tuple[str, int]) -> int:
    return item[1] % 7


def _routine_ns() -> int:
    t0 = perf_counter_ns()
    table = {}
    for i in range(1000):
        table["k%d" % i] = i
    sorted(table.items(), key=_order)
    return perf_counter_ns() - t0


def reference_ns() -> int:
    """Take one reference reading: the fastest of REF_RUNS runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_routine_ns() for _ in range(REF_RUNS))
    finally:
        if enabled:
            gc.enable()


def factor(first: int, second: int) -> float:
    """Correction factor of a stretch between two readings (1.0 at the
    reference speed)."""
    return 2 * REF_NS / (first + second)


class Stopwatch:
    """Corrected time of work done in stretches between reference readings.

    Creating one takes a reference reading; each :meth:`split` closes the
    stretch since the last reading, takes another, and returns the
    stretch's correction factor (1.0 at the reference speed).
    """

    def __init__(self) -> None:
        self.ns = 0.0  # corrected time of the closed stretches
        self.refs: list[int] = []
        self._ref = reference_ns()
        self._start = perf_counter_ns()

    def split(self) -> float:
        elapsed = perf_counter_ns() - self._start
        ref = reference_ns()
        scale = factor(self._ref, ref)
        self.refs.append(ref)
        self._ref = ref
        self.ns += elapsed * scale
        self._start = perf_counter_ns()
        return scale

    @property
    def s(self) -> float:
        return self.ns / 1e9

    def speed(self) -> float:
        """The host's speed over the stretches, as REF_NS over the mean
        reading (1.0 = the reference speed)."""
        return REF_NS * len(self.refs) / sum(self.refs) if self.refs else 1.0
