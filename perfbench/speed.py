"""Machine-speed reference for the benchmark's wall-clock times.

On a shared virtual machine the same Python code runs up to 1.8x slower for
stretches of seconds to minutes, and the process's CPU time grows with its
wall time, so the slowdown is in the processor, not in waiting.  Raw times
of two runs of identical code can then differ by more than a real change
would.  The benchmark therefore samples a fixed pure-Python kernel, which
shares no code with bergeham, every 100 ms while it measures, from a SIGALRM
handler, so samples land inside long calls too.  Times are reported at
reference speed: the speed at which the kernel takes REF_NS.  An interval's
factor is REF_NS over the mean of the samples taken during it and the one
just before and just after it.  The samples' own time is taken out of the
intervals they fall in.  A change to bergeham cannot change the kernel, so
scaled times compare two versions of the program the way raw times would on
a quiet machine.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from time import perf_counter_ns

REF_NS = 1_000_000  # the kernel's time at reference speed
PERIOD_S = 0.1  # one sample per 100 ms
SAMPLE_RUNS = 2  # a sample is the fastest of this many kernel runs


def kernel() -> int:
    """Interpreter work like bergeham's: loops, tuples, dicts, sets, bit ops."""
    seen, table, acc = set(), {}, 0
    for subset in combinations(range(14), 4):
        mask = 0
        for v in subset:
            mask |= 1 << v
        table[mask & 1023] = table.get(mask & 1023, 0) + 1
        if mask % 7 not in seen:
            seen.add(mask % 7)
        acc += mask.bit_count()
    return acc + len(table)


def kernel_ns(runs: int = 3) -> float:
    """The median time of `runs` kernel runs, in ns."""
    times = []
    for _ in range(runs):
        t = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - t)
    return statistics.median(times)


class SpeedProbe:
    """Kernel samples taken every PERIOD_S while the probe is entered."""

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.refs: list[int] = []
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter_ns()
        best = None
        for _ in range(SAMPLE_RUNS):
            t = perf_counter_ns()
            kernel()
            took = perf_counter_ns() - t
            best = took if best is None else min(best, took)
        self.starts.append(start)
        self.ends.append(perf_counter_ns())
        self.refs.append(best)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()
        return False

    def busy_ns(self, start_ns: int, end_ns: int) -> int:
        """Time the samples themselves took within [start_ns, end_ns]."""
        i = bisect_left(self.ends, start_ns)
        busy = 0
        while i < len(self.starts) and self.starts[i] < end_ns:
            busy += min(self.ends[i], end_ns) - max(self.starts[i], start_ns)
            i += 1
        return busy

    def factor(self, start_ns: int, end_ns: int) -> float:
        """REF_NS over the mean kernel time of the samples in the interval
        and the nearest one on each side."""
        lo = max(bisect_right(self.starts, start_ns) - 1, 0)
        hi = bisect_left(self.starts, end_ns) + 1
        return REF_NS / statistics.fmean(self.refs[lo:hi])
