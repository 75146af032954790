"""The host's speed, measured alongside the workload.

The benchmark shares a few cores of a host whose speed drifts by as much as
2x, in stretches of seconds to minutes, for every kind of code at once (no
process of ours is waiting when it happens: CPU time drifts with wall
time).  So between verdicts the benchmark times a fixed reference, and
reports every timing twice: as measured, and scaled to a nominal host on
which the reference takes exactly its nominal time.  A change to ordq
moves the verdict times and not the reference's; a change in the host's
speed moves both, and cancels in the scaled figures.

There are two references, each for the work it tracks best:

- the kernel, for verdicts made in the benchmark's own process: pure
  Python of the same kind as ordq's hot paths (recursive tuple comparison
  and Cantor-normal-form arithmetic from gen.py's model, hereditarily
  finite sets as frozensets), run with the garbage collector off so that
  the size of ordq's heap does not show in it.  It never calls ordq;
- a bare interpreter start (``python3 -c pass``), for work done in fresh
  processes: ``ordq`` invocations and set-up.  Starting a process slows
  less than the kernel does on a slow stretch; an interpreter start slows
  like an ``ordq`` one.

The two vCPUs of such a host drift apart too: at one moment one of them
may run 1.8x faster than the other.  So the benchmark keeps itself and
every process it starts on one CPU (pin), where the references measure
the speed that its verdicts and its child processes get.
"""

from __future__ import annotations

import array
import contextlib
import gc
import os
import signal
import statistics
import subprocess
import sys
import time

import gen

perf = time.perf_counter

KERNEL_NOMINAL_S = 300e-6   # one kernel call on the nominal host
KERNEL_CALLS = 5            # kernel calls per reading; it is their median
KERNEL_EVERY_S = 0.05       # a reading every 50 ms of wall time ...
KERNEL_WINDOW_S = 0.15      # ... and one scale for each 0.15 busy seconds
START_NOMINAL_S = 0.05      # one bare interpreter start on the nominal host

_ORDINALS = [gen.random_ordinal(gen.random.Random(f"speed-{i}"), gen.BOUND_TOWER,
                                2, 1 + i % 6) for i in range(12)]
_SETS = gen.universe(3)


def kernel() -> int:
    acc, order = gen.ZERO, 0
    for a in _ORDINALS:
        for b in _ORDINALS[:4]:
            order += gen.cmp(a, b)
        acc = gen.add(acc, gen.mul(a, gen.OMEGA))
    text = gen.render(acc)
    sets = {frozenset((s, t)) for s in _SETS for t in _SETS}
    return order + len(text) + sum(len(gen.hf_text(s)) for s in sets)


def kernel_time() -> float:
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(KERNEL_CALLS):
            t0 = perf()
            kernel()
            times.append(perf() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def start_time() -> float:
    t0 = perf()
    subprocess.run([sys.executable, "-c", "pass"], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf() - t0


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speed:
    """Readings of one reference, and the scale they imply for the timings
    taken among them.

    A process start is read before every verdict made in a process, which
    takes about three of them, and scales that verdict alone (window 0).
    The kernel is read from a timer signal every KERNEL_EVERY_S of wall
    time, also in the middle of a verdict, so that a verdict lasting
    seconds is scaled by the speed during it; the readings of each
    KERNEL_WINDOW_S of verdicts scale them.  Each reading's own time is
    kept (ticks), so that net() can take it out of any timing."""

    def __init__(self, processes: bool):
        self.processes = processes
        self.nominal = START_NOMINAL_S if processes else KERNEL_NOMINAL_S
        self.window = 0.0 if processes else KERNEL_WINDOW_S
        self.readings = array.array("d")
        self.ticks: list = []       # (start, end) of each timer reading
        self.mark = 0

    def __enter__(self):
        if not self.processes:
            self.handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        return self

    def __exit__(self, *exc):
        if not self.processes:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.handler)

    @contextlib.contextmanager
    def paused(self):
        """No timer readings in here: for work that is not a verdict."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    def _tick(self, signum, frame) -> None:
        t0 = perf()
        self.readings.append(kernel_time())
        self.ticks.append((t0, perf()))

    def before_verdict(self) -> None:
        if self.processes:
            self.readings.append(start_time())

    def net(self, first_tick: int, t0: float, t1: float) -> float:
        """t1 - t0 less the readings taken in between; first_tick is the
        length of ticks at or before t0."""
        return t1 - t0 - sum(e - s for s, e in self.ticks[first_tick:] if s >= t0 and e <= t1)

    def scale(self) -> float:
        """Nominal over measured reference time, over the readings since the
        last call (taking one first if there are none)."""
        if self.mark == len(self.readings):
            self.readings.append(start_time() if self.processes else kernel_time())
        recent = self.readings[self.mark:]     # a tick may append meanwhile
        self.mark += len(recent)
        return self.nominal / statistics.median(recent)
