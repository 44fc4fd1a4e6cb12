"""Host speed probe.

Shared hosts drift in speed by tens of percent over seconds to minutes,
slowing the program and other code in roughly the same proportion (not
exactly: the scaled figures still spread, only less). While a `HostProbe`
is active, a SIGALRM handler times a small fixed kernel every PERIOD_S
seconds, between the program's own bytecodes. A command's time divided by
the mean kernel time over the command, times KERNEL_S, is the time the
command would take at the speed where the kernel takes KERNEL_S.

The kernel uses numpy and Python much as the program does (Generator
draws, elementwise maths, a short Python loop) but none of its code, and
its own Generator, so the program's random streams are untouched.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
KERNEL_S = 0.0016   # about the kernel time on a 2.1 GHz Xeon vCPU, idle host


def _kernel(gen):
    acc = 0.0
    for _ in range(10):
        a = gen.standard_gamma(1.5, size=4000)
        b = gen.random(4000)
        acc += float(np.log(a).sum() + np.exp(-b * a).sum())
        for j in range(40):
            acc += j * 0.5
    return acc


def kernel_seconds(repeats=5):
    """Median time of `repeats` runs of the kernel, probe not running."""
    gen = np.random.Generator(np.random.PCG64(0))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel(gen)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostProbe:
    """Context manager that samples (start time, kernel seconds)."""

    def __init__(self):
        self.samples = []
        self._gen = np.random.Generator(np.random.PCG64(0))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel(self._gen)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0, t1):
        """(seconds between t0 and t1 minus the probe's own time, that time
        scaled to KERNEL_S speed, mean kernel time used)."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        near = inside or [d for s, d in self.samples if s < t1][-2:]
        kernel = sum(near) / len(near) if near else KERNEL_S
        net = (t1 - t0) - sum(inside)
        return net, net * KERNEL_S / kernel, kernel
