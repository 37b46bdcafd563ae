"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same code runs up to half again slower or faster
from one stretch of seconds to the next, and CPU time tracks wall time,
so neither says how much of a change in a timing is the program's. The
benchmark therefore times a fixed kernel next to the calls it measures
and rescales their wall times to what they would have been at the
reference speed.

The kernel works on audio-sized arrays the way pitchlab's paths do,
without calling pitchlab, so a change to pitchlab cannot move it:
whole-buffer arithmetic and a sort over 4 s of 44.1 kHz samples, and
Hann-windowed 16384-point rFFTs across the same buffer. Whole-buffer
work was chosen because its speed followed the estimate path's speed
most closely on the host the benchmark was tuned on; the speed of
Python loops over tiny arrays swung much more widely than pitchlab's.
The kernel is frozen: changing it or REFERENCE_KERNEL_S changes every
rescaled timing.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

FRAME = 16384
SAMPLE_RATE = 44100
# Median kernel time on the machine the benchmark was tuned on, a 2-core
# Intel Xeon VM at 2.0 GHz. Rescaled timings are stated at this speed.
REFERENCE_KERNEL_S = 0.015

_BUFFER = np.random.default_rng(12345).standard_normal(4 * SAMPLE_RATE)
_WINDOW = np.hanning(FRAME)


def kernel() -> float:
    """Run the reference kernel once; returns a checksum so no step is skipped."""
    total = 0.0
    for _ in range(4):
        total += float((_BUFFER * 1.5 + _BUFFER * _BUFFER).sum())
        total += float(np.sort(_BUFFER)[len(_BUFFER) // 2])
    for start in range(0, len(_BUFFER) - FRAME + 1, FRAME // 2):
        total += float(np.abs(np.fft.rfft(_BUFFER[start:start + FRAME] * _WINDOW)).max())
    return total


def probe(clock=time.perf_counter) -> float:
    """Seconds one kernel run takes on `clock`."""
    t0 = clock()
    kernel()
    return clock() - t0


class Speedometer:
    """Kernel times taken around timed calls, for one slowdown per run.

    `around(call)` runs the kernel `repeats` times after the call, and
    before it when nothing was sampled yet, and returns the call's result.
    With `background=True` the kernel also runs on a thread every
    `period` seconds during the call, timed on that thread's CPU clock,
    which leaves out the time the thread waits for a core. That is for
    calls that wait on worker processes and leave the calling thread
    idle. `slowdown()` is the median kernel time over the reference
    time: 1.0 at reference speed, above 1 when the machine is slower.
    A median over the whole run ignores the kernel runs that an
    interrupt or a brief burst of speed caught.
    """

    def __init__(self, background: bool = False, period: float = 0.5, repeats: int = 3):
        self.background = background
        self.period = period
        self.repeats = repeats
        self.times: list[float] = []

    def sample(self):
        self.times.extend(probe() for _ in range(self.repeats))

    def around(self, call):
        if not self.times:
            self.sample()
        stop = threading.Event()
        thread = None
        if self.background:
            def sample_during():
                while not stop.wait(self.period):
                    self.times.append(probe(time.thread_time))
            thread = threading.Thread(target=sample_during, daemon=True)
            thread.start()
        try:
            result = call()
        finally:
            stop.set()
            if thread is not None:
                thread.join()
        self.sample()
        return result

    def slowdown(self) -> float:
        return statistics.median(self.times) / REFERENCE_KERNEL_S
