"""Reference time: wall time scaled by the machine's speed of the moment.

The machine these figures come from is a shared 2-core VM whose speed
moves in phases: a fixed piece of Python takes 40 ms for tens of
seconds, then 58 ms for the next tens of seconds, as other tenants come
and go. A raw time then tells more about the phase than about the
program. A ``Calibrator`` measures the phase while the program runs: a
timer signal interrupts the run every ``INTERVAL_S`` and times a fixed
kernel of interpreter work (dict, integer and string operations). ``RefClock`` turns
those samples into a clock that runs at ``REF_KERNEL_S / kernel time``
of wall speed and stands still while the kernel runs, so a duration on
it is the time the work would take at the reference speed, with the
kernel's own time taken out. On this machine a reference second is
close to a wall second.

    cal = Calibrator()
    cal.start()
    ...                         # timestamps from calib.clock
    cal.stop()
    ref = cal.ref_clock()
    seconds = ref(t1) - ref(t0)
"""

from __future__ import annotations

import bisect
from array import array
import signal
import statistics
import time

clock = time.perf_counter

INTERVAL_S = 0.025
KERNEL_ROUNDS = 2000
# kernel time of the reference speed, near this machine's typical time
REF_KERNEL_S = 0.001
# samples on each side of the one whose speed is estimated
SMOOTH = 8
EDGE_SAMPLES = 5


def kernel() -> int:
    # Ints and strings only: the kernel creates no object that the
    # garbage collector tracks (a dict of ints stays untracked), so
    # sampling does not move the program's collections.
    d: dict = {}
    s = 0
    for i in range(KERNEL_ROUNDS):
        k = (i & 31) << 8 | i >> 3
        d[k] = d.get(k, 0) + i
        s += len(str(i))
        if k + 1 in d:
            s += 1
    return s + len(d)


class Calibrator:
    """Times the kernel every ``INTERVAL_S`` of wall time, from a
    SIGALRM handler, between ``start`` and ``stop``. A few samples are
    also taken at each end, so a short run still has some."""

    def __init__(self):
        # flat arrays, so taking a sample leaves no object behind for the
        # garbage collector to count
        self.starts = array("d")
        self.durations = array("d")
        self._old = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside the handler
            return
        self._busy = True
        t = clock()
        kernel()
        self.starts.append(t)
        self.durations.append(clock() - t)
        self._busy = False

    def _edge(self):
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def start(self):
        kernel()  # the first call warms the code up
        self._edge()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._edge()

    def ref_clock(self) -> "RefClock":
        return RefClock(list(zip(self.starts, self.durations)))


def reference_seconds(raw_s: float, samples: int = 10) -> float:
    """``raw_s`` scaled by the kernel's mean time over ``samples`` runs
    made now, for a span too short to sample from a timer."""
    cal = Calibrator()
    kernel()
    for _ in range(samples):
        cal._sample()
    return raw_s * REF_KERNEL_S / statistics.fmean(cal.durations)


class RefClock:
    """Maps a ``clock()`` reading to reference seconds.

    Between the end of sample j and the start of sample j+1 the clock
    runs at ``REF_KERNEL_S / k_j``, where k_j is the mean kernel time of
    samples j-SMOOTH .. j+SMOOTH; during a sample it stands still.
    Before the first and after the last sample it runs at the nearest
    rate."""

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise ValueError("no calibration samples")
        samples = sorted(samples)
        durs = [d for _, d in samples]
        n = len(samples)
        self.rates = [
            REF_KERNEL_S / statistics.fmean(durs[max(0, j - SMOOTH): j + SMOOTH + 1])
            for j in range(n)
        ]
        # breakpoints (raw, ref): the start and end of every sample
        self.raw: list[float] = []
        self.ref: list[float] = []
        ref = 0.0
        for j, (t, d) in enumerate(samples):
            if self.raw:
                ref += max(0.0, t - self.raw[-1]) * self.rates[j - 1]
            self.raw += [t, t + d]
            self.ref += [ref, ref]
        self.kernel_s = statistics.median(durs)

    def __call__(self, t: float) -> float:
        raw, ref = self.raw, self.ref
        if t <= raw[0]:
            return ref[0] - (raw[0] - t) * self.rates[0]
        if t >= raw[-1]:
            return ref[-1] + (t - raw[-1]) * self.rates[-1]
        i = bisect.bisect_right(raw, t) - 1
        if raw[i + 1] == raw[i]:
            return ref[i]
        return ref[i] + (t - raw[i]) / (raw[i + 1] - raw[i]) * (ref[i + 1] - ref[i])
