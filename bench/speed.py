"""Timing at a reference speed.

The benchmark runs on shared virtual machines whose CPU speed swings by up to
a factor of two within a second, which moves raw wall times by far more than
any bound worth enforcing.  ``Speedometer`` therefore samples the current
speed with a fixed pure-Python probe after every timed section and, while
ticking, every ``TICK_S`` seconds inside it (from a SIGALRM handler, between
bytecodes).  A section's reference time is its raw time, less the probes run
inside it, scaled by ``PROBE_REF_S`` over the mean probe time within
``WINDOW_S`` of the section: the time the section would take on a host where
the probe takes ``PROBE_REF_S``, about the unloaded speed of the 2-vCPU
2.0 GHz Xeon VM the baseline in README.md was measured on.  The mean
of probe times, not of probe speeds, is the unbiased estimate when the host
takes the CPU away in slices: a short probe usually fits between two slices,
and the few it straddles carry the lost time.  The probe is benchmark code,
so a change to the program does not move it.
"""

import bisect
import signal
import statistics
import time

PROBE_REF_S = 1e-3
TICK_S = 0.025
WINDOW_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed mix of integer, tuple and dict operations."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        key = (i & 63, i % 7)
        acc += table.get(key, i) * 3 % 11
        table[key] = acc
    return time.perf_counter() - start


class Speedometer:
    def __init__(self, tick: bool):
        self.stamps: list[float] = []  # when each probe started
        self.probes: list[float] = []  # how long it took
        self.spent = 0.0
        self.sections: list[tuple[float, float, float]] = []  # start, end, raw seconds
        self._edge_sample()
        if tick:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _sample(self) -> None:
        self.stamps.append(time.perf_counter())
        t = probe()
        self.probes.append(t)
        self.spent += t

    def _edge_sample(self) -> None:
        # a tick must not land inside this probe; it is delivered just after
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def timed(self, fn):
        """Run ``fn`` and return (its result, raw seconds less probes)."""
        spent = self.spent
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        raw = end - start - (self.spent - spent)
        self._edge_sample()
        self.sections.append((start, end, raw))
        return out, raw

    def reference_times(self) -> list[float]:
        """Reference seconds of every timed section, in order; call after
        the last section so that each has its trailing probes."""
        out = []
        for start, end, raw in self.sections:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
            out.append(raw * PROBE_REF_S / statistics.fmean(self.probes[lo:hi]))
        return out
