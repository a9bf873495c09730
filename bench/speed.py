"""Machine-speed probe that rescales measured times to a reference speed.

On a shared 2-CPU machine the speed of one core drifts by tens of percent
within seconds, because of work that neighbours run on the same hardware.
The same engine suite took 0.45 s in one 13-second window and 0.76 s in
another.  Medians over a run do not remove a drift that lasts that long.

The probe times a fixed piece of pure-Python work (Fraction arithmetic into
a dict, like the engine's inner loops, but no engine code) every
`INTERVAL_S` from a SIGALRM handler, in the measured process itself.  Engine
time and probe time rise and fall together (correlation 0.83 over 8-suite
windows of the null-plane N=3 suite), but the engine moves less: as the
probe time to the power `ELASTICITY`.  A fit over those windows gave 0.69,
and the spread of the benchmark's own runs was least between 0.7 and 0.8.

The probes split the run into slots of `INTERVAL_S`.  Engine time inside
a slot, its length less the probe's own time, is scaled by

    (REFERENCE_S / median probe time within WINDOW_S of the slot) ** ELASTICITY

and a measured interval is reported as the sum of its scaled slots.  The
result is in seconds at the reference speed: about the seconds the interval
would have taken had every probe taken exactly REFERENCE_S.  Intervals add
up (the mutants' times sum to at most the sweep's), and engine changes do
not move the probe, so they show in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
PROBE_STEPS = 200
# About the probe's time on a quiet 2.1 GHz Xeon core under Python 3.11.
# Any fixed value would do: it only sets the unit of the scaled times.
REFERENCE_S = 0.0012
WINDOW_S = 1.0
ELASTICITY = 0.75


def _probe_work():
    acc = {}
    for i in range(PROBE_STEPS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []
        self.factors = []  # reference over local speed, per slot
        self._clock = []  # scaled engine time at each probe start
        self._running = False

    def _handler(self, signum, frame):
        if self._running:  # a late alarm inside a probe; starts stay sorted
            return
        self._running = True
        t0 = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._running = False

    def start(self):
        self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        lo = hi = 0
        for t in self.starts:
            while self.starts[lo] < t - WINDOW_S:
                lo += 1
            while hi < len(self.starts) and self.starts[hi] <= t + WINDOW_S:
                hi += 1
            local = statistics.median(self.durations[lo:hi])
            self.factors.append((REFERENCE_S / local) ** ELASTICITY)
        self._clock = [0.0]
        for k in range(len(self.starts) - 1):
            engine = self.starts[k + 1] - self.starts[k] - self.durations[k]
            self._clock.append(self._clock[-1] + engine * self.factors[k])

    def _scaled(self, t):
        """Scaled engine time from the first probe to t."""
        k = max(0, bisect.bisect_right(self.starts, t) - 1)
        since = t - self.starts[k]
        if since > 0:
            since = max(0.0, since - self.durations[k])
        return self._clock[k] + since * self.factors[k]

    def seconds(self, a, b):
        """The interval [a, b] of perf_counter time, at the reference speed."""
        return self._scaled(b) - self._scaled(a)

    def raw_seconds(self, a, b):
        """The interval [a, b] without the probes inside it, unscaled."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return (b - a) - sum(self.durations[lo:hi])
