"""Host speed probe: times measured on a host whose speed drifts, scaled to a fixed speed.

On a shared virtual machine the speed of the CPU moves by ±25 % and more
within seconds, so the same pass takes 10 s in one minute and 14 s in the
next, and no run of a few tens of seconds averages that out.  The probe
runs a short, fixed piece of pure-Python work (a sparse polynomial product
over exponent tuples, like the engine's inner loop) from a timer signal
every PERIOD seconds while the workload runs, and records how long each
burst took.  Its clock runs at reference speed: the bursts' own time is
left out, and each stretch between two bursts counts REF_BURST_S / (time
of the burst before it) times its length.  A time on that clock is the
time the work would have taken on a host where one burst takes
REF_BURST_S.

The burst does not import detsing, so a change to the program leaves the
scale alone.
"""

from __future__ import annotations

import bisect
import random
import signal
from operator import itemgetter
from time import perf_counter

PERIOD = 0.05  # seconds between bursts; one burst is about 2 ms, so ~4 % extra run time
REF_BURST_S = 0.002  # the reference speed: one burst takes this long


def _polynomial(rng):
    return {tuple(rng.randrange(3) for _ in range(6)): rng.randrange(-5, 6) or 1 for _ in range(30)}


_rng = random.Random(7)
_P, _Q = _polynomial(_rng), _polynomial(_rng)


def burst():
    """The fixed work whose time measures the host's current speed."""
    product = {}
    for a, ca in _P.items():
        for b, cb in _Q.items():
            m = tuple(x + y for x, y in zip(a, b))
            c = product.get(m, 0) + ca * cb
            if c:
                product[m] = c
            else:
                product.pop(m, None)
    return product


class SpeedProbe:
    """Context manager: bursts from SIGALRM while it is open.

    Python runs the handler in the main thread between bytecodes, so a
    burst interrupts the workload briefly and never runs beside it.
    """

    def __init__(self):
        # (start, end, reference-clock time at start, scale of the stretch after it)
        self.bursts = []

    def _tick(self, signum, frame):
        start = perf_counter()
        burst()
        end = perf_counter()
        at = self.clock(start) if self.bursts else 0.0
        self.bursts.append((start, end, at, REF_BURST_S / (end - start)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)  # the clock starts at the first burst
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self, t):
        """The reference-speed clock at perf_counter() time t, while the probe is open."""
        start, end, at, scale = self.bursts[bisect.bisect_right(self.bursts, t, key=itemgetter(0)) - 1]
        return at + max(t - end, 0.0) * scale

    def scale(self, start, end):
        """(time of [start, end) less the bursts in it, that time on the reference clock)."""
        bursts = sum(e - s for s, e, _, _ in self.bursts if start <= s < end)
        return end - start - bursts, self.clock(end) - self.clock(start)
