"""Host speed probe, so run times can be read at one fixed host speed.

On a shared VM the same wittbox job runs up to ~1.8x slower, in phases of
under a second to minutes, while other tenants load the host; the VM's CPU
time slows with it, so neither wall nor CPU time is steady from run to run.
A tight integer loop hardly slows in those phases, but interpreter-bound
code with objects, method calls and dicts does, as wittbox does.

`SpeedProbe` interrupts the workload every PERIOD_S with SIGALRM and times a
`Reference`, a fixed computation of that kind written here, independent of
wittbox; a change to wittbox moves it only through the caches and core the
two share.  A stretch of the workload's time, less the probes inside it, is
then multiplied by the host speed over that stretch: NOMINAL_NS times the
mean of 1/probe time.  That is the time it would have taken on a host on
which the reference takes NOMINAL_NS.

The host does not slow evenly: probes fall into a fast mode (~0.55 ms) and
a slow one (~1 ms) that alternate within a single multi-second job.  Work
done per second is what adds up over such a mix, so the speed is the mean
of the probes' rates, not one over their median time.  On a 2-vCPU shared
VM that cut the spread (IQR/median) of per-job times over several host
phases from 0.075 to 0.03 (boxes-q2 split verify), 0.10 to 0.06 (teich-q9)
and 0.07 to 0.04 (box_from_table).
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

PERIOD_S = 0.03
# The probe's typical time on a 2-vCPU shared VM (Python 3.11), so scaled
# times read close to raw ones there.
NOMINAL_NS = 850_000


class _Elem:
    """Element of (Z/27)[t]/(t^2 + 1): the kind of arithmetic wittbox does."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Elem(tuple((a + b) % 27 for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        a0, a1 = self.c
        b0, b1 = other.c
        return _Elem(((a0 * b0 - a1 * b1) % 27, (a0 * b1 + a1 * b0) % 27))

    def __pow__(self, e):
        out, base = _Elem((1, 0)), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _evaluate(terms, point):
    acc = _Elem((0, 0))
    for mono, coef in terms.items():
        t = _Elem((coef, 0))
        for v, e in enumerate(mono):
            if e:
                t = t * point[v] ** e
        acc = acc + t
    return acc


class Reference:
    """A fixed mix of interpreter-bound work, about 0.85 ms on a 2-vCPU shared VM.

    Three parts, because no single one tracks every workload: polynomials
    evaluated at a few fixed points (small working set), at points walked
    through a pool of 4096 (larger working set), and a dict of tuple keys
    built from scratch (allocation).  Which phase slows which part most
    differs, and so does which wittbox job each part tracks best.
    """

    def __init__(self):
        rng = random.Random("hostspeed")
        self.polys = [{(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 26)
                       for _ in range(4)} for _ in range(3)]
        self.pool = [tuple(_Elem((rng.randrange(27), rng.randrange(27))) for _ in range(2))
                     for _ in range(4096)]
        self.fixed = self.pool[:3]
        self.cursor = 0

    def _vanishing(self, points):
        hits = 0
        for point in points:
            values = {k: _evaluate(terms, point) for k, terms in enumerate(self.polys)}
            hits += all(x % 9 == 0 for v in values.values() for x in v.c)
        return hits

    def __call__(self):
        walk = [self.pool[(self.cursor + 97 * i) % 4096] for i in range(3)]
        self.cursor += 389
        counts = {}
        for i in range(1000):
            key = (i % 97, i % 89, i & 7)
            counts[key] = counts.get(key, 0) + i * 3 % 7
        return self._vanishing(self.fixed) + self._vanishing(walk) + len(counts)


class SpeedProbe:
    """Samples a `Reference` every PERIOD_S while it is entered; main thread only."""

    def __init__(self):
        self.reference = Reference()
        self.start = array("q")
        self.end = array("q")
        self._old = None

    def __enter__(self):
        self._sample(None, None)  # so every stretch has a probe next to it
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.reference()
        self.start.append(t0)
        self.end.append(time.perf_counter_ns())

    def own_ns(self, a, b):
        """Time the probes took inside [a, b), in perf_counter_ns units."""
        lo, hi = bisect.bisect_left(self.start, a), bisect.bisect_left(self.start, b)
        return sum(self.end[i] - self.start[i] for i in range(lo, hi))

    def speed(self, a, b):
        """NOMINAL_NS times the mean rate (1/time) of the probes in [a, b).

        A stretch shorter than PERIOD_S may hold no probe; then the probes
        on either side of it are used.
        """
        lo, hi = bisect.bisect_left(self.start, a), bisect.bisect_left(self.start, b)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.start))
        return NOMINAL_NS * statistics.fmean(1 / (self.end[i] - self.start[i])
                                             for i in range(lo, hi))

    def scaled_s(self, a, b):
        """Seconds [a, b) would take at the nominal speed, probes taken out."""
        return (b - a - self.own_ns(a, b)) * self.speed(a, b) / 1e9
