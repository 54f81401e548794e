"""Speed probes: a fixed piece of pure-Python work, timed while the program runs.

The CPU speed this benchmark gets drifts by up to a factor of two, from one
second to the next and over minutes, in phases that can outlast a run.  The
probe does the same work every time and calls nothing in invsys, so its time
follows the machine and not the program.  While sampling is on, a timer
signal runs a probe every INTERVAL_S seconds inside whatever the program is
doing, and each timed interval also gets a probe just before and just after
it.  An interval is reported twice: as wall time minus the probes inside it,
and at reference speed, that time times PROBE_REF_S over the mean of its
probes.  A change to the program moves the wall time and leaves the probes
alone, so it moves the reference-speed time by the same factor.

The work mixes what the program spends its time on: Fraction arithmetic
(polynomials over Q), integer arithmetic modulo a prime (F_p), and dicts
keyed by exponent tuples (sparse polynomials).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Probe seconds at reference speed: about the median probe on the 2-core
# machine where the benchmark was written.  A constant, so values on two
# commits compare directly.
PROBE_REF_S = 0.0125
INTERVAL_S = 0.2
_ROUNDS = 2000
_PRIME = 32003


def _work():
    acc = Fraction(0)
    terms = {}
    x = 1
    for i in range(1, _ROUNDS):
        acc += Fraction(i % 13 + 1, i % 17 + 1) * Fraction(3, i % 7 + 1)
        x = x * (i | 1) % _PRIME
        key = (i % 5, i % 7, x % 11)
        terms[key] = (terms.get(key, 0) + x) % _PRIME
    return acc, len(terms)


class Clock:
    """Times calls at reference speed.  With sampling on, a timer signal
    probes inside each call; call stop() before the process ends."""

    def __init__(self, sampling):
        self.samples = []  # (start, seconds) of every probe
        self._busy = False
        self.sampling = sampling
        if sampling:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sampling = False

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.probe()

    def probe(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            _work()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def time(self, fn, *args, **kwargs):
        """(result or None, exception or None, wall seconds, cpu seconds,
        reference-speed seconds) of fn(*args, **kwargs); probe time is left
        out."""
        self.probe()
        first = len(self.samples)
        result = error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = exc
        t1, c1 = time.perf_counter(), time.process_time()
        inside = [s for t, s in self.samples[first:] if t0 <= t <= t1]
        self.probe()
        wall, cpu = t1 - t0 - sum(inside), c1 - c0 - sum(inside)
        probes = [self.samples[first - 1][1], *inside, self.samples[-1][1]]
        return result, error, wall, cpu, wall * PROBE_REF_S / statistics.fmean(probes)
