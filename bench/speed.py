"""A fixed speed probe: how fast this core runs plain Python right now.

On a VM shared with other tenants the same CPU-bound code runs at speeds
that differ by up to 1.8x and switch every few seconds; CPU time tracks wall
time, so the process is slowed, not descheduled.  The benchmark samples
this probe every few tenths of a second while it times, from a SIGALRM
handler in the one benchmark thread, and rescales each job's wall time (the
probes' own time taken out) to a reference speed.  The probe is benchmark
code and never imports quiverext, so a change to the package cannot move it.

Its mix follows the jobs: Gaussian elimination of small dense matrices mod 3
and over Q (Fractions) and dictionary traffic on tuple keys, then a plain
integer loop of about the same length.  In slow spells the first half slows
more than the jobs do and the second half less; together they track them.
"""

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# The probe's wall time at the faster of the two speeds seen on the 2-vCPU
# VM used to tune the benchmark (Intel Xeon, 2.0 GHz, shared host): the
# lower mode of its times there, 0.027 s against 0.044 s for the slower.
# Rescaled times read as seconds at the faster speed.
REF_PROBE_S = 0.027


def _eliminate(rows, mod):
    """Reduced row echelon form in place; returns the rank."""
    n, width = len(rows), len(rows[0])
    rank = 0
    for c in range(width):
        piv = next((i for i in range(rank, n)
                    if (rows[i][c] % mod if mod else rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, mod) if mod else 1 / rows[rank][c]
        rows[rank] = [(x * inv) % mod if mod else x * inv for x in rows[rank]]
        for i in range(n):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % mod if mod else a - f * b
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _probe_once():
    """One probe with the cyclic collector off, so that its time does not
    depend on how many objects the benchmarked code keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_body()
    finally:
        if enabled:
            gc.enable()


def _probe_body():
    rng = random.Random(12345)
    n = 14
    ints = [[rng.randrange(-4, 5) for _ in range(n + 4)] for _ in range(n)]
    _eliminate([row[:] for row in ints], 3)
    _eliminate([[Fraction(x) for x in row] for row in ints], None)
    counts = {}
    for i in range(10000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for i in range(160000):
        total += i * i % 7


def probe_s():
    """Wall time of one run of the probe, in seconds."""
    t0 = time.perf_counter()
    _probe_once()
    return time.perf_counter() - t0


class Sampler:
    """Times the probe every `interval` seconds of wall time while active.

    `clock()` is wall time less the time spent in probes, so an interval
    timed on it leaves out any probe that fired inside.  `take()` returns
    the probe times recorded since the last call."""

    def __init__(self, interval):
        self.interval = interval
        self.paused = 0.0
        self._probes = []
        self._busy = False
        self._old = None

    def probe(self):
        dt = probe_s()
        self.paused += dt
        self._probes.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.probe()
            finally:
                self._busy = False

    def clock(self):
        """Wall time in seconds, stopped while a probe runs."""
        return time.perf_counter() - self.paused

    def take(self):
        out, self._probes = self._probes, []
        return out

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scale(probes):
    """Factor that takes a wall time measured while `probes` were timed to
    the reference speed."""
    return REF_PROBE_S / statistics.fmean(probes)
