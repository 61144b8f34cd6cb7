"""A fixed yardstick of the host's speed for pure-Python work.

The shared host this benchmark runs on changes speed by tens of per cent
over minutes, and ``ml`` slows with it: its time goes to the interpreter
(big-integer elimination, fractions, tuples and dicts).  ``probe()`` times a
fixed piece of such work that does not use the program, so a run can report
its timings scaled to a host of nominal speed (``scale()``): a change of
the program moves the scaled time, a change of the host's speed that lasts
longer than a step moves the probe as much and is divided out.

The work is done in this process, between the ``ml`` children, never at the
same time as one.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# The median probe time on the host the bounds were measured on (2-core
# Intel Xeon at 2.1 GHz, Python 3.11); scaled times read in its seconds.
NOMINAL_S = 0.05


def _rows(seed, n):
    x, rows = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % (1 << 31)
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


def _bareiss_rank(mat):
    """Fraction-free elimination on integer rows, as exact rank codes do."""
    prev, r, n, ncols = 1, 0, len(mat), len(mat[0])
    for c in range(ncols):
        piv = next((i for i in range(r, n) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        for i in range(r + 1, n):
            ri = mat[i]
            f = ri[c]
            for k in range(c + 1, ncols):
                ri[k] = (pr[c] * ri[k] - f * pr[k]) // prev
            ri[c] = 0
        prev = pr[c]
        r += 1
    return r


def _poly_mul(p, q):
    """Product of two polynomials kept as {exponent tuple: Fraction}."""
    out = {}
    for (a, b), u in p.items():
        for (c, d), v in q.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + u * v
    return out


def _work():
    out = []
    for seed in range(12):
        rows = _rows(seed, 30)
        rank = _bareiss_rank([list(r) for r in rows])
        p = {(i, 11 - i): Fraction(rows[0][i], i + 1) for i in range(12)}
        q = {(i, 9 - i): Fraction(rows[1][i], 3) for i in range(10)}
        out.append((rank, sum(_poly_mul(_poly_mul(p, q), q).values())))
    return out


_EXPECTED = _work()


def probe():
    """Wall time of one fixed piece of pure-Python work (about ``NOMINAL_S``)."""
    t0 = time.perf_counter()
    got = _work()
    elapsed = time.perf_counter() - t0
    if got != _EXPECTED:
        raise RuntimeError("host probe computed a different result")
    return elapsed


class Yardstick:
    """Probe times taken over a run, per CPU; scales the run's timings.

    The CPUs of a shared host need not slow down together, and an ``ml``
    child may run on any of them, or on all with its process pool.  So the probe runs pinned to each CPU in turn,
    and the host's speed is the mean of the per-CPU median probe times.
    """

    SHARE = 0.08  # probe for about this share of the time measured

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.times = {cpu: [] for cpu in self.cpus}

    def after(self, seconds):
        """Probe for about ``SHARE`` of ``seconds`` just spent, on every CPU."""
        spent = 0.0
        try:
            while spent < self.SHARE * seconds or not spent:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    t = probe()
                    self.times[cpu].append(t)
                    spent += t
        finally:
            # children inherit the affinity: give them every CPU back
            os.sched_setaffinity(0, self.cpus)

    def count(self):
        return sum(len(t) for t in self.times.values())

    def probe_s(self):
        """The mean over the CPUs of the median probe time on each."""
        return statistics.fmean(statistics.median(t) for t in self.times.values())

    def scale(self, seconds):
        """``seconds`` on this host as seconds on a host of nominal speed."""
        return seconds * NOMINAL_S / self.probe_s()
