"""Host-speed reference used to normalize the benchmark's timings.

On a shared host the same work can run 20-70% slower for a second or for
minutes at a time, which no run length within the benchmark's budget
averages out. So the benchmark also times a fixed loop that never touches
the solver and rescales its times to a reference speed:

    reported = measured * REFERENCE_S / (mean time of one loop iteration)

A change to the solver moves the reported figures exactly as it moves the
measured ones; a change in host speed moves the loop too and cancels.

A slow host does not slow all work alike, so each workload names the loop
that is loaded like it is (``Workload.reference``):

- ``interp``: interpreter work on small dicts and lists plus numpy
  operations on 64 x 64 arrays, like a solver on a few dozen variables;
- ``array``: one relax step over 400 x 400 arrays, like the closure kernel
  on the large-n instances.

On a shared 2-CPU x86 host, ``diamond`` pass times followed the ``array``
loop with slope 1.0 (correlation 0.91) but the ``interp`` loop with slope
0.5 (correlation 0.84); ``jobshop`` pass times follow the ``interp`` loop
with slope 0.86 (correlation 0.96).

The loop is read in short stretches spread over the measured work, a
fixed share of each timed stretch right after it (``Meter``), so that the
reference sees the host over the same minutes as the solver does. One
long reading between passes samples a moment, and its own noise then
shows in every figure it scales. The raw figures and the loop readings
are kept in each result's provenance.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3  # one loop iteration at the reference speed
SHARE = 0.1  # loop time per second of timed work
CHUNK_S = 0.01  # shortest reading; smaller debts wait for the next stretch

# fixed contents without numpy.random, whose import would show in peak RSS
_M = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 7919 % 100
_N = 400


def _interp_iteration():
    s = 0
    table = {}
    window = []
    for i in range(3000):
        s += (i * 7) % 13
        table[i & 255] = s
        window.append((i, s))
        if len(window) > 64:
            window.pop(0)
    for _ in range(40):
        s += int(np.count_nonzero((_M[:, 3][:, None] + _M[5, :][None, :]) < _M))
    return s


@functools.cache
def _big():
    d = np.arange(_N * _N, dtype=np.int64).reshape(_N, _N) * 7919 % 1000
    return d, d % 7 != 0


def _array_iteration():
    """The steps of ``kernels.relax_edge_numpy`` over fixed 400 x 400
    arrays, without writing them back."""
    d, r = _big()
    x, y = 37, 91
    cand = (d[:, y] + 3)[:, None] + d[x, :][None, :]
    valid = r[:, y][:, None] & r[x, :][None, :]
    ii, jj = np.nonzero(valid & (~r | (cand < d)))
    return len(ii) + int(cand[ii, jj].sum())


_LOOPS = {"interp": _interp_iteration, "array": _array_iteration}


class Meter:
    """Loop readings spread over timed work.

    After each timed stretch of ``dt`` seconds call ``owe(dt)``: the meter
    then loops for ``SHARE * dt`` seconds, in pieces of at least
    ``CHUNK_S``. ``settle()`` turns the readings since the last call into
    the factors that bring the work timed between them to the reference
    speed.

    The host switches between fast and slow spells that last about a
    second, so a single verdict can fall in either. A verdict time is
    therefore scaled by the readings taken right before and after it: take
    ``mark()`` when it is timed, before ``owe``, and pass the marks to
    ``settle``.
    """

    def __init__(self, reference):
        self.iteration = _LOOPS[reference]
        self.owed = 0.0
        self.reads = []  # (loop seconds, iterations) of each piece
        self.history = []  # mean iteration time of each settle() window

    def _read(self, budget):
        self.iteration()  # untimed, so the caches are warm again
        n = 0
        t0 = perf_counter()
        while True:
            self.iteration()
            n += 1
            if perf_counter() - t0 >= budget:
                break
        self.reads.append((perf_counter() - t0, n))

    def owe(self, dt):
        self.owed += SHARE * dt
        if self.owed >= CHUNK_S:
            self._read(self.owed)
            self.owed = 0.0

    def mark(self):
        return len(self.reads)

    def settle(self, marks=()):
        """Factors for the work timed since the last call: one for all of
        it, weighted by reading time, and one per mark from the pieces
        next to it. Settles any remaining debt first (at least one
        piece)."""
        if self.owed > 0.0 or not self.reads:
            self._read(max(self.owed, CHUNK_S))
        mean = sum(t for t, _ in self.reads) / sum(n for _, n in self.reads)
        piece = [t / n for t, n in self.reads]
        last = len(piece) - 1
        local = [2 * REFERENCE_S / (piece[max(k - 1, 0)] + piece[min(k, last)])
                 for k in marks]
        self.history.append(mean)
        self.owed, self.reads = 0.0, []
        return REFERENCE_S / mean, local
