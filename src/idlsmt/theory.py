"""Incremental difference-constraint engine.

Keeps the all-pairs shortest-path closure of the currently asserted bounds
``x - y <= c``. Each bound contributes the edge ``y -> x`` with weight c,
so a path u to v of weight w witnesses ``v - u <= w``, and a conjunction of
bounds is consistent exactly when the edge graph has no negative cycle.

Inserting a bound first tests for a conflict against the existing closure,
then relaxes the pairs through the new edge: all n x n of them on small
closures, and from `kernels.BLOCK_MIN_N` vertices on only the rows whose
path to the edge's head gets cheaper times the columns its tail reaches
more cheaply, the one block that can change. A bound the closure already
entails, as every theory propagation is when it comes back asserted, is
recorded as an edge for explanations but skips the kernel: it cannot
shorten any pair. Every overwritten cell and replaced edge is logged per
decision level so retraction replays to a bit-identical state. A logged
cell is its int16 row and column, old int64 distance and old bool
reachability, 13 bytes (`kernels.UNDO_CELL_BYTES`). Models are
read off the closure: a variable's value is its column minimum, the
shortest distance from a virtual source; an atom's first decision takes
the polarity this model satisfies. The explanation of a conflict or
propagation is searched on demand, goal directed by the closure's
distances to the target, so the hot loop carries no witness bookkeeping.
The undo cells also tell theory propagation which cells changed.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from .kernels import INDEX, relax_edge
from .normalize import CONST_MIN
from .sat import InternalError

# The vertex limit guards two bounds, both checked here. The undo log stores
# cell indices as kernels.INDEX (int16), so every vertex must fit it. And
# with every edge weight in [normalize.CONST_MIN, normalize.CONST_MAX] =
# [-2^52, 2^52 - 1], a closure cell holds a simple path of at most
# MAX_VERTICES - 1 edges, so a kernel sum D[i,y] + c + D[x,j] has magnitude
# at most (2 * MAX_VERTICES - 1) * 2^52 = 2,047 * 2^52 <= 2^63 - 2^52,
# which int64 holds.
MAX_VERTICES = 1024
if MAX_VERTICES > np.iinfo(INDEX).max:
    raise ImportError(f"MAX_VERTICES = {MAX_VERTICES} does not fit the "
                      f"{np.dtype(INDEX).name} undo-log indices")
if (2 * MAX_VERTICES - 1) * -CONST_MIN > np.iinfo(np.int64).max:
    raise ImportError(f"MAX_VERTICES = {MAX_VERTICES} lets path sums "
                      f"overflow int64")

ZERO_VAR = 0


class TooManyVertices(Exception):
    """The documented vertex limit was exceeded."""


class DifferenceEngine:
    """Incrementally maintained shortest-path closure with undo."""

    def __init__(self, capacity=8):
        capacity = max(capacity, 2)
        self.n = 0
        self._d = np.zeros((capacity, capacity), dtype=np.int64)
        self._r = np.zeros((capacity, capacity), dtype=np.bool_)
        # edges[u][v] is the stack of (weight, supporting literal, stamp) of
        # the edge u -> v; the live weight is the last entry, older entries
        # are the still-asserted weaker bounds needed for time-restricted
        # explanations
        self.edges = []
        self._trail = []  # (level, edge key or None, undo cells or None)
        self.stamp = 0  # edges recorded, entailed ones too (edge_commits)
        self.cell_updates = 0
        self.undo_cells = 0  # cells the trail holds, for undo_bytes

    # -- vertices ----------------------------------------------------------

    def ensure_vertex(self, v):
        """Grow the matrix so vertex ``v`` exists (diagonal 0, rest no-path)."""
        if v < self.n:
            return
        if v >= MAX_VERTICES:
            raise TooManyVertices(
                f"more than {MAX_VERTICES - 1} difference variables")
        if v >= self._d.shape[0]:
            cap = self._d.shape[0]
            while cap <= v:
                cap *= 2
            nd = np.zeros((cap, cap), dtype=np.int64)
            nr = np.zeros((cap, cap), dtype=np.bool_)
            nd[: self.n, : self.n] = self._d[: self.n, : self.n]
            nr[: self.n, : self.n] = self._r[: self.n, : self.n]
            self._d, self._r = nd, nr
        for k in range(self.n, v + 1):
            self._r[k, k] = True
            self.edges.append({})
        self.n = v + 1

    # -- queries -----------------------------------------------------------

    def dist(self, u, v):
        """Shortest path weight u to v, or None when unreachable."""
        if u >= self.n or v >= self.n or not self._r[u, v]:
            return None
        return int(self._d[u, v])

    def holds(self, x, y, c):
        """Whether the closure already entails x - y <= c."""
        return x < self.n and y < self.n and self._r[y, x] and self._d[y, x] <= c

    # -- assertion and retraction -------------------------------------------

    def assert_atom(self, x, y, c, lit, level):
        """Assert ``x - y <= c`` supported by ``lit``.

        Returns None on success or the list of supporting literals of a
        negative cycle (the new literal included); on conflict no state is
        touched. A bound the closure already entails is logged as an edge
        with a new stamp, but without a kernel call and with no undo cells.
        """
        if self._r[x, y] and self._d[x, y] + c < 0:
            path = self.explain_path(x, y, int(self._d[x, y]))
            return path + [lit]
        out = self.edges[y]
        hist = out.get(x)
        if hist is not None and hist[-1][0] <= c:
            self._trail.append((level, None, None))
            return None
        self.stamp += 1
        if hist is None:
            out[x] = [(c, lit, self.stamp)]
        else:
            hist.append((c, lit, self.stamp))
        if self._r[y, x] and self._d[y, x] <= c:
            cells = None  # entailed: D[i,y] + c + D[x,j] >= D[i,j] everywhere
        else:
            cells = relax_edge(self._d, self._r, self.n, x, y, c)
            self.cell_updates += len(cells[0])
            self.undo_cells += len(cells[0])
        self._trail.append((level, (y, x), cells))
        return None

    def changes_since(self, mark):
        """The trail length, as the next call's mark, and the ``(rows,
        cols)`` of the cells each commit from trail position ``mark`` on
        changed; none for ``mark=None``. A backtrack below a mark voids it."""
        trail = self._trail
        if mark is None:
            return len(trail), ()
        return len(trail), [cells[:2] for _, _, cells in trail[mark:]
                            if cells is not None]

    def backtrack_to(self, level):
        """Undo every assertion made above ``level``, bit-exactly."""
        trail = self._trail
        while trail and trail[-1][0] > level:
            _, key, cells = trail.pop()
            if cells is not None:
                ui, uj, ud, ur = cells
                # one flat intp index for both matrices: 2-D indexing
                # would convert each int16 index array for each of them
                flat = np.ravel_multi_index((ui, uj), self._d.shape)
                self._d.reshape(-1)[flat] = ud
                self._r.reshape(-1)[flat] = ur
                self.undo_cells -= len(ui)
            if key is not None:
                u, v = key
                hist = self.edges[u][v]
                hist.pop()
                if not hist:
                    del self.edges[u][v]

    # -- explanations --------------------------------------------------------

    def explain_path(self, src, dst, bound, stamp=None):
        """Supporting literals of a shortest ``src`` to ``dst`` path.

        With ``stamp`` the search only uses edges committed at or before
        that time, each at its tightest such weight, so the explanation
        never cites later assertions. The found path weight is guaranteed
        to be at most ``bound``.

        The search is A* with the closure's distance to ``dst`` as the
        heuristic. The live edges only tighten an older edge set, so that
        distance is a consistent lower bound for every stamp: reduced
        costs ``w + D[v,dst] - D[u,dst]`` are never negative, vertices that
        cannot reach ``dst`` are skipped, and on the live edges (a conflict)
        every edge of a shortest path has reduced cost 0, so only vertices
        on shortest paths are expanded.
        """
        n = self.n
        h = self._d[:n, dst].tolist()
        reaches = self._r[:n, dst].tolist()
        dist = {src: 0}
        pred = {}
        heap = [(h[src], src)]
        while heap:
            f, u = heappop(heap)
            if u == dst:
                break
            du = dist[u]
            if f > du + h[u]:
                continue  # superseded by a shorter path to u
            for v, hist in self.edges[u].items():
                if not reaches[v]:
                    continue
                w, lit, st = hist[-1]
                if stamp is not None and st > stamp:
                    for w, lit, st in reversed(hist):
                        if st <= stamp:
                            break
                    else:
                        continue
                dv = du + w
                if v not in dist or dv < dist[v]:
                    dist[v] = dv
                    pred[v] = (u, lit)
                    heappush(heap, (dv + h[v], v))
        if dst not in dist or dist[dst] > bound:
            raise InternalError("shortest-path witness lost; engine state "
                                "is inconsistent")
        lits = []
        v = dst
        while v != src:
            u, lit = pred[v]
            lits.append(lit)
            v = u
        lits.reverse()
        return lits

    # -- propagation ---------------------------------------------------------

    def scan_implications(self, xs, ys, cs):
        """Vectorized entailment test for atom arrays ``x - y <= c``.

        Returns boolean masks (implied-true, implied-false); an atom is
        implied false when its integer complement is entailed.
        """
        d = self._d[: self.n, : self.n]
        r = self._r[: self.n, : self.n]
        pos = r[ys, xs] & (d[ys, xs] <= cs)
        neg = r[xs, ys] & (d[xs, ys] <= -cs - 1)
        return pos, neg

    # -- models ---------------------------------------------------------------

    def _potential(self, cols):
        """Unshifted model values of the vertices ``cols``: each one's
        shortest distance from a virtual source with zero-weight edges to
        every vertex, the minimum of its closure column (an unreachable
        cell holds 0, as the diagonal does)."""
        return self._d[:self.n, cols].min(axis=0).tolist()

    def model_satisfies(self, x, y, c):
        """Whether the closure's model satisfies ``x - y <= c``."""
        vx, vy = self._potential([x, y])
        return vx - vy <= c

    def extract_model(self):
        """Integer values satisfying every committed bound: the column
        minima, shifted so the zero variable gets 0."""
        if self.n == 0:
            return {}
        dist = self._potential(slice(self.n))
        for u, out in enumerate(self.edges):
            for v, hist in out.items():
                if dist[u] + hist[-1][0] < dist[v]:
                    raise InternalError(
                        "closure model violates a committed bound")
        base = dist[ZERO_VAR]
        return {v: dv - base for v, dv in enumerate(dist)}

    # -- debugging -------------------------------------------------------------

    def dump_tsv(self):
        """Row-major distance matrix, tab-separated, ``inf`` for no path."""
        rows = []
        for i in range(self.n):
            rows.append("\t".join(
                str(int(self._d[i, j])) if self._r[i, j] else "inf"
                for j in range(self.n)))
        return "\n".join(rows) + ("\n" if rows else "")

    def check_invariants(self):
        """Full-scan diagonal and triangle checks; raises on violation."""
        n = self.n
        d = self._d[:n, :n]
        r = self._r[:n, :n]
        if not all(r[i, i] and d[i, i] == 0 for i in range(n)):
            raise InternalError("diagonal must be exactly zero")
        for k in range(n):
            via = r[:, k][:, None] & r[k, :][None, :]
            cand = d[:, k][:, None] + d[k, :][None, :]
            bad = via & (~r | (cand < d))
            if bad.any():
                raise InternalError("triangle inequality violated")
        if (d[~r] != 0).any():
            raise InternalError("unreachable cells must hold 0")

    def snapshot(self):
        """Comparable copy of the visible state (for undo-exactness tests)."""
        n = self.n
        return (self._d[:n, :n].tobytes(), self._r[:n, :n].tobytes(),
                {(u, v): tuple(hist) for u, out in enumerate(self.edges)
                 for v, hist in out.items()})
