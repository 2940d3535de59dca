"""Incremental difference-constraint engine.

Keeps the all-pairs shortest-path closure of the currently asserted bounds
``x - y <= c``. Each bound contributes the edge ``y -> x`` with weight c,
so a path u to v of weight w witnesses ``v - u <= w``, and a conjunction of
bounds is consistent exactly when the edge graph has no negative cycle.

Inserting a bound first tests for a conflict against the existing closure,
then relaxes the pairs through the new edge (`kernels.relax_edge`). A bound
the closure already entails, as every theory propagation is when it comes
back asserted, is recorded as an edge for explanations but skips the
kernel: it cannot shorten any pair. Each commit's undo entry and each
replaced edge are logged per decision level above 0 so retraction replays
to a bit-identical state; nothing undoes level 0, so a commit there builds
no entry. Below `kernels.BLOCK_MIN_N` vertices the entry is the whole old
block; from there on it logs the overwritten cells, 12 bytes each. The
closure is one int64 matrix: a pair with no path holds `kernels.NO_PATH`,
above every finite distance, so every entailment test is one comparison;
while no cell holds it (one flag), the kernel skips its no-path masks.
Models are read off the closure: a variable's value is its column minimum,
the shortest distance from a virtual source; an atom's first decision
takes the polarity this model satisfies. The explanation of a conflict or
propagation is searched on demand, goal directed by the closure's
distances to the target, so the hot loop carries no witness bookkeeping.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from .kernels import INDEX, NO_PATH, relax_edge
from .normalize import CONST_MAX, CONST_MIN, ZERO_VAR
from .sat import InternalError

# The vertex limit guards the closure's arithmetic, checked here. The undo
# log stores cell indices as kernels.INDEX (int16), so every vertex must
# fit it. With every edge weight in [normalize.CONST_MIN,
# normalize.CONST_MAX] = [-2^52, 2^52 - 1], a finite closure cell holds a
# simple path of at most MAX_VERTICES - 1 edges, so its magnitude is at
# most 1,023 * 2^52, below kernels.NO_PATH = 2^62 - 2^51. A cell the kernel
# makes reachable gets a shortest, hence simple, path too. And the largest
# sum the kernel forms, D[i,y] + c + D[x,j] over two no-path cells, is
# 2 * NO_PATH + CONST_MAX = 2^63 - 1, which int64 holds.
MAX_VERTICES = 1024
if MAX_VERTICES > np.iinfo(INDEX).max:
    raise ImportError(f"MAX_VERTICES = {MAX_VERTICES} does not fit the "
                      f"{np.dtype(INDEX).name} undo-log indices")
if (MAX_VERTICES - 1) * -CONST_MIN >= NO_PATH:
    raise ImportError(f"MAX_VERTICES = {MAX_VERTICES} lets path sums "
                      f"reach the no-path sentinel")
if 2 * NO_PATH + CONST_MAX > np.iinfo(np.int64).max:
    raise ImportError("sums over no-path cells overflow int64")


class TooManyVertices(Exception):
    """The documented vertex limit was exceeded."""


class DifferenceEngine:
    """Incrementally maintained shortest-path closure with undo."""

    def __init__(self, capacity=8):
        capacity = max(capacity, 2)
        self.n = 0
        self._d = np.full((capacity, capacity), NO_PATH, dtype=np.int64)
        self._flat = self._d.reshape(-1)  # flat view: 1-D take and put
        # edges[u][v] is the stack of (weight, supporting literal, stamp) of
        # the edge u -> v; the live weight is the last entry, older entries
        # are the still-asserted weaker bounds needed for time-restricted
        # explanations
        self.edges = []
        self._trail = []  # (level, edge key or None, relax_edge undo or None)
        self.stamp = 0  # edges recorded, entailed ones too (edge_commits)
        # cells the kernel changed; each call changes at least its edge's
        # cell (y, x), so the theory bridge reads an unmoved count as an
        # unmoved closure
        self.cell_updates = 0
        # no NO_PATH in the block; only a new vertex or a restore clears it
        self.finite = False
        self._dumped = self._d[:0, :0], ""  # (block, text) of dump_tsv

    # -- vertices ----------------------------------------------------------

    def ensure_vertex(self, v):
        """Grow the matrix so vertex ``v`` exists (diagonal 0, rest no-path)."""
        if v < self.n:
            return
        self.finite = False
        if v >= MAX_VERTICES:
            raise TooManyVertices(
                f"more than {MAX_VERTICES - 1} difference variables")
        if v >= self._d.shape[0]:
            cap = self._d.shape[0]
            while cap <= v:
                cap *= 2
            nd = np.full((cap, cap), NO_PATH, dtype=np.int64)
            nd[: self.n, : self.n] = self._d[: self.n, : self.n]
            self._d, self._flat = nd, nd.reshape(-1)
        for k in range(self.n, v + 1):
            self._d[k, k] = 0
            self.edges.append({})
        self.n = v + 1

    # -- queries -----------------------------------------------------------

    def dist(self, u, v):
        """Shortest path weight u to v, or None when unreachable."""
        if u >= self.n or v >= self.n:
            return None
        d = int(self._d[u, v])
        return d if d < NO_PATH else None

    def holds(self, x, y, c):
        """Whether the closure already entails x - y <= c."""
        return x < self.n and y < self.n and self._d[y, x] <= c

    # -- assertion and retraction -------------------------------------------

    def assert_atom(self, x, y, c, lit, level):
        """Assert ``x - y <= c`` supported by ``lit``.

        Returns None on success or the list of supporting literals of a
        negative cycle (the new literal included); on conflict no state is
        touched. A bound the closure already entails is logged as an edge
        with a new stamp, but without a kernel call and with no undo entry.
        """
        if self._d[x, y] + c < 0:
            path = self.explain_path(x, y, int(self._d[x, y]))
            return path + [lit]
        out = self.edges[y]
        hist = out.get(x)
        if hist is not None and hist[-1][0] <= c:
            if level:
                self._trail.append((level, None, None))
            return None
        self.stamp += 1
        if hist is None:
            out[x] = [(c, lit, self.stamp)]
        else:
            hist.append((c, lit, self.stamp))
        if self._d[y, x] <= c:
            undo = None  # entailed: D[i,y] + c + D[x,j] >= D[i,j] everywhere
        else:
            changed, undo, self.finite = relax_edge(
                self._d, self._flat, self.n, x, y, c, self.finite, level > 0)
            self.cell_updates += changed
        if level:
            self._trail.append((level, (y, x), undo))
        return None

    def undo_size(self):
        """The cells the trail can restore and its undo arrays' bytes."""
        undos = [u for _, _, u in self._trail if u is not None]
        return (sum(u[0].size for u in undos), sum(
            a.nbytes for u in undos for a in u if type(a) is np.ndarray))

    def backtrack_to(self, level):
        """Undo every assertion made above ``level``, bit-exactly."""
        trail = self._trail
        while trail and trail[-1][0] > level:
            _, key, undo = trail.pop()
            if undo is not None and len(undo) == 3:
                ui, uj, ud = undo
                # a flat intp index: 2-D indexing converts each int16
                # index array on its own, which costs more
                self._flat[np.ravel_multi_index((ui, uj), self._d.shape)] = ud
            elif undo is not None:  # the old block; later commits are undone
                self._d[:len(undo[0]), :len(undo[0])] = undo[0]
                self.finite = False
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
                if h[v] == NO_PATH:
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

    def scan_implications(self, ent, ref, cs):
        """Vectorized entailment test for atom arrays ``x - y <= c`` given
        by their flat cells ``ent = y*N + x`` and ``ref = x*N + y``.

        Returns boolean masks (implied-true, implied-false); an atom is
        implied false when its integer complement is entailed.
        """
        return self._flat.take(ent) <= cs, self._flat.take(ref) < -cs

    # -- models ---------------------------------------------------------------

    def _potential(self, cols):
        """Unshifted model values of the vertices ``cols``: each one's
        shortest distance from a virtual source with zero-weight edges to
        every vertex, the minimum of its closure column (its diagonal
        cell holds 0, a no-path cell more than any distance)."""
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
        """Row-major distance matrix, tab-separated, ``inf`` for no path;
        the text is reused while the block equals the one it shows."""
        block = self._d[:self.n, :self.n]
        if not np.array_equal(block, self._dumped[0]):
            self._dumped = block.copy(), "".join(
                "\t".join(str(d) if d < NO_PATH else "inf" for d in row)
                + "\n" for row in block.tolist())
        return self._dumped[1]

    def snapshot(self):
        """Comparable copy of the visible state (for undo-exactness tests)."""
        n = self.n
        return (self._d[:n, :n].tobytes(),
                {(u, v): tuple(hist) for u, out in enumerate(self.edges)
                 for v, hist in out.items()})
