"""Hot numeric kernel for the incremental shortest-path closure.

One operation lives here: the relaxation run when a weighted edge
``y -> x`` is committed, which tightens every pair (i, j) through the new
edge and logs the overwritten cells for undo. It is vectorized with numpy.

Below `BLOCK_MIN_N` vertices the kernel computes all n x n pairs. From
there on it computes the I x J block: the rows i whose path to x gets
cheaper through the new edge, times the columns j that y reaches more
cheaply through it. No other pair can improve, so the result and the undo
log are the same, while a commit costs O(n + |I||J|) instead of O(n^2).

Matrices come as a pair of C-contiguous arrays: `D` (int64 distances) and
`R` (bool reachability). A cell with `R` false has no path; its `D` entry
is kept at 0 so sums never overflow. All candidate sums skip unreachable
cells, which is what makes "no path" absorbing without a sentinel taking
part in arithmetic.

The undo log names a cell by its row and column as `INDEX` (int16), which
`theory.MAX_VERTICES` keeps in range, so a logged cell costs
`UNDO_CELL_BYTES` = 13 bytes: two int16 indices, the int64 old distance
and the bool old reachability.
"""

from __future__ import annotations

import numpy as np


# Vertex count from which the kernel works on the I x J block of rows and
# columns the new edge can improve, rather than on all n x n pairs.
# Picking the block costs about 15 numpy calls more, which the full block
# undercuts on small matrices: benchmarks/bench_fw_kernel.py finds the two
# forms even at n = 40-48 and the block form ahead from 56 on.
BLOCK_MIN_N = 48

# row and column dtype of the undo log; `theory` refuses to import if its
# MAX_VERTICES does not fit it
INDEX = np.int16
UNDO_CELL_BYTES = 2 * np.dtype(INDEX).itemsize + 8 + 1


def _relax_full(D, R, n, x, y, c):
    Dv = D[:n, :n]
    Rv = R[:n, :n]
    cand = (Dv[:, y] + c)[:, None] + Dv[x, :][None, :]
    valid = Rv[:, y][:, None] & Rv[x, :][None, :]
    better = valid & (~Rv | (cand < Dv))
    ii, jj = np.nonzero(better)
    old_d = Dv[ii, jj]
    old_r = Rv[ii, jj]
    Dv[ii, jj] = cand[ii, jj]
    Rv[ii, jj] = True
    return ii.astype(INDEX), jj.astype(INDEX), old_d, old_r


def _relax_block(D, R, n, x, y, c):
    # A pair (i, j) improves only if (i, x) and (y, j) improve too. Were
    # (i, x) already reachable with D[i,x] <= D[i,y] + c, the closure's
    # D[i,j] <= D[i,x] + D[x,j] would bound the new path i -> y -> x -> j;
    # the same holds through y for the column. So only the rows I and
    # columns J whose cell in column x or row y improves need computing.
    Dv = D[:n, :n]
    Rv = R[:n, :n]
    via_y = Dv[:, y] + c
    rows = np.flatnonzero(Rv[:, y] & (~Rv[:, x] | (via_y < Dv[:, x])))
    cols = np.flatnonzero(Rv[x, :] & (~Rv[y, :] | (Dv[x, :] + c < Dv[y, :])))
    # flat indices into the whole matrices: 1-D take and put cost about
    # half of 2-D fancy indexing; rows and cols ascend, so the block and
    # the undo log are in row-major order. They run to N * N, past INDEX,
    # so they stay intp until split into row and column.
    N = D.shape[1]
    flat = ((rows * N)[:, None] + cols).reshape(-1)
    Df = D.reshape(-1)
    Rf = R.reshape(-1)
    old_d = Df.take(flat)
    old_r = Rf.take(flat)
    cand = (via_y[rows][:, None] + Dv[x, cols]).reshape(-1)
    better = ~old_r | (cand < old_d)
    changed = flat[better]
    Df[changed] = cand[better]
    Rf[changed] = True
    ii, jj = np.divmod(changed, N)
    return ii.astype(INDEX), jj.astype(INDEX), old_d[better], old_r[better]


def relax_edge(D, R, n, x, y, c):
    """Tighten all pairs through a new edge y -> x of weight c.

    Mutates ``D``/``R`` (C-contiguous) in place over the leading n x n
    block and returns the undo log ``(rows, cols, old_dist, old_reach)`` of
    every changed cell, in row-major order: rows and columns as `INDEX`
    (int16), old distances as int64 and old reachability as bool, 13 bytes
    a cell (`UNDO_CELL_BYTES`). From ``BLOCK_MIN_N`` vertices
    on, only the rows that reach x more cheaply through the new edge and
    the columns that y reaches more cheaply through it are computed; the
    result is the same.
    """
    relax = _relax_block if n >= BLOCK_MIN_N else _relax_full
    return relax(D, R, n, x, y, c)
