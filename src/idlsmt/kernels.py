"""Hot numeric kernel for the incremental shortest-path closure.

One operation lives here: the relaxation run when a weighted edge
``y -> x`` is committed, which tightens every pair (i, j) through the new
edge and logs the overwritten cells for undo. It is vectorized with numpy.

Below `BLOCK_MIN_N` vertices the kernel computes all n x n pairs. From
there on it computes the I x J block: the rows i whose path to x gets
cheaper through the new edge, times the columns j that y reaches more
cheaply through it. No other pair can improve, so the result and the undo
log are the same, while a commit costs O(n + |I||J|) instead of O(n^2).

The closure is one C-contiguous int64 matrix `D`. A cell with no path
holds the sentinel `NO_PATH`, the diagonal holds 0. A finite distance
stays below `NO_PATH` (`theory.MAX_VERTICES` guards that), so a candidate
improves a cell exactly when it is smaller; candidates through a no-path
cell are masked out, and the largest sum the kernel forms,
``NO_PATH + CONST_MAX + NO_PATH``, still fits int64.

The undo log names a cell by its row and column as `INDEX` (int16), which
`theory.MAX_VERTICES` keeps in range, so a logged cell costs
`UNDO_CELL_BYTES` = 12 bytes: two int16 indices and the int64 old
distance.
"""

from __future__ import annotations

import numpy as np


# Vertex count from which the kernel works on the I x J block of rows and
# columns the new edge can improve, rather than on all n x n pairs.
# Picking the block costs about 15 numpy calls more, which the full block
# undercuts on small matrices: benchmarks/bench_fw_kernel.py finds the two
# forms even at n = 40-44 and the block form ahead from 48-52 on.
BLOCK_MIN_N = 48

# distance of a cell with no path: above every finite distance, and twice
# it plus the largest edge weight fits int64
NO_PATH = 2**62 - 2**51

# row and column dtype of the undo log; `theory` refuses to import if its
# MAX_VERTICES does not fit it
INDEX = np.int16
UNDO_CELL_BYTES = 2 * np.dtype(INDEX).itemsize + 8


def _relax_full(D, Df, n, x, y, c):
    Dv = D[:n, :n]
    col = Dv[:, y]
    row = Dv[x, :]
    cand = np.add.outer(col + c, row)
    better = cand < Dv
    better &= (col < NO_PATH)[:, None]
    better &= row < NO_PATH
    old_d = Dv[better]
    np.copyto(Dv, cand, where=better)
    ii, jj = np.nonzero(better)
    return ii.astype(INDEX), jj.astype(INDEX), old_d


def _relax_block(D, Df, n, x, y, c):
    # A pair (i, j) improves only if (i, x) and (y, j) improve too. Were
    # D[i,x] <= D[i,y] + c already, the closure's D[i,j] <= D[i,x] + D[x,j]
    # would bound the new path i -> y -> x -> j; the same holds through y
    # for the column. So only the rows I and columns J whose cell in
    # column x or row y improves need computing.
    Dv = D[:n, :n]
    col = Dv[:, y]
    row = Dv[x, :]
    via_y = col + c
    rows = np.flatnonzero((col < NO_PATH) & (via_y < Dv[:, x]))
    cols = np.flatnonzero((row < NO_PATH) & (row + c < Dv[y, :]))
    # flat indices into the whole matrix: 1-D take and put cost about
    # half of 2-D fancy indexing; rows and cols ascend, so the block and
    # the undo log are in row-major order. They run to N * N, past INDEX,
    # so they stay intp until split into row and column.
    N = D.shape[1]
    flat = ((rows * N)[:, None] + cols).reshape(-1)
    old_d = Df.take(flat)
    cand = (via_y[rows][:, None] + row[cols]).reshape(-1)
    better = cand < old_d
    changed = flat[better]
    Df[changed] = cand[better]
    ii, jj = np.divmod(changed, N)
    return ii.astype(INDEX), jj.astype(INDEX), old_d[better]


def relax_edge(D, Df, n, x, y, c):
    """Tighten all pairs through a new edge y -> x of weight c.

    Mutates ``D`` (C-contiguous, ``NO_PATH`` where there is no path) in
    place over the leading n x n block; ``Df`` is its flat view
    ``D.reshape(-1)``, which the engine keeps beside it. Returns the undo
    log ``(rows, cols, old_dist)`` of every changed cell, in row-major
    order: rows and columns as `INDEX` (int16) and old distances as int64,
    12 bytes a cell (`UNDO_CELL_BYTES`). From ``BLOCK_MIN_N`` vertices
    on, only the rows that reach x more cheaply through the new edge and
    the columns that y reaches more cheaply through it are computed; the
    result is the same.
    """
    relax = _relax_block if n >= BLOCK_MIN_N else _relax_full
    return relax(D, Df, n, x, y, c)
