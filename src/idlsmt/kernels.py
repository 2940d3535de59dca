"""Hot numeric kernel for the incremental shortest-path closure.

One operation lives here: the relaxation run when a weighted edge
``y -> x`` is committed, which tightens every pair (i, j) through the new
edge and, above level 0, returns what undoes it. It is vectorized with numpy.

Below `BLOCK_MIN_N` vertices the kernel computes all n x n pairs and saves
the old block, which costs less than gathering the changed cells. From
there on it computes the I x J block: the rows i whose path to x gets
cheaper through the new edge, times the columns j that y reaches more
cheaply through it, and logs the changed cells. No other pair can improve,
so the result is the same, while a commit costs O(n + |I||J|), not O(n^2).
Most commits there improve one line: I is {y} alone, or J is {x} alone,
since a bound the closure does not entail has D[y,x] > c and so puts y in
I and x in J. Then every cell of that line in J (or I) improves, to
c + D[x,j] (or D[i,y] + c), so the kernel writes the line without the
block's mask and flat indices and logs the same cells in the same order.

The closure is one C-contiguous int64 matrix `D`. A cell with no path
holds the sentinel `NO_PATH`, the diagonal holds 0. A finite distance
stays below `NO_PATH` (`theory.MAX_VERTICES` guards that), so a candidate
improves a cell exactly when it is smaller; candidates through a no-path
cell are masked out unless the block is known finite, and the largest sum
the kernel forms, ``NO_PATH + CONST_MAX + NO_PATH``, still fits int64.

A logged cell costs `UNDO_CELL_BYTES` = 12 bytes: its row and column as
`INDEX` (int16) and its old distance as int64.
"""

from __future__ import annotations

import numpy as np


# From this vertex count on, the kernel works on the I x J block of rows
# and columns the new edge can improve and logs the changed cells; below
# it, on all n x n pairs with a copy of the old block, 8 * 47^2 = 17.7 KB
# at most. The full form alone is faster up to about n = 70
# (benchmarks/bench_fw_kernel.py), but its copy grows as n^2.
BLOCK_MIN_N = 48

# distance of a cell with no path: above every finite distance, and twice
# it plus the largest edge weight fits int64
NO_PATH = 2**62 - 2**51

# row and column dtype of the undo log; `theory` refuses to import if its
# MAX_VERTICES does not fit it
INDEX = np.int16
UNDO_CELL_BYTES = 2 * np.dtype(INDEX).itemsize + 8


def _relax_full(D, Df, n, x, y, c, finite, log):
    Dv = D[:n, :n]
    col = Dv[:, y]
    row = Dv[x, :]
    cand = np.add.outer(col + c, row)
    better = cand < Dv
    if not finite:
        col_ok, row_ok = col < NO_PATH, row < NO_PATH
        better &= col_ok[:, None]
        better &= row_ok
        # a finite column y and row x leave every D[i,j] finite (<= sum)
        finite = (np.count_nonzero(col_ok) == n
                  and np.count_nonzero(row_ok) == n)
    changed = int(np.count_nonzero(better))
    undo = (Dv.copy(), changed) if log else None
    np.copyto(Dv, cand, where=better)
    return changed, undo, finite


def _relax_block(D, Df, n, x, y, c, log):
    # A pair (i, j) improves only if (i, x) and (y, j) improve too. Were
    # D[i,x] <= D[i,y] + c already, the closure's D[i,j] <= D[i,x] + D[x,j]
    # would bound the new path i -> y -> x -> j; the same holds through y
    # for the column. So only the rows I and columns J whose cell in
    # column x or row y improves need computing.
    Dv = D[:n, :n]
    col = Dv[:, y]
    row = Dv[x, :]
    via_y = col + c
    to_j = row + c
    rows, = ((col < NO_PATH) & (via_y < Dv[:, x])).nonzero()
    cols, = ((row < NO_PATH) & (to_j < Dv[y, :])).nonzero()
    # one line, row y or column x: every cell of it in J (or I) improves
    if len(rows) == 1 or len(cols) == 1:
        line, new, at = ((Dv[y], to_j, cols) if len(rows) == 1
                         else (Dv[:, x], via_y, rows))
        undo = (rows.astype(INDEX).repeat(len(cols)),
                cols.astype(INDEX).repeat(len(rows)),
                line.take(at)) if log else None
        line[at] = new.take(at)
        return len(at), undo
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
    if not log:
        return len(changed), None
    ii, jj = np.divmod(changed, N)
    return len(changed), (ii.astype(INDEX), jj.astype(INDEX), old_d[better])


def relax_edge(D, Df, n, x, y, c, finite=False, log=True):
    """Tighten all pairs through a new edge y -> x of weight c.

    Mutates ``D`` (C-contiguous, ``NO_PATH`` where there is no path) in
    place over the leading n x n block; ``Df`` is its flat view
    ``D.reshape(-1)``, which the engine keeps beside it. Returns
    ``(changed, undo, finite)``: the count of changed cells; None without
    ``log``, else the undo entry, below ``BLOCK_MIN_N`` vertices a copy of
    the old n x n block ``(old, changed)``, from there on the changed
    cells' log ``(rows, cols, old_dist)`` in row-major order; and whether
    the block holds no ``NO_PATH`` cell, which, passed back as ``finite``,
    skips the masks. The bound must not be entailed (``D[y, x] > c``),
    which makes a lone improving row y's and a lone improving column x's.
    """
    if n >= BLOCK_MIN_N:
        return *_relax_block(D, Df, n, x, y, c, log), False
    return _relax_full(D, Df, n, x, y, c, finite, log)
