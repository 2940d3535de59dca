#!/usr/bin/env python3
"""Time the relaxation kernel's forms per matrix size.

Feeds identical random edge streams through each form on fresh distance
matrices and reports per-commit timings: the kernel's full n x n block,
which saves a copy of the old block for undo, and its I x J block (only
the rows and columns the new edge improves), which logs the changed cells.
A `*` marks the form `kernels.relax_edge` runs at that size, which is
`full` below `kernels.BLOCK_MIN_N` vertices and `block` from there on;
the table is how that constant is chosen and re-checked.
An edge that closes a negative cycle, or that the closure already entails
(``D[y, x] <= c``), is skipped: the engine passes neither to the kernel.
The `edges` column counts the calls made, which the timings divide.
The two forms run interleaved, commit by commit on matrices of their own,
so a slow spell of the host lands on both. Raw microseconds still move
with the host; the column to compare across runs is `block/full`, the
ratio of the two forms' times within a run (below 1: the block form is
faster). Each figure is the median over `--repeats` runs. The `lines`
column is the share of the commits that change a cell which change one
row or one column only: from `kernels.BLOCK_MIN_N` on, the kernel writes
those as that line, without the block's mask.
The `finite` column times the full form told that the block holds no
no-path cell, which skips its two masks, as the engine does below
`kernels.BLOCK_MIN_N` once its closure is finite; `finite/full` is its
time over the masked full form's, both fed the same edges on a closure
that starts with every pair at distance 4n, so it stays finite. Every
timed call builds its undo entry, as a commit above level 0 does.

Usage: python benchmarks/bench_fw_kernel.py [--sizes 16,32,64,96,128,200,400]
       [--edges 600] [--repeats 3] [--seed 0]
"""

import argparse
import random
import statistics
import time

import numpy as np

from idlsmt import kernels


def fresh(n):
    D = np.full((n, n), kernels.NO_PATH, dtype=np.int64)
    np.fill_diagonal(D, 0)
    return D


def finite_start(n):
    D = np.full((n, n), 4 * n, dtype=np.int64)
    np.fill_diagonal(D, 0)
    return D


def stream(seed, n, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.sample(range(n), 2)
        out.append((x, y, rng.randint(-4, 3 * n)))
    return out


def changed_cells(result):
    """Cells one call changed: every form returns ``(changed, undo,
    finite)``."""
    return result[0]


def is_line(result):
    """Whether a block-form cell log names one row or one column only; the
    full form's undo entry is ``(old block, count)``."""
    undo = result[1]
    if len(undo) == 2 or not len(undo[0]):
        return False
    ii, jj, _ = undo
    return ii[0] == ii[-1] or jj.min() == jj.max()


def full(D, Df, n, x, y, c):
    return kernels._relax_full(D, Df, n, x, y, c, False, True)


def full_finite(D, Df, n, x, y, c):
    return kernels._relax_full(D, Df, n, x, y, c, True, True)


def block(D, Df, n, x, y, c):
    return kernels._relax_block(D, Df, n, x, y, c, True)


def drive(forms, n, edges, start=fresh):
    """Feed ``edges`` to every form, each on a matrix of its own built by
    ``start``, and time each call; the forms take turns going first. An
    edge that closes a negative cycle or that the closure already entails
    is skipped, as the engine never passes either to the kernel. Returns
    the seconds per form, the calls made, the cells changed, the final
    matrices and the share of the commits that change a cell which change
    one line only."""
    mats = [start(n) for _ in forms]
    secs = [0.0] * len(forms)
    updates = [0] * len(forms)
    calls = changing = lines = 0
    order = list(range(len(forms)))
    for x, y, c in edges:
        if mats[0][x, y] + c < 0 or mats[0][y, x] <= c:
            continue
        calls += 1
        order.reverse()
        for k in order:
            D = mats[k]
            t0 = time.perf_counter()
            entry = forms[k](D, D.reshape(-1), n, x, y, c)
            secs[k] += time.perf_counter() - t0
            updates[k] += changed_cells(entry)
            lines += is_line(entry)
        changing += changed_cells(entry) > 0
    if len(set(updates)) != 1:
        raise SystemExit("kernel forms changed different cells; kernel bug")
    return secs, calls, updates[0], mats, lines / max(changing, 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64,96,128,200,400")
    ap.add_argument("--edges", type=int, default=600)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    names = ("full", "block")
    print(f"block form from n = {kernels.BLOCK_MIN_N}")

    print(f"{'n':>6} {'edges':>6} {'updates':>10} "
          + "".join(f"{name + ' us/commit':>18}" for name in names)
          + f"{'block/full':>12}{'lines':>7}"
          + f"{'finite us/commit':>18}{'finite/full':>13}")
    for n in sizes:
        edges = stream(args.seed, n, args.edges)
        runs, finite_runs = [], []
        for _ in range(args.repeats):
            for forms, start, out in (((full, block), fresh, runs),
                                      ((full, full_finite), finite_start,
                                       finite_runs)):
                secs, calls, updates, mats, lines = drive(forms, n, edges,
                                                          start)
                if not all(np.array_equal(D, mats[0]) for D in mats[1:]):
                    raise SystemExit("kernel forms disagree; kernel bug")
                out.append((secs, calls, updates, lines))
        chosen = "block" if n >= kernels.BLOCK_MIN_N else "full"
        _, calls, updates, lines = runs[0]
        row = f"{n:>6} {calls:>6} {updates:>10}"
        for k, name in enumerate(names):
            us = 1e6 * statistics.median(r[0][k] for r in runs) / max(calls, 1)
            row += f"{us:>17.1f}{'*' if name == chosen else ' '}"
        ratio = statistics.median(r[0][1] / r[0][0] for r in runs)
        finite_us = 1e6 * statistics.median(
            r[0][1] for r in finite_runs) / max(finite_runs[0][1], 1)
        finite_ratio = statistics.median(r[0][1] / r[0][0]
                                         for r in finite_runs)
        print(row + f"{ratio:>12.2f}{lines:>7.0%}"
              + f"{finite_us:>18.1f}{finite_ratio:>13.2f}")


if __name__ == "__main__":
    main()
