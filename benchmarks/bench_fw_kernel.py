#!/usr/bin/env python3
"""Time the relaxation kernel's forms per matrix size.

Feeds identical random edge streams through each form on fresh distance
matrices and reports per-commit timings: the kernel's full n x n block,
which saves a copy of the old block for undo, and its I x J block (only
the rows and columns the new edge improves), which logs the changed cells.
A `*` marks the form `kernels.relax_edge` runs at that size, which is
`full` below `kernels.BLOCK_MIN_N` vertices and `block` from there on;
the table is how that constant is chosen and re-checked.
The two forms run interleaved, commit by commit on matrices of their own,
so a slow spell of the host lands on both. Raw microseconds still move
with the host; the column to compare across runs is `block/full`, the
ratio of the two forms' times within a run (below 1: the block form is
faster). Each figure is the median over `--repeats` runs. The `lines`
column is the share of the commits that change a cell which change one
row or one column only: from `kernels.BLOCK_MIN_N` on, the kernel writes
those as that line, without the block's mask.

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


def stream(seed, n, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.sample(range(n), 2)
        out.append((x, y, rng.randint(-4, 3 * n)))
    return out


def changed_cells(entry):
    """Cells one call changed: the full form returns ``(old block,
    count)``, the block form its ``(rows, cols, old)`` cell log."""
    return entry[1] if len(entry) == 2 else len(entry[0])


def is_line(entry):
    """Whether a block-form cell log names one row or one column only."""
    if len(entry) == 2 or not len(entry[0]):
        return False
    ii, jj, _ = entry
    return ii[0] == ii[-1] or jj.min() == jj.max()


def drive(forms, n, edges):
    """Feed ``edges`` to every form, each on a matrix of its own, and time
    each call; the forms take turns going first. Returns the seconds per
    form, the cells changed, the final matrices and the share of the
    commits that change a cell which change one line only."""
    mats = [fresh(n) for _ in forms]
    secs = [0.0] * len(forms)
    updates = [0] * len(forms)
    changing = lines = 0
    order = list(range(len(forms)))
    for x, y, c in edges:
        if mats[0][x, y] + c < 0:
            continue
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
    return secs, updates[0], mats, lines / max(changing, 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64,96,128,200,400")
    ap.add_argument("--edges", type=int, default=600)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    names = ("full", "block")
    forms = (kernels._relax_full, kernels._relax_block)
    print(f"block form from n = {kernels.BLOCK_MIN_N}")

    print(f"{'n':>6} {'edges':>6} {'updates':>10} "
          + "".join(f"{name + ' us/commit':>18}" for name in names)
          + f"{'block/full':>12}{'lines':>7}")
    for n in sizes:
        edges = stream(args.seed, n, args.edges)
        runs = []
        for _ in range(args.repeats):
            secs, updates, mats, lines = drive(forms, n, edges)
            if not all(np.array_equal(D, mats[0]) for D in mats[1:]):
                raise SystemExit("kernel forms disagree; kernel bug")
            runs.append(secs)
        chosen = "block" if n >= kernels.BLOCK_MIN_N else "full"
        row = f"{n:>6} {len(edges):>6} {updates:>10}"
        for k, name in enumerate(names):
            us = 1e6 * statistics.median(r[k] for r in runs) / len(edges)
            row += f"{us:>17.1f}{'*' if name == chosen else ' '}"
        ratio = statistics.median(r[1] / r[0] for r in runs)
        print(row + f"{ratio:>12.2f}{lines:>7.0%}")


if __name__ == "__main__":
    main()
