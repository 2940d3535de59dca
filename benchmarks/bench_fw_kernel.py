#!/usr/bin/env python3
"""Time the relaxation kernel's forms per matrix size.

Feeds identical random edge streams through each form on fresh distance
matrices and reports per-commit timings: the kernel's full n x n block
and its I x J block (only the rows and columns the new edge improves).
A `*` marks the form `kernels.relax_edge` runs at that size, which is
`full` below `kernels.BLOCK_MIN_N` vertices and `block` from there on;
the table is how that constant is chosen and re-checked.
Each form's time is the best of `--repeats` runs, taken in turn, so a slow
spell of the host does not land on one form only.

Usage: python benchmarks/bench_fw_kernel.py [--sizes 16,32,64,96,128,200,400]
       [--edges 600] [--repeats 3] [--seed 0]
"""

import argparse
import random
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


def drive(relax, n, edges):
    D = fresh(n)
    Df = D.reshape(-1)
    t0 = time.perf_counter()
    updates = 0
    for x, y, c in edges:
        if D[x, y] + c < 0:
            continue
        updates += len(relax(D, Df, n, x, y, c)[0])
    return time.perf_counter() - t0, updates, D


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64,96,128,200,400")
    ap.add_argument("--edges", type=int, default=600)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    forms = [("full", kernels._relax_full), ("block", kernels._relax_block)]
    print(f"block form from n = {kernels.BLOCK_MIN_N}")

    print(f"{'n':>6} {'edges':>6} {'updates':>10} "
          + "".join(f"{name + ' us/commit':>18}" for name, _ in forms))
    for n in sizes:
        edges = stream(args.seed, n, args.edges)
        best = [float("inf")] * len(forms)
        results = [None] * len(forms)
        for _ in range(args.repeats):
            for k, (_, relax) in enumerate(forms):
                dt, updates, D = drive(relax, n, edges)
                best[k] = min(best[k], dt)
                results[k] = D
        if not all(np.array_equal(D, results[0]) for D in results[1:]):
            raise SystemExit("kernel forms disagree; kernel bug")
        chosen = "block" if n >= kernels.BLOCK_MIN_N else "full"
        row = f"{n:>6} {len(edges):>6} {updates:>10}"
        for (name, _), dt in zip(forms, best):
            mark = "*" if name == chosen else " "
            row += f"{1e6 * dt / len(edges):>17.1f}{mark}"
        print(row)


if __name__ == "__main__":
    main()
