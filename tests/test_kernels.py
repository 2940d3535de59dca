import random
import types

import numpy as np
import pytest

from idlsmt import kernels, theory


def fresh_state(n):
    D = np.zeros((n, n), dtype=np.int64)
    R = np.eye(n, dtype=np.bool_)
    return D, R


def random_stream(seed, n, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.sample(range(n), 2)
        out.append((x, y, rng.randint(-4, 12)))
    return out


class TestNumpyKernel:
    def test_edge_itself_enters(self):
        D, R = fresh_state(3)
        ii, jj, od, orr = kernels.relax_edge(D, R, 3, 1, 0, 5)
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1)]
        assert D[0, 1] == 5 and R[0, 1]
        assert not orr[0]

    def test_no_path_is_absorbing(self):
        # unreachable intermediate cells contribute no candidates
        D, R = fresh_state(3)
        kernels.relax_edge(D, R, 3, 1, 0, -7)
        assert not R[1, 0] and not R[2, 0] and not R[0, 2]
        assert D[1, 0] == 0  # untouched storage under a no-path cell

    def test_tightening_updates_and_logs_previous(self):
        D, R = fresh_state(2)
        kernels.relax_edge(D, R, 2, 1, 0, 9)
        ii, jj, od, orr = kernels.relax_edge(D, R, 2, 1, 0, 4)
        assert D[0, 1] == 4
        assert od.tolist() == [9] and orr.tolist() == [True]

    def test_undo_restores_exactly(self):
        D, R = fresh_state(5)
        stream = random_stream(3, 5, 12)
        before = (D.copy(), R.copy())
        log = []
        for x, y, c in stream:
            if R[x, y] and D[x, y] + c < 0:
                continue
            log.append(kernels.relax_edge(D, R, 5, x, y, c))
        for ii, jj, od, orr in reversed(log):
            D[ii, jj] = od
            R[ii, jj] = orr
        assert np.array_equal(D, before[0]) and np.array_equal(R, before[1])

    @pytest.mark.parametrize("n", [5, kernels.BLOCK_MIN_N])
    def test_undo_log_cell_is_13_bytes(self, n):
        # both the full and the block form log int16 indices
        D, R = fresh_state(n)
        log = kernels.relax_edge(D, R, n, 1, 0, 5)
        assert [a.dtype for a in log] == [np.int16, np.int16, np.int64,
                                          np.bool_]
        assert sum(a.itemsize for a in log) == kernels.UNDO_CELL_BYTES == 13


def reference_relax(D, R, n, x, y, c):
    """Plain full-block relaxation, the contract of relax_edge: int16 rows
    and columns, int64 old distances, bool old reachability."""
    Dv, Rv = D[:n, :n], R[:n, :n]
    cand = (Dv[:, y] + c)[:, None] + Dv[x, :][None, :]
    valid = Rv[:, y][:, None] & Rv[x, :][None, :]
    ii, jj = np.nonzero(valid & (~Rv | (cand < Dv)))
    old_d, old_r = Dv[ii, jj].copy(), Rv[ii, jj].copy()
    Dv[ii, jj] = cand[ii, jj]
    Rv[ii, jj] = True
    return ii.astype(np.int16), jj.astype(np.int16), old_d, old_r


def tightening_stream(seed, n, count):
    """Sparse random edges (so many cells stay unreachable), a third of
    them re-asserting an earlier edge with a smaller weight."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            x, y, c = rng.choice(out)
            out.append((x, y, c - rng.randint(1, 5)))
        else:
            x, y = rng.sample(range(n), 2)
            out.append((x, y, rng.randint(-4, 3 * n)))
    return out


class TestBlockSwitch:
    """relax_edge against the full-block reference on both sides of
    the size from which it computes only the rows and columns that
    improve."""

    @pytest.mark.parametrize("n", [kernels.BLOCK_MIN_N - 1,
                                   kernels.BLOCK_MIN_N,
                                   kernels.BLOCK_MIN_N + 1, 150])
    def test_same_closure_and_undo_log_as_full_block(self, n):
        cap = n + 7  # matrices wider than n, as the engine grows them
        for seed in range(3):
            D1, R1 = fresh_state(cap)
            D2, R2 = fresh_state(cap)
            logs = []
            for x, y, c in tightening_stream(seed, n, 2 * n):
                if R1[x, y] and D1[x, y] + c < 0:
                    continue
                got = kernels.relax_edge(D1, R1, n, x, y, c)
                want = reference_relax(D2, R2, n, x, y, c)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                logs.append(got)
            assert np.array_equal(D1, D2) and np.array_equal(R1, R2)
            # the stream exercised unreachable cells and tightenings
            assert not R1[:n, :n].all()
            assert any(old_r.any() for *_, old_r in logs)
            for ii, jj, od, orr in reversed(logs):
                D1[ii, jj] = od
                R1[ii, jj] = orr
            D0, R0 = fresh_state(cap)
            assert np.array_equal(D1, D0) and np.array_equal(R1, R0)


def load_theory(max_vertices):
    """Execute theory.py as a fresh module with another vertex limit."""
    with open(theory.__file__) as f:
        source = f.read()
    line = f"MAX_VERTICES = {theory.MAX_VERTICES}\n"
    assert source.count(line) == 1
    source = source.replace(line, f"MAX_VERTICES = {max_vertices}\n")
    module = types.ModuleType("idlsmt.theory_probe")
    module.__package__ = "idlsmt"
    exec(compile(source, theory.__file__, "exec"), module.__dict__)
    return module


class TestVertexLimitGuard:
    """Raising MAX_VERTICES fails at import time where the int16 undo-log
    indices or the int64 path sums would no longer hold, never silently."""

    def test_current_limit_loads(self):
        assert load_theory(theory.MAX_VERTICES).MAX_VERTICES == 1024

    def test_indices_past_int16_fail_at_import(self):
        with pytest.raises(ImportError, match="int16 undo-log indices"):
            load_theory(np.iinfo(np.int16).max + 1)

    def test_path_sums_past_int64_fail_at_import(self):
        # (2n - 1) * 2^52 outgrows int64 from n = 1,025 on
        with pytest.raises(ImportError, match="path sums overflow int64"):
            load_theory(1025)
