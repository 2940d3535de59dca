import importlib
import os
import random

import numpy as np
import pytest

from idlsmt import kernels


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


def apply_stream(relax, n, stream):
    D, R = fresh_state(n)
    logs = []
    for x, y, c in stream:
        if R[x, y] and D[x, y] + c < 0:
            continue  # keep the state consistent, as the engine does
        logs.append(relax(D, R, n, x, y, c))
    return D, R, logs


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
class TestBackendEquivalence:
    def test_identical_matrices_and_undo_logs(self):
        for seed in range(8):
            n = random.Random(seed).randint(2, 12)
            stream = random_stream(seed, n, 40)
            d1, r1, logs1 = apply_stream(kernels.relax_edge_numpy, n, stream)
            d2, r2, logs2 = apply_stream(kernels.relax_edge_numba, n, stream)
            assert np.array_equal(d1, d2) and np.array_equal(r1, r2)
            assert len(logs1) == len(logs2)
            for (a, b, c, d), (e, f, g, h) in zip(logs1, logs2):
                # both scan row-major, so the logs match entry for entry
                assert np.array_equal(a, e) and np.array_equal(b, f)
                assert np.array_equal(c, g) and np.array_equal(d, h)

    def test_scratch_buffers_are_optional(self):
        D, R = fresh_state(4)
        m = 16
        scratch = (np.empty(m, np.int64), np.empty(m, np.int64),
                   np.empty(m, np.int64), np.empty(m, np.bool_))
        out = kernels.relax_edge_numba(D, R, 4, 1, 0, 3, scratch)
        assert len(out[0]) == 1


class TestNumpyKernel:
    def test_edge_itself_enters(self):
        D, R = fresh_state(3)
        ii, jj, od, orr = kernels.relax_edge_numpy(D, R, 3, 1, 0, 5)
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1)]
        assert D[0, 1] == 5 and R[0, 1]
        assert not orr[0]

    def test_no_path_is_absorbing(self):
        # unreachable intermediate cells contribute no candidates
        D, R = fresh_state(3)
        kernels.relax_edge_numpy(D, R, 3, 1, 0, -7)
        assert not R[1, 0] and not R[2, 0] and not R[0, 2]
        assert D[1, 0] == 0  # untouched storage under a no-path cell

    def test_tightening_updates_and_logs_previous(self):
        D, R = fresh_state(2)
        kernels.relax_edge_numpy(D, R, 2, 1, 0, 9)
        ii, jj, od, orr = kernels.relax_edge_numpy(D, R, 2, 1, 0, 4)
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
            log.append(kernels.relax_edge_numpy(D, R, 5, x, y, c))
        for ii, jj, od, orr in reversed(log):
            D[ii, jj] = od
            R[ii, jj] = orr
        assert np.array_equal(D, before[0]) and np.array_equal(R, before[1])


def reference_relax(D, R, n, x, y, c):
    """Plain full-block relaxation, the contract of relax_edge_numpy."""
    Dv, Rv = D[:n, :n], R[:n, :n]
    cand = (Dv[:, y] + c)[:, None] + Dv[x, :][None, :]
    valid = Rv[:, y][:, None] & Rv[x, :][None, :]
    ii, jj = np.nonzero(valid & (~Rv | (cand < Dv)))
    old_d, old_r = Dv[ii, jj].copy(), Rv[ii, jj].copy()
    Dv[ii, jj] = cand[ii, jj]
    Rv[ii, jj] = True
    return ii, jj, old_d, old_r


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
    """relax_edge_numpy against the full-block reference on both sides of
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
                got = kernels.relax_edge_numpy(D1, R1, n, x, y, c)
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


class TestBackendSelection:
    def test_env_flag_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("IDLSMT_KERNEL", "numpy")
        mod = importlib.reload(kernels)
        try:
            assert mod.BACKEND == "numpy"
            assert mod.relax_edge is mod.relax_edge_numpy
        finally:
            monkeypatch.delenv("IDLSMT_KERNEL")
            importlib.reload(kernels)

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("IDLSMT_KERNEL", "fortran")
        with pytest.raises(ValueError):
            importlib.reload(kernels)
        monkeypatch.delenv("IDLSMT_KERNEL")
        importlib.reload(kernels)

    def test_default_prefers_numba_when_available(self):
        assert kernels.BACKEND in kernels.available_backends()
        if kernels.HAVE_NUMBA and not os.environ.get("IDLSMT_KERNEL"):
            assert kernels.BACKEND == "numba"
