import random
import types
from collections import Counter

import numpy as np
import pytest

from idlsmt import kernels, theory
from idlsmt.kernels import NO_PATH
from idlsmt.normalize import CONST_MAX, CONST_MIN


def fresh_state(n):
    D = np.full((n, n), NO_PATH, dtype=np.int64)
    np.fill_diagonal(D, 0)
    return D


def relax(D, n, x, y, c):
    """The undo entry of one logged relax_edge call, whose changed-cell
    count it checks against the entry's."""
    changed, entry, _ = kernels.relax_edge(D, D.reshape(-1), n, x, y, c)
    assert changed == (entry[1] if len(entry) == 2 else len(entry[0]))
    return entry


def undo(D, entry):
    """Restore the cells one relax_edge call changed, as the engine's
    backtrack does: a whole old block, or the logged cells."""
    if len(entry) == 2:
        old, _ = entry
        D[:len(old), :len(old)] = old
    else:
        ii, jj, od = entry
        D[ii, jj] = od


def random_stream(seed, n, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.sample(range(n), 2)
        out.append((x, y, rng.randint(-4, 12)))
    return out


class TestNumpyKernel:
    def test_edge_itself_enters(self):
        D = fresh_state(3)
        old, changed = relax(D, 3, 1, 0, 5)
        assert changed == 1
        assert np.array_equal(old, fresh_state(3))
        assert np.argwhere(D != old).tolist() == [[0, 1]]
        assert D[0, 1] == 5

    def test_no_path_is_absorbing(self):
        # unreachable intermediate cells contribute no candidates, although
        # NO_PATH plus the negative weight is below NO_PATH
        D = fresh_state(3)
        _, changed = relax(D, 3, 1, 0, -7)
        assert changed == 1
        want = fresh_state(3)
        want[0, 1] = -7
        assert np.array_equal(D, want)

    def test_tightening_updates_and_logs_previous(self):
        D = fresh_state(2)
        relax(D, 2, 1, 0, 9)
        old, changed = relax(D, 2, 1, 0, 4)
        assert D[0, 1] == 4 and changed == 1
        assert old[0, 1] == 9

    def test_undo_restores_exactly(self):
        D = fresh_state(5)
        stream = random_stream(3, 5, 12)
        states, log = [], []
        for x, y, c in stream:
            if D[x, y] + c < 0:
                continue
            states.append(D.copy())
            log.append(relax(D, 5, x, y, c))
        for state, entry in zip(reversed(states), reversed(log)):
            undo(D, entry)
            assert np.array_equal(D, state)
        assert np.array_equal(D, fresh_state(5))

    @pytest.mark.parametrize("n", [5, kernels.BLOCK_MIN_N - 1])
    def test_small_closure_saves_its_old_block(self, n):
        # a copy of the leading n x n block of a wider matrix, 8 bytes a
        # cell: 8 * 47^2 = 17,672 bytes at most
        D = fresh_state(n + 3)
        old, changed = relax(D, n, 1, 0, 5)
        assert changed == 1 and old.dtype == np.int64
        assert old.shape == (n, n) and old.flags.c_contiguous
        assert old.base is None and old.nbytes == 8 * n * n <= 17672
        assert np.array_equal(old, fresh_state(n))

    @pytest.mark.parametrize("n", [kernels.BLOCK_MIN_N])
    def test_undo_log_cell_is_12_bytes(self, n):
        # the block form logs int16 indices
        D = fresh_state(n)
        log = relax(D, n, 1, 0, 5)
        assert [a.dtype for a in log] == [np.int16, np.int16, np.int64]
        assert sum(a.itemsize for a in log) == kernels.UNDO_CELL_BYTES == 12


def reference_relax(D, n, x, y, c):
    """Plain full-block relaxation, the contract of relax_edge: int16 rows
    and columns, int64 old distances, no candidate through a no-path
    cell."""
    Dv = D[:n, :n]
    cand = (Dv[:, y] + c)[:, None] + Dv[x, :][None, :]
    valid = (Dv[:, y] < NO_PATH)[:, None] & (Dv[x, :] < NO_PATH)[None, :]
    ii, jj = np.nonzero(valid & (cand < Dv))
    old_d = Dv[ii, jj].copy()
    Dv[ii, jj] = cand[ii, jj]
    return ii.astype(np.int16), jj.astype(np.int16), old_d


def shape(entry):
    """The cells a cell log names: one "cell", one "row" or one "column"
    of several, a general "block" of several rows and columns, or none."""
    ii, jj, _ = entry
    if not len(ii):
        return "none"
    one_row, one_col = (ii == ii[0]).all(), (jj == jj[0]).all()
    if one_row and one_col:
        return "cell"
    return "row" if one_row else "column" if one_col else "block"


SHAPES = ("cell", "row", "column", "block")


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
    improve: below it, the old block and the count of the cells the
    reference logs; from there on, the reference's log itself, whether
    the kernel wrote one line of the closure or a general block."""

    @pytest.mark.parametrize("n", [kernels.BLOCK_MIN_N - 1,
                                   kernels.BLOCK_MIN_N,
                                   kernels.BLOCK_MIN_N + 1, 150])
    def test_same_closure_and_undo_log_as_full_block(self, n):
        cap = n + 7  # matrices wider than n, as the engine grows them
        shapes = Counter()
        for seed in range(3):
            D1 = fresh_state(cap)
            D2 = fresh_state(cap)
            logs, wants = [], []
            for x, y, c in tightening_stream(seed, n, 2 * n):
                if D1[x, y] + c < 0:
                    continue
                before = D2[:n, :n].copy()
                got = relax(D1, n, x, y, c)
                want = reference_relax(D2, n, x, y, c)
                if n < kernels.BLOCK_MIN_N:
                    assert np.array_equal(got[0], before)
                    assert got[1] == len(want[0])
                else:
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    shapes[shape(got)] += 1
                logs.append(got)
                wants.append(want)
            assert np.array_equal(D1, D2)
            # the stream exercised unreachable cells and tightenings
            assert (D1[:n, :n] == NO_PATH).any()
            assert any((od < NO_PATH).any() for *_, od in wants)
            for entry in reversed(logs):
                undo(D1, entry)
            assert np.array_equal(D1, fresh_state(cap))
        if n >= kernels.BLOCK_MIN_N:
            # each line form and the general block were checked, 44 times
            # at the least (one row at n = 48)
            assert min(shapes[k] for k in SHAPES) >= 40, shapes

    @pytest.mark.parametrize("n", [kernels.BLOCK_MIN_N - 1,
                                   kernels.BLOCK_MIN_N + 1])
    def test_the_log_off_writes_the_same_closure(self, n):
        # a level-0 commit builds no undo entry: the same cells change to
        # the same bits, counted alike, and no array comes back. The
        # finite flag each call returns goes into the next, so below
        # BLOCK_MIN_N the unmasked form runs on both sides too.
        kinds = Counter()
        for seed in range(3):
            D1, D2 = fresh_state(n + 5), fresh_state(n + 5)
            finite = False
            for x, y, c in tightening_stream(seed, n, 8 * n):
                if D1[x, y] + c < 0 or D1[y, x] <= c:
                    continue  # the engine makes no kernel call for these
                on = kernels.relax_edge(D1, D1.reshape(-1), n, x, y, c,
                                        finite)
                off = kernels.relax_edge(D2, D2.reshape(-1), n, x, y, c,
                                         finite, log=False)
                assert D1.tobytes() == D2.tobytes()
                assert off == (on[0], None, on[2])
                assert not any(isinstance(v, np.ndarray) for v in off)
                kinds["finite" if finite else "masked"] += 1
                if n >= kernels.BLOCK_MIN_N:
                    kinds[shape(on[1])] += 1
                finite = on[2]
        if n >= kernels.BLOCK_MIN_N:
            assert min(kinds[k] for k in SHAPES) >= 100, kinds
            assert kinds["finite"] == 0
        else:
            assert min(kinds["finite"], kinds["masked"]) >= 100, kinds


def python_closure(n, edges):
    """Floyd-Warshall over Python ints, None for no path, or None for the
    whole closure when the edges close a negative cycle."""
    d = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for u, v, w in edges:
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                if dk[j] is not None and (di[j] is None
                                          or dik + dk[j] < di[j]):
                    di[j] = dik + dk[j]
    if any(d[i][i] < 0 for i in range(n)):
        return None
    return d


def engine_closure(e):
    """The engine's closure as Python ints, None for no path."""
    return [[d if d < NO_PATH else None for d in row]
            for row in e._d[:e.n, :e.n].tolist()]


def live_closure(e):
    """The Python-int closure of the engine's live edges."""
    return python_closure(e.n, [(u, v, hist[-1][0])
                                for u, out in enumerate(e.edges)
                                for v, hist in out.items()])


def extreme_stream(seed, n, count):
    """Random edges, most of them weighted at the ends of the constant
    range, where a wrapped sum or a sum through a no-path cell is largest."""
    rng = random.Random(seed)
    ends = (CONST_MIN, CONST_MIN + 1, CONST_MAX - 1, CONST_MAX)
    out = []
    for _ in range(count):
        x, y = rng.sample(range(n), 2)
        c = rng.choice(ends) if rng.random() < 0.8 else rng.randint(-9, 9)
        out.append((x, y, c))
    return out


class TestOracle:
    @pytest.mark.parametrize("n", [6, kernels.BLOCK_MIN_N - 1,
                                   kernels.BLOCK_MIN_N + 1])
    def test_extreme_weights_match_python_int_closure(self, n):
        shapes, lines_past_no_path = Counter(), Counter()
        for seed in range(3):
            D = fresh_state(n + 3)
            D2 = D.copy()
            edges, logs = [], []
            for x, y, c in extreme_stream(seed, n, 3 * n):
                if D[x, y] + c < 0:
                    continue  # closes a negative cycle
                edges.append((y, x, c))
                logs.append(relax(D, n, x, y, c))
                if n >= kernels.BLOCK_MIN_N:
                    ref = reference_relax(D2, n, x, y, c)
                    for a, b in zip(logs[-1], ref):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    kind = shape(ref)
                    shapes[kind] += 1
                    lines_past_no_path[kind] += (ref[2] == NO_PATH).any()
            want = python_closure(n, edges)
            assert want is not None
            got = [[d if d < NO_PATH else None for d in row]
                   for row in D[:n, :n].tolist()]
            assert got == want
            # the stream chained extreme weights, left no-path cells and
            # rejected edges that closed a negative cycle
            finite = [d for row in want for d in row if d is not None]
            assert max(map(abs, finite)) > 3 * 2 ** 51
            assert None in sum(want, [])
            assert len(edges) < 3 * n
            for entry in reversed(logs):
                undo(D, entry)
            assert np.array_equal(D, fresh_state(n + 3))
        if n >= kernels.BLOCK_MIN_N:
            # every form ran, 61 times at the least, and the lines at the
            # extreme weights also wrote cells that had no path, 54 rows
            # and 70 columns
            assert min(shapes[k] for k in SHAPES) >= 40, shapes
            assert min(lines_past_no_path["row"],
                       lines_past_no_path["column"]) >= 40

    def test_a_restored_block_brings_its_no_path_cells_back(self):
        # a level-1 ring makes the block finite; the backtrack restores the
        # whole block from before it, no-path cells included, so the next
        # commit masks them. Unmasked, it would write NO_PATH - 7 into the
        # cells whose path into vertex 2 does not exist.
        n = 6
        e = theory.DifferenceEngine()
        e.ensure_vertex(n - 1)
        base = [(1, 0, 4), (2, 1, 4)]
        for lit, (x, y, c) in enumerate(base, 1):
            e.assert_atom(x, y, c, lit, 0)
        assert not e.finite
        for lit, k in enumerate(range(n), 10):
            e.assert_atom((k + 1) % n, k, 5, lit, 1)
        assert e.finite
        e.backtrack_to(0)
        assert not e.finite and (e._d[:n, :n] == NO_PATH).any()
        e.assert_atom(3, 2, -7, 20, 0)
        edges = [(y, x, c) for x, y, c in base + [(3, 2, -7)]]
        assert engine_closure(e) == python_closure(n, edges)

    @pytest.mark.parametrize("n0", [8, kernels.BLOCK_MIN_N - 3])
    def test_flag_and_log_fuzz_matches_python_int_closure(self, n0):
        # new vertices, commits at level 0 (no undo log) and above it,
        # and backtracks, interleaved; from n0 = 45 the closure crosses
        # BLOCK_MIN_N. The flag never claims a block that holds NO_PATH,
        # and the closure matches one built from the live edges after a
        # quarter of the backtracks and at the end.
        rng = random.Random(n0)
        seen, past = Counter(), 0
        for _ in range(6):
            e = theory.DifferenceEngine()
            e.ensure_vertex(n0 - 1)
            for k in range(n0):  # a level-0 ring: the n0 x n0 block is finite
                e.assert_atom((k + 1) % n0, k, 3 * n0, -k - 1, 0)
            level = 0
            for lit in range(1, 30 * n0):
                roll = rng.random()
                if roll < 0.005:
                    e.ensure_vertex(e.n + rng.randrange(2))
                elif roll < 0.8:
                    x, y = rng.sample(range(e.n), 2)
                    c = rng.randint(-2, 3 * e.n)
                    flag, cells = e.finite, e.cell_updates
                    if e.assert_atom(x, y, c, lit, level) is None \
                            and e.cell_updates > cells:
                        seen["unmasked" if flag else "masked"] += 1
                        seen[f"level {min(level, 1)}"] += 1
                elif roll < 0.9:
                    level += 1
                elif level:
                    level = rng.randrange(level)
                    e.backtrack_to(level)
                    seen["backtrack"] += 1
                    if rng.random() < 0.25:
                        assert engine_closure(e) == live_closure(e)
                assert not e.finite or (e._d[:e.n, :e.n] < NO_PATH).all()
            assert engine_closure(e) == live_closure(e)
            past += e.n >= kernels.BLOCK_MIN_N
        assert len(seen) == 5 and min(seen.values()) >= 30, seen
        assert past == (6 if n0 > 8 else 0)

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
    """Raising MAX_VERTICES, or moving NO_PATH, fails at import time where
    the int16 undo-log indices, the gap between finite paths and the
    no-path sentinel, or the int64 kernel sums would no longer hold, never
    silently."""

    def test_current_limit_loads(self):
        assert load_theory(theory.MAX_VERTICES).MAX_VERTICES == 1024

    def test_indices_past_int16_fail_at_import(self):
        with pytest.raises(ImportError, match="int16 undo-log indices"):
            load_theory(np.iinfo(np.int16).max + 1)

    def test_paths_reaching_the_sentinel_fail_at_import(self):
        # (n - 1) * 2^52 reaches NO_PATH = 2^62 - 2^51 from n = 1,025 on
        with pytest.raises(ImportError,
                           match="path sums reach the no-path sentinel"):
            load_theory(1025)

    def test_sentinel_sums_past_int64_fail_at_import(self, monkeypatch):
        # 2 * NO_PATH + CONST_MAX is 2^63 - 1 today; one more overflows
        monkeypatch.setattr(kernels, "NO_PATH", kernels.NO_PATH + 1)
        with pytest.raises(ImportError, match="overflow int64"):
            load_theory(theory.MAX_VERTICES)
