import random
from collections import Counter

import numpy as np
import pytest

from idlsmt.kernels import BLOCK_MIN_N, NO_PATH
from idlsmt.sat import InternalError
from idlsmt.theory import MAX_VERTICES, DifferenceEngine, TooManyVertices
from idlsmt.testkit import bellman_ford_consistent, scratch_floyd_warshall


def engine(n):
    e = DifferenceEngine()
    if n:
        e.ensure_vertex(n - 1)
    return e


def committed_edges(e):
    return [(u, v, hist[-1][0]) for u, out in enumerate(e.edges)
            for v, hist in out.items()]


def matrices_equal(e, ref):
    if ref is None:
        return False
    D, R = ref
    return np.array_equal(e._d[:e.n, :e.n], np.where(R, D, NO_PATH))


def line_shape(undo):
    """"row" or "column" for a cell log of one row or one column of two
    or more cells, the kernel's direct line writes; else None."""
    ii, jj, _ = undo
    if len(ii) < 2:
        return None
    return "row" if (ii == ii[0]).all() else (
        "column" if (jj == jj[0]).all() else None)


def assert_closure_invariants(e):
    """Zero diagonal, no-path cells at exactly NO_PATH, and no pair that a
    third vertex would shorten."""
    n = e.n
    d = e._d[:n, :n]
    assert (np.diagonal(d) == 0).all()
    finite = d < NO_PATH
    assert (d[~finite] == NO_PATH).all()
    for k in range(n):
        via = finite[:, k][:, None] & finite[k, :][None, :]
        assert not (via & (d[:, k][:, None] + d[k, :][None, :] < d)).any()


class TestVertices:
    def test_fresh_engine_zero_vertex(self):
        e = DifferenceEngine()
        e.ensure_vertex(0)
        assert e.n == 1
        assert e.dist(0, 0) == 0

    def test_three_vertices_no_paths(self):
        e = engine(3)
        for i in range(3):
            for j in range(3):
                assert e.dist(i, j) == (0 if i == j else None)

    def test_growth_preserves_state(self):
        e = engine(2)
        e.assert_atom(1, 0, 5, lit=10, level=0)
        e.ensure_vertex(40)
        assert e.dist(0, 1) == 5
        assert e.dist(40, 40) == 0
        assert e.dist(1, 40) is None

    def test_vertex_cap(self):
        e = DifferenceEngine()
        with pytest.raises(TooManyVertices):
            e.ensure_vertex(MAX_VERTICES)


class TestAssert:
    def test_single_edge(self):
        # x - y <= 3 becomes edge y -> x; nothing else moves
        e = engine(2)
        x, y = 0, 1
        assert e.assert_atom(x, y, 3, lit=7, level=1) is None
        assert e.dist(y, x) == 3
        assert e.dist(x, y) is None
        assert e.dist(x, x) == 0 and e.dist(y, y) == 0

    def test_tight_equality_chain(self):
        e = engine(2)
        x, y = 0, 1
        assert e.assert_atom(x, y, 3, lit=7, level=1) is None
        assert e.assert_atom(y, x, -3, lit=8, level=1) is None
        assert e.dist(x, y) == -3
        assert e.dist(y, x) == 3
        assert e.dist(x, x) == 0 and e.dist(y, y) == 0

    def test_two_atom_negative_cycle(self):
        e = engine(2)
        x, y = 0, 1
        e.assert_atom(x, y, 3, lit=7, level=1)
        e.assert_atom(y, x, -3, lit=8, level=1)
        before = e.snapshot()
        confl = e.assert_atom(y, x, -4, lit=9, level=1)
        assert confl == [7, 9]
        assert e.snapshot() == before  # conflict commits nothing

    def test_three_atom_cycle(self):
        # x<=y+1, y<=z+1, z<=x-3: total weight -1
        e = engine(3)
        x, y, z = 0, 1, 2
        assert e.assert_atom(x, y, 1, lit=11, level=1) is None
        assert e.assert_atom(y, z, 1, lit=12, level=1) is None
        confl = e.assert_atom(z, x, -3, lit=13, level=1)
        assert confl is not None
        assert set(confl) == {11, 12, 13}

    def test_redundant_weaker_parallel_edge(self):
        e = engine(2)
        e.assert_atom(0, 1, 2, lit=5, level=1)
        before = e.snapshot()
        assert e.assert_atom(0, 1, 7, lit=6, level=2) is None
        assert e.snapshot() == before
        e.backtrack_to(1)
        assert e.snapshot() == before

    def test_entailed_bound_skips_the_kernel(self):
        e = engine(4)
        e.assert_atom(1, 0, 2, lit=1, level=1)
        e.assert_atom(2, 1, 3, lit=2, level=1)
        before = e.snapshot()
        updates, stamp = e.cell_updates, e.stamp
        # 2 - 0 <= 6 follows from the path 0 -> 1 -> 2 of weight 5
        assert e.assert_atom(2, 0, 6, lit=3, level=2) is None
        assert e.cell_updates == updates
        assert e._trail[-1] == (2, (0, 2), None)
        assert e.stamp == stamp + 1
        assert e.edges[0][2] == [(6, 3, e.stamp)]
        assert e.explain_path(0, 2, 6, stamp=e.stamp) == [1, 2]
        assert e.explain_path(0, 2, 5, stamp=e.stamp) == [1, 2]
        e.backtrack_to(1)
        assert e.snapshot() == before

    def test_tightening_parallel_edge(self):
        e = engine(2)
        e.assert_atom(0, 1, 7, lit=5, level=1)
        e.assert_atom(0, 1, 2, lit=6, level=2)
        assert e.dist(1, 0) == 2
        e.backtrack_to(1)
        assert e.dist(1, 0) == 7

    def test_conflict_certificate_sums_negative(self):
        rng = random.Random(4)
        meta = {}
        for round_ in range(200):
            n = rng.randint(2, 7)
            e = engine(n)
            meta.clear()
            nextlit = 100
            for _ in range(rng.randint(2, 25)):
                x, y = rng.sample(range(n), 2)
                c = rng.randint(-8, 8)
                nextlit += 1
                meta[nextlit] = (x, y, c)
                confl = e.assert_atom(x, y, c, lit=nextlit, level=1)
                if confl is not None:
                    total = sum(meta[l][2] for l in confl)
                    assert total < 0
                    # the cited bounds besides the new one are all asserted
                    assert all(l in meta for l in confl)
                    break

    def test_matches_scratch_closure_after_every_ok(self):
        rng = random.Random(12)
        for round_ in range(40):
            n = rng.randint(3, 8)
            e = engine(n)
            lit = 0
            for _ in range(30):
                x, y = rng.sample(range(n), 2)
                c = rng.randint(-8, 8)
                lit += 1
                res = e.assert_atom(x, y, c, lit=lit, level=1)
                if res is None:
                    ref = scratch_floyd_warshall(n, committed_edges(e))
                    assert matrices_equal(e, ref)

    def test_monotone_distances(self):
        rng = random.Random(13)
        n = 6
        e = engine(n)
        prev = e._d[:n, :n].copy()
        for lit in range(1, 40):
            x, y = rng.sample(range(n), 2)
            if e.assert_atom(x, y, rng.randint(-6, 6), lit=lit, level=1) is None:
                d = e._d[:n, :n]
                # no cell grows, so reachability only grows too
                assert (d <= prev).all()
                prev = d.copy()

    def test_invariants_full_scan(self):
        rng = random.Random(14)
        n = 7
        e = engine(n)
        for lit in range(1, 60):
            x, y = rng.sample(range(n), 2)
            e.assert_atom(x, y, rng.randint(-5, 9), lit=lit, level=1)
            assert_closure_invariants(e)


class TestBacktrack:
    def test_single_level_round_trip(self):
        e = engine(3)
        before = e.snapshot()
        e.assert_atom(0, 1, 4, lit=3, level=1)
        e.backtrack_to(0)
        assert e.snapshot() == before

    def test_partial_undo(self):
        e = engine(3)
        e.assert_atom(0, 1, 4, lit=3, level=1)
        mid = e.snapshot()
        e.assert_atom(1, 2, -2, lit=4, level=2)
        e.assert_atom(2, 0, 1, lit=5, level=2)
        e.backtrack_to(1)
        assert e.snapshot() == mid

    def test_level_zero_survives(self):
        e = engine(2)
        e.assert_atom(0, 1, 4, lit=3, level=0)
        e.backtrack_to(0)
        assert e.dist(1, 0) == 4

    @pytest.mark.parametrize("n", [4, BLOCK_MIN_N + 4])
    def test_level_zero_commits_keep_no_undo_entry(self, n):
        # no backtrack undoes a level-0 commit, so neither kind of undo
        # entry is kept for one: relaxing, entailed or a repeated bound.
        # Commits above level 0 keep theirs, and backtracking to level 0
        # restores the state the level-0 commits left, bit for bit
        e = engine(n)
        e.assert_atom(1, 0, 5, lit=1, level=1)
        e.backtrack_to(0)
        chain = [(k + 1, k, -1) for k in range(n - 1)]
        for lit, (x, y, c) in enumerate(chain + [(n - 1, 0, 0)] + chain, 2):
            assert e.assert_atom(x, y, c, lit=lit, level=0) is None
            assert e.undo_size() == (0, 0) and not e._trail
        assert e.dist(0, n - 1) == -(n - 1)
        base = e.snapshot()
        e.assert_atom(0, n - 1, n, lit=99, level=1)
        e.assert_atom(2, 0, 0, lit=100, level=2)
        assert e.undo_size()[0] > 0
        e.backtrack_to(0)
        assert e.snapshot() == base and e.undo_size() == (0, 0)

    @pytest.mark.parametrize("logged", [False, True])
    def test_new_vertices_over_a_finite_block_clear_the_flag(self, logged):
        # a finite 2 x 2 block at level 0 (with ``logged``, a level-1
        # commit saves it whole) gains vertices 2 and 3; after the
        # backtrack to 0 the flag is off, so the commit through vertex 2
        # masks the no-path cell (3, 2). Unmasked, it would write
        # NO_PATH - 5 into (3, 0).
        e = engine(2)
        e.assert_atom(1, 0, 3, lit=1, level=0)
        e.assert_atom(0, 1, 2, lit=2, level=0)
        assert e.finite
        if logged:
            e.assert_atom(1, 0, 1, lit=3, level=1)
            assert e.finite and e.undo_size() == (4, 32)
        e.ensure_vertex(3)
        assert not e.finite
        e.backtrack_to(0)
        assert not e.finite
        e.assert_atom(0, 2, -5, lit=4, level=0)
        assert matrices_equal(e, scratch_floyd_warshall(4, committed_edges(e)))

    def test_hundred_step_fuzz_matches_scratch(self):
        rng = random.Random(15)
        # the last round is big enough for the kernel's I x J block form
        for round_ in range(26):
            n = rng.randint(3, 8) if round_ < 25 else BLOCK_MIN_N + 12
            self.fuzz_round(rng, n)
        # a pass that also asserts bounds the closure already entails
        rng = random.Random(16)
        for n in (6, BLOCK_MIN_N + 12):
            kinds = self.fuzz_round(rng, n, entail=0.4)
            assert kinds["edge"] >= 10
            assert kinds["no tighter"] and kinds["level 0"]

    @staticmethod
    def fuzz_round(rng, n, entail=0.0):
        """100 random steps, then the closure against a scratch one. With
        ``entail``, that share of the assertions picks a bound the closure
        entails; those must change no cell and undo exactly, and each one
        logged as an edge is asserted again no tighter, which must change
        nothing. Returns how many were logged as edges ("edge"), how many
        came at level 0, and how many repeats were made ("no tighter")."""
        e = engine(n)
        level = 0
        lit = 0
        kinds = Counter()
        closed = []  # closed[k]: the state when level k was left
        for _ in range(100):
            roll = rng.random()
            if roll < 0.55:
                x, y = rng.sample(range(n), 2)
                lit += 1
                c = rng.randint(-8, 8)
                if entail and rng.random() < entail:
                    # a path without a direct edge, so the bound is new
                    reach = [(i, j) for i, j
                             in np.argwhere(e._d[:n, :n] < NO_PATH).tolist()
                             if i != j and j not in e.edges[i]]
                    y, x = rng.choice(reach or [(y, x)])
                    if e.dist(y, x) is not None:
                        c = e.dist(y, x) + rng.randint(0, 2)
                updates, implied = e.cell_updates, e.holds(x, y, c)
                stamp, logged = e.stamp, len(e._trail)
                e.assert_atom(x, y, c, lit=lit, level=level)
                if entail and implied:
                    # no undo arrays; an entry for the edge above level 0
                    assert e.cell_updates == updates
                    recorded = e.stamp > stamp
                    assert e._trail[logged:] == (
                        [(level, (y, x), None)] if recorded and level else [])
                    kinds["edge"] += recorded
                    kinds["level 0"] += not level
                    if recorded:
                        # the same edge no tighter: no stamp, no entry
                        before = e.snapshot(), e.stamp, e._trail[:]
                        e.assert_atom(x, y, c + lit % 3, lit=-lit, level=level)
                        assert (e.snapshot(), e.stamp, e._trail) == before
                        kinds["no tighter"] += 1
            elif roll < 0.8:
                level += 1
                closed.append(e.snapshot())
            elif level > 0:
                level = rng.randrange(level)
                e.backtrack_to(level)
                if entail:
                    assert e.snapshot() == closed[level]
                del closed[level:]
        ref = scratch_floyd_warshall(n, committed_edges(e))
        assert matrices_equal(e, ref)
        return kinds


    def test_undo_across_the_block_switch(self):
        """The closure grows past BLOCK_MIN_N mid-trail, so the trail holds
        whole-block entries from below the growth and cell logs from above
        it; each backtrack restores the state its level was opened in, bit
        for bit, the later vertices' rows and columns still empty."""
        rng = random.Random(41)
        through_both = 0
        lines = Counter()
        for _ in range(40):
            n0 = rng.randint(3, 12)
            e = engine(n0)
            level = 0
            closed = []  # (n, leading n x n block) when level k was left
            grow_at = rng.randint(20, 40)
            for step in range(160):
                if step == grow_at:
                    e.ensure_vertex(BLOCK_MIN_N + rng.randrange(8))
                roll = rng.random()
                if roll < 0.55:
                    # half the bounds among the first vertices, so the cell
                    # logs also rewrite cells the whole blocks hold
                    pool = n0 if rng.random() < 0.5 else e.n
                    x, y = rng.sample(range(pool), 2)
                    e.assert_atom(x, y, rng.randint(-8, 8), lit=step + 1,
                                  level=level)
                elif roll < 0.8:
                    level += 1
                    closed.append((e.n, e._d[:e.n, :e.n].copy()))
                elif level > 0:
                    level = rng.randrange(level)
                    # a whole block is (old, count), a cell log 3 arrays
                    undos = [undo for lv, _, undo in e._trail
                             if lv > level and undo is not None]
                    through_both += {len(undo) for undo in undos} == {2, 3}
                    lines.update(line_shape(undo) for undo in undos
                                 if len(undo) == 3)
                    e.backtrack_to(level)
                    m, block = closed[level]
                    want = np.full((e.n, e.n), NO_PATH, dtype=np.int64)
                    np.fill_diagonal(want, 0)
                    want[:m, :m] = block
                    assert np.array_equal(e._d[:e.n, :e.n], want)
                    del closed[level:]
            assert e.n >= BLOCK_MIN_N
            assert matrices_equal(
                e, scratch_floyd_warshall(e.n, committed_edges(e)))
        assert through_both >= 10
        # the cell logs undone include the kernel's one-row and one-column
        # writes
        assert min(lines["row"], lines["column"]) >= 200, lines

    def test_line_logs_undo_level_by_level(self):
        """Above BLOCK_MIN_N many commits improve one row or one column of
        the closure, which the kernel writes without a block mask; popping
        one level at a time through such cell logs restores each level's
        snapshot, edges included."""
        rng = random.Random(43)
        lines = Counter()
        for _ in range(10):
            e = engine(BLOCK_MIN_N + rng.randrange(16))
            lit = 0
            snapshots = []  # snapshots[k]: the state when level k was left
            for level in range(1, 25):
                snapshots.append(e.snapshot())
                for _ in range(rng.randint(1, 4)):
                    lit += 1
                    x, y = rng.sample(range(e.n), 2)
                    e.assert_atom(x, y, rng.randint(-8, 8), lit=lit,
                                  level=level)
            lines.update(line_shape(undo) for _, _, undo in e._trail
                         if undo is not None)
            for level in reversed(range(len(snapshots))):
                e.backtrack_to(level)
                assert e.snapshot() == snapshots[level]
            assert not e._trail
        assert min(lines["row"], lines["column"]) >= 100, lines


class TestExplain:
    def test_two_atom_cycle_explained(self):
        # x - y <= 3 is the edge y -> x, witnessing the path y to x
        e = engine(2)
        e.assert_atom(0, 1, 3, lit=7, level=1)
        assert e.explain_path(1, 0, 3) == [7]

    def test_path_reconstruction_picks_support(self):
        e = engine(4)
        e.assert_atom(1, 0, 1, lit=21, level=1)  # edge 0 -> 1
        e.assert_atom(2, 1, 1, lit=22, level=1)  # edge 1 -> 2
        e.assert_atom(3, 2, 1, lit=23, level=1)  # edge 2 -> 3
        e.assert_atom(3, 0, 9, lit=24, level=1)  # direct but heavier
        assert e.explain_path(0, 3, 3) == [21, 22, 23]

    def test_stamp_restriction_uses_old_weight(self):
        e = engine(2)
        e.assert_atom(1, 0, 5, lit=31, level=1)  # edge 0 -> 1 weight 5
        t = e.stamp
        e.assert_atom(1, 0, 2, lit=32, level=2)  # tightened later
        assert e.explain_path(0, 1, 5, stamp=t) == [31]
        assert e.explain_path(0, 1, 2) == [32]

    def test_stamp_restriction_hides_later_edges(self):
        e = engine(3)
        e.assert_atom(1, 0, 1, lit=41, level=1)
        e.assert_atom(2, 1, 1, lit=42, level=1)
        t = e.stamp
        e.assert_atom(2, 0, 0, lit=43, level=2)  # shortcut arrives later
        assert e.explain_path(0, 2, 2, stamp=t) == [41, 42]

    def test_dropping_new_atom_restores_feasibility(self):
        rng = random.Random(16)
        hits = 0
        for round_ in range(300):
            n = rng.randint(2, 6)
            e = engine(n)
            meta = {}
            lit = 0
            for _ in range(25):
                x, y = rng.sample(range(n), 2)
                c = rng.randint(-6, 6)
                lit += 1
                confl = e.assert_atom(x, y, c, lit=lit, level=1)
                if confl is None:
                    meta[lit] = (x, y, c)
                    continue
                hits += 1
                cited = [meta[l] for l in confl if l in meta] + [(x, y, c)]
                assert bellman_ford_consistent(cited) is None
                without_new = [meta[l] for l in confl if l in meta]
                assert bellman_ford_consistent(without_new) is not None
                break
        assert hits > 50

    @pytest.mark.parametrize("n,seed", [(6, 17), (BLOCK_MIN_N + 12, 18)])
    def test_random_streams_match_scratch_closure(self, n, seed):
        # assert/backtrack streams; after each commit, explanations at a
        # random earlier stamp are compared with the closure of the edges
        # committed by then (each key at its tightest such weight)
        rng = random.Random(seed)
        rounds, steps = (40, 60) if n < BLOCK_MIN_N else (3, 200)
        restricted = 0
        for _ in range(rounds):
            e = engine(n)
            live = {}  # lit -> (level, stamp, tail, head, weight)
            stamps = []
            level = 0
            lit = 0
            for _ in range(steps):
                roll = rng.random()
                if roll < 0.25:
                    level += 1
                    continue
                if roll < 0.3:
                    level = max(0, level - rng.randint(1, 3))
                    e.backtrack_to(level)
                    live = {l: r for l, r in live.items() if r[0] <= level}
                    continue
                if live and roll < 0.5:  # tighten a committed bound
                    _, _, y, x, c = rng.choice(list(live.values()))
                    c -= rng.randint(1, 4)
                else:  # edges to near successors on a ring: long paths
                    y = rng.randrange(n)
                    x = (y + rng.randint(1, 3)) % n
                    c = rng.randint(-2, 12)
                lit += 1
                before = e.stamp
                if e.assert_atom(x, y, c, lit=lit, level=level) is not None:
                    continue
                if e.stamp == before:
                    continue  # a weaker parallel bound, not committed
                live[lit] = (level, e.stamp, y, x, c)
                stamps.append(e.stamp)
                for _ in range(3):
                    t = rng.choice(stamps + [None])
                    edges = [(u, v, w) for _, st, u, v, w in live.values()
                             if t is None or st <= t]
                    D, R = scratch_floyd_warshall(n, edges)
                    src = rng.randrange(n)
                    targets = [v for v in np.flatnonzero(R[src]).tolist()
                               if v != src]
                    if not targets:
                        continue
                    dst = rng.choice(targets)
                    want = int(D[src, dst])
                    if t is None:
                        assert want == e.dist(src, dst)
                    elif want != e.dist(src, dst):
                        restricted += 1
                    lits = e.explain_path(src, dst, want, stamp=t)
                    at = src
                    total = 0
                    for l in lits:
                        _, st, u, v, w = live[l]
                        assert t is None or st <= t
                        assert u == at
                        at = v
                        total += w
                    assert at == dst and total == want
                    with pytest.raises(InternalError):
                        e.explain_path(src, dst, want - 1, stamp=t)
        assert restricted > 50


def scan(e, xs, ys, cs):
    """``scan_implications`` on atoms given by vertices: each reads its
    flat cells, (y, x) that entails it and (x, y) that refutes it."""
    N = e._d.shape[1]
    return e.scan_implications(ys * N + xs, xs * N + ys, cs)


class TestImplications:
    def scan_one(self, e, x, y, c):
        pos, neg = scan(e, np.array([x]), np.array([y]), np.array([c]))
        return bool(pos[0]), bool(neg[0])

    def test_weakening_is_implied(self):
        e = engine(2)
        e.assert_atom(0, 1, 1, lit=7, level=1)
        assert self.scan_one(e, 0, 1, 5) == (True, False)

    def test_no_implication_without_path(self):
        e = engine(3)
        e.assert_atom(0, 1, 1, lit=7, level=1)
        e.assert_atom(1, 2, 1, lit=8, level=1)
        # for x - z <= 0: dist(z, x) = 2 > 0 and dist(x, z) is no-path
        assert self.scan_one(e, 0, 2, 0) == (False, False)

    def test_negative_implication(self):
        e = engine(2)
        e.assert_atom(0, 1, -5, lit=7, level=1)  # v0 - v1 <= -5
        # v1 - v0 >= 5, so any bound v1 - v0 <= k with k < 5 is refuted
        assert self.scan_one(e, 1, 0, 2) == (False, True)
        assert self.scan_one(e, 1, 0, 4) == (False, True)
        assert self.scan_one(e, 1, 0, 5) == (False, False)
        # nothing is known about tighter bounds in the asserted direction
        assert self.scan_one(e, 0, 1, -6) == (False, False)
        assert self.scan_one(e, 0, 1, -5) == (True, False)

    def test_clone_and_refute_random(self):
        # soundness and exhaustiveness in one: the scan flags an atom as
        # implied exactly when asserting its complement at a new level
        # conflicts (and dually for refuted atoms); the backtrack after
        # each trial leaves the engine as it was
        rng = random.Random(18)
        implied_seen = 0
        for round_ in range(60):
            n = rng.randint(2, 6)
            e = engine(n)
            lit = 0
            for _ in range(rng.randint(2, 12)):
                x, y = rng.sample(range(n), 2)
                lit += 1
                e.assert_atom(x, y, rng.randint(-5, 5), lit=lit, level=1)
            candidates = []
            for _ in range(12):
                x, y = rng.sample(range(n), 2)
                candidates.append((x, y, rng.randint(-5, 5)))
            xs = np.array([a[0] for a in candidates])
            ys = np.array([a[1] for a in candidates])
            cs = np.array([a[2] for a in candidates])
            pos, neg = scan(e, xs, ys, cs)
            before = e.snapshot()
            for k, (x, y, c) in enumerate(candidates):
                complement_conflicts = e.assert_atom(
                    y, x, -c - 1, lit=999, level=9) is not None
                e.backtrack_to(1)
                assert e.snapshot() == before
                atom_conflicts = e.assert_atom(
                    x, y, c, lit=999, level=9) is not None
                e.backtrack_to(1)
                assert e.snapshot() == before
                assert bool(pos[k]) == complement_conflicts
                assert bool(neg[k]) == atom_conflicts
                implied_seen += int(pos[k]) + int(neg[k])
        assert implied_seen > 30


class TestModel:
    def test_no_atoms_all_zero(self):
        e = engine(4)
        assert e.extract_model() == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_single_atom_inequality(self):
        e = engine(2)
        e.assert_atom(0, 1, 3, lit=5, level=1)
        m = e.extract_model()
        assert m[0] - m[1] <= 3
        assert m[0] == 0  # the zero variable is pinned

    def test_model_check_catches_a_corrupted_closure(self):
        e = engine(2)
        e.assert_atom(1, 0, -3, lit=5, level=1)  # edge 0 -> 1 weight -3
        e._d[0, 1] = NO_PATH  # the closure loses the path the edge gives
        with pytest.raises(InternalError):
            e.extract_model()

    def test_invariant_check_raises_an_internal_error(self):
        # the model reads the zero diagonal into every column minimum; a
        # lost zero breaks a committed bound, which the model check finds
        e = engine(3)
        e.assert_atom(1, 0, -3, lit=5, level=1)
        e.extract_model()
        e._d[0, 0] = -1
        with pytest.raises(InternalError, match="violates a committed bound"):
            e.extract_model()

    def test_random_consistent_sets_are_satisfied(self):
        rng = random.Random(19)
        for round_ in range(80):
            n = rng.randint(2, 7)
            e = engine(n)
            asserted = []
            lit = 0
            for _ in range(rng.randint(1, 20)):
                x, y = rng.sample(range(n), 2)
                c = rng.randint(-6, 6)
                lit += 1
                if e.assert_atom(x, y, c, lit=lit, level=1) is None:
                    asserted.append((x, y, c))
            m = e.extract_model()
            assert m[0] == 0
            for x, y, c in asserted:
                assert m[x] - m[y] <= c
            ref = bellman_ford_consistent(asserted)
            assert {v: m[v] for v in ref} == ref


class TestDump:
    def test_tsv_golden(self):
        e = engine(3)
        e.assert_atom(1, 0, 4, lit=5, level=0)   # edge 0 -> 1 weight 4
        e.assert_atom(2, 1, -1, lit=6, level=0)  # edge 1 -> 2 weight -1
        assert e.dump_tsv() == ("0\t4\t3\ninf\t0\t-1\ninf\tinf\t0\n")

    def test_empty(self):
        assert DifferenceEngine().dump_tsv() == ""

    def test_an_unchanged_closure_reuses_its_text(self):
        # the text is kept with a copy of its block: an equal block reuses
        # the same string, any change to it (a commit, a backtrack, a new
        # vertex) renders anew, and each text matches the cells as read
        def rendered(e):
            return "".join("\t".join("inf" if e.dist(i, j) is None
                                     else str(e.dist(i, j))
                                     for j in range(e.n)) + "\n"
                           for i in range(e.n))

        e = engine(3)
        e.assert_atom(1, 0, 4, lit=1, level=0)
        first = e.dump_tsv()
        assert first == rendered(e) and e.dump_tsv() is first
        e.assert_atom(2, 1, -1, lit=2, level=1)
        second = e.dump_tsv()
        assert second == rendered(e) != first
        e.backtrack_to(0)
        assert e.dump_tsv() == first and e.dump_tsv() is e.dump_tsv()
        e.ensure_vertex(3)
        assert e.dump_tsv() == rendered(e) == first.replace(
            "\n", "\tinf\n") + "inf\tinf\tinf\t0\n"
