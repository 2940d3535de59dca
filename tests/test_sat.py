import bisect
import itertools
import random
import time
from types import SimpleNamespace

import pytest

from idlsmt import sat
from idlsmt.sat import Solver, _luby
from idlsmt.testkit import naive_unit_fixpoint, truth_table_sat


def fresh(n):
    s = Solver()
    for _ in range(n):
        s.new_var()
    return s


def record_learned(s):
    """Every clause ``s`` learns from now on, units included."""
    log = []
    analyze = s._analyze

    def recording(confl_lits):
        learned, bj = analyze(confl_lits)
        log.append(tuple(learned))
        return learned, bj

    s._analyze = recording
    return log


def random_cnf(rng, n_vars, n_clauses, width=3, least=1):
    out = []
    for _ in range(n_clauses):
        k = rng.randint(least, width)
        clause = []
        for _ in range(k):
            v = rng.randint(1, n_vars)
            clause.append(v if rng.random() < 0.5 else -v)
        out.append(clause)
    return out


def stored(s, c):
    """Whether ``c`` is one of the clauses in the solver's store, by
    identity: an equal clause elsewhere does not count."""
    return any(d is c for d in s.clauses)


def check_trail(s):
    """The trail is consistent with the solver's arrays and clauses: each
    literal is assigned once, at the level of its trail position; above
    level 0 only the literal that opens a level has no reason; a clause
    reason holds its literal, all its other literals false no later; and
    no clause is false on the propagated part of the trail."""
    assert len({abs(l) for l in s.trail}) == len(s.trail)
    assert sum(1 for v in s.values if v) == len(s.trail)
    for pos, lit in enumerate(s.trail):
        v = abs(lit)
        assert s.value(lit) == 1
        assert s.levels[v] == bisect.bisect_right(s.trail_lim, pos)
        r = s.reasons[v]
        if r is None and s.levels[v]:
            assert pos == s.trail_lim[s.levels[v] - 1]  # a decision
        if isinstance(r, list):
            assert stored(s, r)
            assert lit in r
            assert all(s.value(q) == -1 and s.levels[abs(q)] <= s.levels[v]
                       for q in r if q != lit)
    done = {-l for l in s.trail[:s.qhead]}
    assert not any(all(l in done for l in c) for c in s.clauses)


class TestAddClause:
    def test_contradicting_units(self):
        s = fresh(1)
        assert s.add_clause([1]) is True
        assert s.add_clause([-1]) is False
        assert not s.ok
        assert s.solve().status == "unsat"

    def test_plain_clause_no_propagation(self):
        s = fresh(3)
        assert s.add_clause([1, -2, 3]) is True
        assert s.trail == []

    def test_tautology_dropped(self):
        s = fresh(2)
        s.add_clause([1, -1, 2])
        assert s.clauses == []

    def test_deferred_unit_conflict(self):
        s = fresh(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.add_clause([-2]) is False


class TestPropagate:
    def test_chain(self):
        s = fresh(3)
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        assert s.propagate() is None
        assert s.trail == [1, 2, 3]

    def test_conflict(self):
        s = fresh(2)
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        confl = s.propagate()
        assert confl is not None and stored(s, confl)
        assert sorted(confl) in ([-2, -1], [[-1, 2], [-2, -1]][1])

    def _watch_invariant(self, s):
        for ci, c in enumerate(s.clauses):
            if c is None:
                continue
            if any(s.value(l) == 1 for l in c):
                continue
            assert s.value(c[0]) != -1 and s.value(c[1]) != -1, \
                f"clause {ci} watches falsified literals"

    def test_fixpoint_matches_naive_oracle(self):
        rng = random.Random(5)
        for round_ in range(60):
            n = rng.randint(3, 9)
            clauses = random_cnf(rng, n, rng.randint(2, 14))
            s = fresh(n)
            level0 = []
            ok = True
            for cl in clauses:
                if len(cl) == 1 or len(set(abs(l) for l in cl)) < len(cl):
                    continue  # keep level 0 clean for this drive
                if not s.add_clause(cl):
                    ok = False
                    break
            if not ok:
                continue
            kept = [c for c in s.clauses]
            decide = rng.sample(range(1, n + 1), rng.randint(1, n))
            lits = [v if rng.random() < 0.5 else -v for v in decide]
            confl = None
            for l in lits:
                if s.value(l) == -1:
                    confl = "conflict"
                    break
                s.trail_lim.append(len(s.trail))
                s._enqueue(l, None)
                ci = s.propagate()
                if ci is not None:
                    confl = "conflict"
                    break
            expected = naive_unit_fixpoint(kept, lits)
            if confl == "conflict":
                assert expected == "conflict"
            else:
                self._watch_invariant(s)
                got = set(s.trail)
                assert expected != "conflict"
                assert got == expected


class TestAnalyze:
    def test_textbook_two_level_example(self):
        # clauses {-a b, -a c, -b -c d, -d -c}; deciding a propagates
        # b, c, d and falsifies the last clause. Resolving back from the
        # conflict reaches the decision itself, so the learned clause is
        # the unit (-a) with a backjump to level 0 (hand-derived).
        s = fresh(4)
        a, b, c, d = 1, 2, 3, 4
        s.add_clause([-a, b])
        s.add_clause([-a, c])
        s.add_clause([-b, -c, d])
        s.add_clause([-d, -c])
        s.trail_lim.append(len(s.trail))
        s._enqueue(a, None)
        confl = s.propagate()
        assert confl is not None and stored(s, confl)
        learned, bj = s._analyze(list(confl))
        assert learned == [-a]
        assert bj == 0

    def test_single_decision_conflict_learns_unit(self):
        s = fresh(2)
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        confl = s.propagate()
        assert stored(s, confl)
        learned, bj = s._analyze(list(confl))
        assert learned == [-1] and bj == 0

    def test_learned_clause_is_asserting(self):
        # after the backjump exactly the asserting literal is unassigned
        s = fresh(6)
        rng = random.Random(9)
        clauses = random_cnf(rng, 6, 16)
        for cl in clauses:
            s.add_clause(cl)
        log = record_learned(s)
        res = s.solve()
        for learned in log:
            assert len(set(abs(l) for l in learned)) == len(learned)

    def test_whole_instance_is_satisfiable_after_learning(self):
        s = fresh(4)
        for cl in ([-1, 2], [-1, 3], [-2, -3, 4], [-4, -3]):
            s.add_clause(cl)
        res = s.solve()
        assert res.status == "sat"
        assert res.model[1] is False
        for cl in ([-1, 2], [-1, 3], [-2, -3, 4], [-4, -3]):
            assert any(res.model[abs(l)] == (l > 0) for l in cl)


class TestSolve:
    def test_empty_is_sat(self):
        s = Solver()
        res = s.solve()
        assert res.status == "sat" and res.model == {}

    def test_minimal_selector_pattern(self):
        s = fresh(3)
        s1, s2, a = 1, 2, 3
        s.add_clause([-s1, a])
        s.add_clause([-s2, -a])
        res = s.solve(assumptions=[s1, s2])
        assert res.status == "unsat"
        assert set(res.failed) == {s1, s2}

    def test_failed_subset_of_assumptions(self):
        s = fresh(4)
        s.add_clause([-1, 3])
        s.add_clause([-2, -3])
        res = s.solve(assumptions=[1, 2, 4])
        assert res.status == "unsat"
        assert set(res.failed) <= {1, 2, 4}
        assert set(res.failed) == {1, 2}

    def test_conflict_among_assumptions_is_final(self):
        # 4 implies 1, and 1 and 2 imply 3 both ways, at level 3: the
        # answer comes from that conflict, with nothing learned, and level
        # 3 goes, so the next call meets the same conflict
        s = fresh(4)
        s.add_clause([-1, -2, 3])
        s.add_clause([-1, -2, -3])
        s.add_clause([-4, 1])
        for _ in range(3):
            res = s.solve(assumptions=[4, 1, 2])
            assert (res.status, res.failed) == ("unsat", [4, 2])
            assert s.stats["conflicts"] == 0 and not s.cla_activity
            assert len(s.trail_lim) == 2
            check_trail(s)
        assert s.solve(assumptions=[4, 1]).status == "sat"

    def test_failed_assumptions_resolve_unsat(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(3, 8)
            base = random_cnf(rng, n, rng.randint(3, 12))
            s = fresh(n)
            sels = [s.new_var() for _ in range(len(base))]
            for sel, cl in zip(sels, base):
                s.add_clause([-sel] + cl)
            res = s.solve(assumptions=sels)
            if res.status != "unsat":
                continue
            s2 = fresh(n)
            sel_set = set(res.failed)
            for sel, cl in zip(sels, base):
                if sel in sel_set:
                    s2.add_clause(cl)
            assert s2.solve().status == "unsat"

    def test_hundred_random_instances_match_truth_table(self):
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(2, 10)
            clauses = random_cnf(rng, n, rng.randint(2, 4 * n))
            s = fresh(n)
            ok = True
            for cl in clauses:
                if not s.add_clause(cl):
                    ok = False
                    break
            res = s.solve() if ok else None
            expected = truth_table_sat(clauses, n)
            if not ok or res.status == "unsat":
                assert expected is None
            else:
                assert expected is not None
                for cl in clauses:
                    assert any(res.model[abs(l)] == (l > 0) for l in cl)

    def test_learned_clauses_are_entailed(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 8)
            clauses = random_cnf(rng, n, rng.randint(4, 20))
            s = fresh(n)
            ok = all(s.add_clause(cl) for cl in clauses)
            if not ok:
                continue
            log = record_learned(s)
            s.solve()
            for learned in log:
                for bits in range(1 << n):
                    assign = {v: bool((bits >> (v - 1)) & 1)
                              for v in range(1, n + 1)}
                    if not all(any(assign[abs(l)] == (l > 0) for l in cl)
                               for cl in clauses):
                        continue
                    assert any(assign[abs(l)] == (l > 0) for l in learned)

    def test_past_deadline_gives_unknown(self, monkeypatch):
        # pigeonhole 4 into 3: var p_ij = 3*i+j+1
        s = fresh(12)
        for i in range(4):
            s.add_clause([3 * i + j + 1 for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    s.add_clause([-(3 * i1 + j + 1), -(3 * i2 + j + 1)])
        res = s.solve(deadline=time.monotonic() - 1)
        assert res.status == "unknown" and not s.trail_lim
        # a clock that passes the deadline at the sixth poll stops the search
        # after some decisions; the answer leaves the trail where the search
        # stopped, a consistent one from which the next call carries on
        ticks = itertools.count()
        monkeypatch.setattr(sat, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        res = s.solve(deadline=5.5)
        assert res.status == "unknown" and s.trail_lim
        check_trail(s)
        assert s.stats["decisions"] > 0
        assert s.solve().status == "unsat"

    def test_determinism(self):
        rng = random.Random(2)
        clauses = random_cnf(rng, 12, 60)

        def run():
            s = fresh(12)
            for cl in clauses:
                if not s.add_clause(cl):
                    return "unsat0", ()
            log = record_learned(s)
            r = s.solve()
            return r.status, tuple(log)

        assert run() == run()

    def test_phase_saving_initialized_false(self):
        s = fresh(3)
        s.add_clause([1, 2, 3])
        res = s.solve()
        assert res.status == "sat"
        # first decision tries the negative phase, so the clause is
        # satisfied by the forced flip, not by defaulting anything true
        assert sum(1 for v, b in res.model.items() if b) <= 1

    def test_restarts_triggered(self):
        rng = random.Random(55)
        # a contradiction that takes a few hundred conflicts to refute
        s = fresh(14)
        clauses = random_cnf(rng, 14, 90)
        ok = all(s.add_clause(cl) for cl in clauses)
        if ok:
            s.solve()
        assert _luby(64, 0) == 64
        assert [_luby(1, i) for i in range(7)] == [1, 1, 2, 1, 1, 2, 4]


class TestTheoryHooks:
    class Recorder:
        def __init__(self):
            self.asserted = []
            self.backtracks = []
            self.phases = []  # the variables asked for a first phase
            self.polarity = False

        def on_assert(self, lit, level):
            self.asserted.append((lit, level))
            return None

        def propagate(self):
            return ()

        def explain(self, handle):
            raise AssertionError("no propagations were produced")

        def on_backtrack(self, level):
            self.backtracks.append(level)

        def on_solution(self):
            pass

        def phase(self, var):
            self.phases.append(var)
            return self.polarity

    def test_every_trail_literal_is_forwarded(self):
        th = self.Recorder()
        s = Solver(theory=th)
        for _ in range(3):
            s.new_var()
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        res = s.solve()
        assert res.status == "sat"
        model_lits = {v if b else -v for v, b in res.model.items()}
        assert {l for l, _ in th.asserted} == model_lits
        # the answer keeps its trail: the theory saw every literal at its
        # level and was told of no backtrack
        assert th.asserted == [(l, s.levels[abs(l)]) for l in s.trail]
        assert th.backtracks == []
        # the next call backtracks to the assumption levels it shares
        s.solve([3])
        assert th.backtracks == [0]
        assert s.trail[s.trail_lim[0]] == 3
        s.solve([3, 2])
        assert th.backtracks == [0, 1]

    def test_the_theory_names_only_a_first_phase(self):
        th = self.Recorder()
        th.polarity = True
        s = Solver(theory=th)
        for _ in range(3):
            s.new_var()
        assert s.solve().status == "sat"
        assert s.trail == [1, 2, 3] and th.phases == [1, 2, 3]
        # after a backtrack the saved phase wins, an assumption's included
        th.polarity = False
        s.solve([-2])
        assert s.trail == [-2, 1, 3] and th.phases == [1, 2, 3]
        s.solve()
        assert s.trail == [1, -2, 3] and th.phases == [1, 2, 3]
        # a released slot forgets its phase
        s.remove([], [3])
        assert s.new_var() == 3
        s.solve()
        assert s.trail == [1, -2, -3] and th.phases == [1, 2, 3, 3]

    def test_theory_conflict_becomes_clause(self):
        class Veto:
            """Reports {1, 2} as jointly inconsistent."""

            def __init__(self):
                self.seen = set()

            def on_assert(self, lit, level):
                self.seen.add(lit)
                if 1 in self.seen and 2 in self.seen:
                    return [1, 2]
                return None

            def propagate(self):
                return ()

            def explain(self, handle):
                raise AssertionError

            def on_backtrack(self, level):
                self.seen = {l for l in self.seen if False}

            def on_solution(self):
                pass

        th = Veto()
        s = Solver(theory=th)
        for _ in range(2):
            s.new_var()
        s.add_clause([1])
        s.add_clause([2])
        assert s.solve().status == "unsat"


class TestClauseReferences:
    """Watch lists and reasons hold the clause objects themselves."""

    def test_deleting_one_of_two_equal_clauses_keeps_the_other_watched(self):
        # the same clause in a base frame and in a pushed one: deleting the
        # pushed copy unlinks it by identity, not the first equal clause
        s = fresh(3)
        s.add_clause([-1, 2, 3])
        base = s.clauses[-1]
        s.add_clause([-1, 2, 3])
        pushed = s.clauses[-1]
        assert pushed == base and pushed is not base
        s.remove([pushed], [])
        assert len(s.clauses) == 1 and s.clauses[0] is base
        watched = [c for ws in s.watches for c in ws]
        assert sum(c is base for c in watched) == 2
        assert not any(c is pushed for c in watched)
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        s.trail_lim.append(len(s.trail))
        s._enqueue(-3, None)
        assert s.propagate() is None
        assert s.value(2) == 1 and s.reasons[2] is base
        check_trail(s)


class LinearScan(Solver):
    """The branching rule as a linear scan, the reference for the heap:
    the unassigned live variable of highest activity, the lowest index
    among equals."""

    def _pick_branch(self):
        best, besta = None, -1.0
        released = set(self.free_vars)
        for v in range(1, len(self.values)):
            if self.values[v] == 0 and v not in released \
                    and self.activity[v] > besta:
                best, besta = v, self.activity[v]
        return best


class TestBranchingHeap:
    def run(self, cls, seed, var_inc):
        """Guarded random clause groups over shared variables and variables
        of their own, solved under the live selectors, with a random group
        deleted (clauses, selector, own variables) after each solve; the
        freed slots come back as the next group's own variables. The
        clauses have three literals, so the search meets conflicts above
        the assumption levels, which learn and bump. Returns the picks of
        ``_pick_branch`` and the answers."""
        rng = random.Random(seed)
        s = cls()
        s.var_inc = var_inc
        shared = [s.new_var() for _ in range(8)]
        picks, answers, groups = [], [], []
        pick = s._pick_branch
        s._pick_branch = lambda: picks.append(pick()) or picks[-1]
        for _ in range(12):
            sel = s.new_var()
            own = [s.new_var() for _ in range(rng.randint(0, 4))]
            stored = len(s.clauses)
            for cl in random_cnf(rng, len(shared) + len(own), 20, least=3):
                s.add_clause([-sel] + [(shared + own)[abs(l) - 1] * (l // abs(l))
                                       for l in cl])
            groups.append((sel, own, s.clauses[stored:]))
            res = s.solve([g[0] for g in groups])
            answers.append((res.status, res.model, res.failed))
            sel, own, clauses = groups.pop(rng.randrange(len(groups)))
            freed = s.remove(clauses, [sel, *own])
            # only a variable fixed at level 0 keeps its slot
            assert all(s.values[v] for v in {sel, *own} - set(freed))
        return picks, answers, s.var_inc < var_inc

    @pytest.mark.parametrize("var_inc", [1.0, 5e99], ids=["plain", "rescaled"])
    def test_decisions_match_the_linear_scan(self, var_inc):
        # from 5e99 a variable bumped three times passes the rescale limit,
        # so most runs rebuild the heap on the way
        decisions = rescaled = 0
        for seed in range(40):
            heap = self.run(Solver, seed, var_inc)
            assert heap == self.run(LinearScan, seed, var_inc), f"seed {seed}"
            decisions += len(heap[0])
            rescaled += heap[2]
        assert decisions > 1500
        assert rescaled > 20 if var_inc > 1 else not rescaled


class TestClauseActivity:
    def test_rescale_keeps_the_order(self):
        s = fresh(6)
        learned = [[1, 2, 3], [-1, 4, 5], [2, -4, 6], [-3, -5, -6]]
        for k, c in enumerate(learned):
            s._store_learned(c)
            for _ in range(k):
                s._bump_clause(c)
        assert [s.cla_activity[id(c)] for c in learned] == [1, 2, 3, 4]
        # the second bump passes the limit, so every activity and the
        # increment shrink by one factor first; the bumped clause still leads
        s.cla_inc = 0.6 * sat._RESCALE
        s._bump_clause(learned[1])
        s._bump_clause(learned[1])
        act = [s.cla_activity[id(c)] for c in learned]
        assert sorted(range(4), key=act.__getitem__) == [0, 2, 3, 1]
        assert max(act) < 2 and s.cla_inc < 1


class TestKeptTrail:
    """An answer keeps its trail. A clause over two free literals keeps
    it too, and removal backtracks only below the variables it releases
    and the literals whose reasons it deletes."""

    def solved(self):
        """Six variables and assumptions 1, 2, 3 answered sat: the trail
        holds 1, 2, 3 at levels 1 to 3 and the decisions -4, -5, -6."""
        s = fresh(6)
        assert s.solve([1, 2, 3]).status == "sat"
        assert s.trail == [1, 2, 3, -4, -5, -6]
        assert s.trail_lim == [0, 1, 2, 3, 4, 5]
        return s

    def test_two_free_literals_add_no_backtrack(self):
        s = self.solved()
        a, b = s.new_var(), s.new_var()
        trail, lim = list(s.trail), list(s.trail_lim)
        assert s.add_clause([-1, a, -2, b])
        assert s.trail == trail and s.trail_lim == lim
        assert s.clauses[-1][:2] == [a, b]  # the watches are the free ones
        check_trail(s)
        res = s.solve([1, 2, 3])
        assert res.status == "sat" and (res.model[a] or res.model[b])

    def test_unit_false_or_satisfied_clause_is_added_at_level_0(self):
        for clause, fixed in (([-2, "a", 4], None), ([4, 5], None),
                              ([5, 1], None), ([-3], -3)):
            s = self.solved()
            a = s.new_var()
            clause = [a if l == "a" else l for l in clause]
            assert s.add_clause(clause)
            assert not s.trail_lim
            if fixed is None:
                assert s.trail == [] and s.clauses[-1] == clause
            else:
                assert s.trail == [fixed] and s.levels[abs(fixed)] == 0
            check_trail(s)
            res = s.solve([1, 2, 3])
            if fixed is None:
                assert res.status == "sat"
                assert any(res.model[abs(l)] == (l > 0) for l in clause)
            else:
                assert res.status == "unsat" and res.failed == [3]
        s = fresh(7)
        s.add_clause([-1, 7])
        assert s.solve([1, 2]).status == "sat"
        assert s.add_clause([-1, -7])
        assert not s.trail_lim
        res = s.solve([1, 2])
        assert res.status == "unsat" and res.failed == [1]

    def test_remove_leaves_no_level_of_a_removed_variable(self):
        s = self.solved()
        assert s.remove([], [5]) == [5]
        assert s.trail_lim == [0, 1, 2, 3]
        assert s.remove([], [2, 6]) == [2, 6]
        assert s.trail_lim == [0] and s.trail == [1]
        check_trail(s)

    def test_remove_keeps_no_literal_whose_reason_it_deletes(self):
        s = fresh(8)
        s.add_clause([-8, -1, 7])
        s.add_clause([8])
        assert s.solve([1]).status == "sat"
        assert s.levels[7] == 1 and s.reasons[7] is s.clauses[0]
        # the clause that implied 7 goes, so 7 may not stay assigned
        # without a reason; 8, fixed at level 0, leaves the trail
        assert s.remove([s.clauses[0]], [8]) == [8]
        assert not s.values[8] and not s.values[7] and s.trail == []
        check_trail(s)

    def test_remove_drops_level_0_facts_below_the_kept_levels(self):
        s = fresh(8)
        s.add_clause([7])
        s.add_clause([-8])
        assert s.solve([1, 2]).status == "sat"
        assert s.trail[:4] == [7, -8, 1, 2] and s.trail_lim[:2] == [2, 3]
        kept = s.trail[3:]
        assert s.remove([], [7]) == [7]
        assert s.trail == [-8, 1] + kept and s.trail_lim[:2] == [1, 2]
        assert s.qhead == s.th_head == len(s.trail)
        check_trail(s)
        res = s.solve([1, 2])
        assert res.status == "sat" and 7 not in res.model

    def test_remove_clears_the_reason_of_a_level_0_fact(self):
        # [-2] implies 1 at level 0 through [1, 2]; deleting that clause
        # leaves 1 a fact without a reason, which nothing reads
        s = fresh(2)
        s.add_clause([1, 2])
        reason = s.clauses[-1]
        s.add_clause([-2])
        assert s.trail == [-2, 1] and s.reasons[1] is reason
        assert s.remove([reason], []) == []
        assert s.reasons[1] is None and s.value(1) == 1
        check_trail(s)
        assert s.solve([]).model == {1: True, 2: False}
        res = s.solve([-1])
        assert res.status == "unsat" and res.failed == [-1]

    def test_reused_selector_slot_matches_no_kept_level(self):
        s = fresh(3)
        sels = [s.new_var() for _ in range(3)]
        guards = []
        for sel, lit in zip(sels, (1, 2, 3)):
            s.add_clause([-sel, lit])
            guards.append(s.clauses[-1])
        assert s.solve(sels).status == "sat"
        assert s.levels[sels[2]] == 3
        assert s.remove([guards[2]], [sels[2]]) == [sels[2]]
        assert len(s.trail_lim) == 2
        # the same number guards another clause now; the call below shares
        # only the two levels left
        assert s.new_var() == sels[2]
        s.add_clause([-sels[2], -1])
        res = s.solve(sels)
        assert res.status == "unsat" and res.failed == [sels[0], sels[2]]

    def test_random_sessions_match_a_fresh_solver(self):
        """Guarded clause groups and plain clauses over six shared
        variables, added, removed and solved under the live selectors in a
        random order; every answer is checked against a truth table and
        the trail after it for consistency."""
        kinds = {"kept": 0, "backtracked": 0}
        answers = {"sat": 0, "unsat": 0}
        for seed in range(60):
            rng = random.Random(seed)
            s = fresh(6)  # the shared variables
            plain, groups = [], []

            def add(cl):
                lim = len(s.trail_lim)
                s.add_clause(cl)
                if lim:
                    kinds["kept" if len(s.trail_lim) == lim
                          else "backtracked"] += 1

            for _ in range(40):
                roll = rng.random()
                if roll < 0.35:
                    sel = s.new_var()
                    body = random_cnf(rng, 6, rng.randint(1, 3))
                    stored = len(s.clauses)
                    for cl in body:
                        add([-sel] + cl)
                    groups.append((sel, s.clauses[stored:], body))
                elif roll < 0.5 and groups:
                    sel, stored, _ = groups.pop(rng.randrange(len(groups)))
                    s.remove(stored, [sel])
                elif roll < 0.55:
                    cl = random_cnf(rng, 6, 1)[0] + random_cnf(rng, 6, 1)[0]
                    plain.append(cl)
                    add(cl)
                else:
                    picked = [g for g in groups if rng.random() < 0.85]
                    res = s.solve([g[0] for g in picked])
                    answers[res.status] += 1
                    body = plain + [cl for g in picked for cl in g[2]]
                    want = truth_table_sat(body, 6)
                    assert res.status == ("sat" if want else "unsat"), seed
                    if res.status == "sat":
                        assert all(any(res.model[abs(l)] == (l > 0)
                                       for l in cl) for cl in body)
                    else:
                        core = set(res.failed)
                        body = plain + [cl for g in picked if g[0] in core
                                        for cl in g[2]]
                        assert truth_table_sat(body, 6) is None, seed
                    check_trail(s)
        assert min(answers.values()) > 100
        assert min(kinds.values()) > 50, kinds
