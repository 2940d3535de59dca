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


def random_cnf(rng, n_vars, n_clauses, width=3):
    out = []
    for _ in range(n_clauses):
        k = rng.randint(1, width)
        clause = []
        for _ in range(k):
            v = rng.randint(1, n_vars)
            clause.append(v if rng.random() < 0.5 else -v)
        out.append(clause)
    return out


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
        ci = s.propagate()
        assert ci is not None
        assert sorted(s.clauses[ci]) in ([-2, -1], [[-1, 2], [-2, -1]][1])

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
        ci = s.propagate()
        assert ci is not None
        learned, bj = s._analyze(list(s.clauses[ci]))
        assert learned == [-a]
        assert bj == 0

    def test_single_decision_conflict_learns_unit(self):
        s = fresh(2)
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        s.trail_lim.append(len(s.trail))
        s._enqueue(1, None)
        ci = s.propagate()
        learned, bj = s._analyze(list(s.clauses[ci]))
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
        # after some decisions; the answer must still leave level 0
        ticks = itertools.count()
        monkeypatch.setattr(sat, "time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        res = s.solve(deadline=5.5)
        assert res.status == "unknown" and not s.trail_lim
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
        assert th.backtracks[-1] == 0

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
        freed slots come back as the next group's own variables. Returns
        the picks of ``_pick_branch`` and the answers."""
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
            for cl in random_cnf(rng, len(shared) + len(own), 10):
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
