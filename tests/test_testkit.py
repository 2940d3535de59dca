import random
import time

import numpy as np
import pytest

from idlsmt.engine import Session, SessionConfig
from idlsmt.normalize import AtomTable, skeleton
from idlsmt.smtlib import parse_script
from idlsmt.testkit import (
    AtomBudgetExceeded, RandomInstanceSpec, bellman_ford_consistent,
    emit_benchmark, enumerate_verdict, eval_term, random_incremental_script,
    random_script, scratch_floyd_warshall, write_benchmark_suite,
)


class TestScratchClosure:
    def test_tight_pair(self):
        res = scratch_floyd_warshall(2, [(1, 0, 3), (0, 1, -3)])
        assert res is not None
        D, R = res
        assert D[0, 1] == -3 and D[1, 0] == 3
        assert D[0, 0] == 0 and D[1, 1] == 0

    def test_negative_cycle(self):
        assert scratch_floyd_warshall(2, [(1, 0, 3), (0, 1, -4)]) is None

    def test_parallel_edges_keep_minimum(self):
        D, R = scratch_floyd_warshall(2, [(0, 1, 9), (0, 1, 2)])
        assert D[0, 1] == 2

    def test_agrees_with_bellman_ford(self):
        rng = random.Random(42)
        for _ in range(10_000):
            n = rng.randint(2, 8)
            atoms = []
            for _ in range(rng.randint(1, 12)):
                x, y = rng.sample(range(n), 2)
                atoms.append((x, y, rng.randint(-8, 8)))
            edges = [(y, x, c) for x, y, c in atoms]
            fw = scratch_floyd_warshall(n, edges)
            bf = bellman_ford_consistent(atoms)
            assert (fw is None) == (bf is None)


class TestBellmanFord:
    def test_tight_equality(self):
        m = bellman_ford_consistent([(1, 2, 3), (2, 1, -3)])
        assert m is not None
        assert m[1] - m[2] == 3  # both inequalities are tight

    def test_unsat_pair(self):
        assert bellman_ford_consistent([(1, 2, 3), (2, 1, -4)]) is None

    def test_zero_variable_pinned(self):
        m = bellman_ford_consistent([(1, 0, -5)])
        assert m[0] == 0 and m[1] <= -5


class TestEnumerate:
    def harness(self):
        state = {"n": 0}

        def new_var():
            state["n"] += 1
            return state["n"]

        atoms = AtomTable(new_var)
        ints = {}
        bools = {}

        def rint(nm):
            if nm not in ints:
                ints[nm] = len(ints) + 1
            return ints[nm]

        def rbool(nm):
            if nm not in bools:
                bools[nm] = new_var()
            return bools[nm]

        return atoms, rint, rbool

    def from_script(self, text):
        atoms, rint, rbool = self.harness()
        skeletons = []
        for cmd in parse_script(text):
            if cmd.name == "assert":
                skeletons.append(skeleton(cmd.args[0], rint, rbool, atoms))
        return skeletons, atoms.bounds

    def test_single_atom_sat(self):
        sk, meta = self.from_script(
            "(declare-fun x () Int)(assert (<= x 3))")
        assert enumerate_verdict(sk, meta) == "sat"

    def test_contradictory_literals_unsat(self):
        text = ("(declare-fun x () Int)(declare-fun y () Int)"
                "(assert (<= (- x y) 3))(assert (not (<= (- x y) 3)))")
        sk, meta = self.from_script(text)
        assert enumerate_verdict(sk, meta) == "unsat"

    def test_disjunction_with_equality_unsat(self):
        text = ("(declare-fun x () Int)(declare-fun y () Int)"
                "(assert (or (<= (- x y) (- 1)) (<= (- y x) (- 1))))"
                "(assert (= (- x y) 0))")
        sk, meta = self.from_script(text)
        assert enumerate_verdict(sk, meta) == "unsat"

    def test_budget(self):
        decls = "(declare-fun x () Int)(declare-fun y () Int)"
        asserts = "".join(f"(assert (<= (- x y) {k}))" for k in range(13))
        sk, meta = self.from_script(decls + asserts)
        with pytest.raises(AtomBudgetExceeded):
            enumerate_verdict(sk, meta)
        enumerate_verdict(sk, meta, max_atoms=13)

    def test_shared_chain_is_walked_once(self):
        # level t uses level t-1 twice; as a tree, 40 levels are 2**40 nodes
        body = "a40"
        for t in range(40, 0, -1):
            body = (f"(let ((a{t} (xor a{t - 1} (and a{t - 1} "
                    f"(<= (- x y) 1))))) {body})")
        sk, meta = self.from_script(
            "(declare-fun x () Int)(declare-fun y () Int)"
            f"(assert (let ((a0 (< y x))) {body}))")
        assert len(meta) == 2
        start = time.perf_counter()
        assert enumerate_verdict(sk, meta) == "sat"  # x - y >= 2
        assert time.perf_counter() - start < 1

    def test_deep_skeleton_is_enumerated(self):
        # 30,000 nested ands over two atoms; the walks keep explicit stacks
        n = 30000
        text = ("(declare-fun x () Int)(declare-fun y () Int)(assert "
                + "(and (< x y) " * n + "(< x 5)" + ")" * n + ")")
        sk, meta = self.from_script(text + "(assert (>= x y))")
        assert enumerate_verdict(sk[:1], meta) == "sat"
        assert enumerate_verdict(sk, meta) == "unsat"

    def test_free_booleans_enumerated(self):
        text = ("(declare-fun p () Bool)(declare-fun x () Int)"
                "(assert (xor p (<= x 0)))(assert (not p))")
        sk, meta = self.from_script(text)
        assert enumerate_verdict(sk, meta) == "sat"


class TestEvalTerm:
    def test_arithmetic_and_booleans(self):
        term = ("cmp", "<=", ("sub", ("ivar", "x"), ("ivar", "y")), ("int", 3))
        assert eval_term(term, {"x": 5, "y": 2}, {}) is True
        assert eval_term(term, {"x": 6, "y": 2}, {}) is False
        ite = ("ite", ("bvar", "p"), term, ("bool", False))
        assert eval_term(ite, {"x": 5, "y": 2}, {"p": True}) is True
        assert eval_term(ite, {"x": 5, "y": 2}, {"p": False}) is False

    def test_deep_term(self):
        term = ("bvar", "p")
        for k in range(30000):
            term = ("not", term) if k % 2 else ("and", (term, ("bool", True)))
        assert eval_term(term, {}, {"p": True}) is True
        assert eval_term(term, {}, {"p": False}) is False

    def test_unknown_tag_is_refused(self):
        with pytest.raises(ValueError, match="unknown term tag"):
            eval_term(("not", ("mul", ("int", 2), ("int", 3))), {}, {})

    def test_distinct(self):
        term = ("distinct", (("ivar", "a"), ("ivar", "b"), ("int", 0)))
        assert eval_term(term, {"a": 1, "b": 2}, {}) is True
        assert eval_term(term, {"a": 1, "b": 1}, {}) is False


class TestGenerators:
    def test_deterministic_per_seed(self):
        spec = RandomInstanceSpec(seed=5, structure=("tree", 3))
        assert random_script(spec) == random_script(spec)
        a = random_incremental_script(9)
        b = random_incremental_script(9)
        assert a == b

    def test_scripts_parse_and_solve(self):
        for seed in range(12):
            for structure in [("conjunction",), ("cnf", 3, 5), ("tree", 3)]:
                spec = RandomInstanceSpec(vars=4, atoms=6, seed=seed,
                                          structure=structure)
                text = random_script(spec)
                cmds = parse_script(text)
                s = Session()
                for cmd in cmds:
                    resp = s.execute(cmd)
                    assert not resp.is_error

    def test_incremental_scripts_track_prefixes(self):
        text, prefixes = random_incremental_script(3, checks=4)
        assert text.count("(check-sat)") == 4
        assert len(prefixes) == 4
        parse_script(text)


class TestBenchmarks:
    def run_script(self, text, **cfg):
        session = Session(SessionConfig(**cfg)) if cfg else Session()
        answers = []
        for cmd in parse_script(text):
            resp = session.execute(cmd)
            if cmd.name == "check-sat":
                answers.append(resp.text)
        return answers, session

    def test_chain_is_unsat_with_full_core(self):
        text, verdict = emit_benchmark("negative-cycle-chain", 3)
        assert verdict == "unsat"
        answers, session = self.run_script(text)
        assert answers == ["unsat"]
        session.cfg.minimize_core = True
        assert len(session.unsat_core_names()) == 3

    def test_diamond_is_sat(self):
        text, verdict = emit_benchmark("diamond-grid", 4)
        assert verdict == "sat"
        answers, _ = self.run_script(text)
        assert answers == ["sat"]

    def test_window_matches_enumeration(self):
        text, verdict = emit_benchmark("window-scheduling", 5, seed=2, width=2)
        assert verdict == "sat"
        helper = TestEnumerate()
        sk, meta = helper.from_script(text)
        assert enumerate_verdict(sk, meta, max_atoms=12) == "sat"
        answers, _ = self.run_script(text)
        assert answers == ["sat"]

    def test_suite_manifest(self, tmp_path):
        manifest = write_benchmark_suite(
            tmp_path, [("negative-cycle-chain", 3), ("diamond-grid", 4),
                       ("window-scheduling", 4, 7)])
        lines = open(manifest).read().splitlines()
        assert len(lines) == 3
        for line in lines:
            fname, verdict = line.split("\t")
            assert verdict in ("sat", "unsat")
            assert (tmp_path / fname).exists()

    def test_families_validate_inputs(self):
        with pytest.raises(ValueError):
            emit_benchmark("negative-cycle-chain", 1)
        with pytest.raises(ValueError):
            emit_benchmark("moebius-strip", 4)
