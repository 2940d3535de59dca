import gc
import random
import weakref

import pytest

from idlsmt.engine import Session, SessionConfig
from idlsmt.smtlib import Command, parse_script
from idlsmt.testkit import (
    bellman_ford_consistent, enumerate_verdict, eval_term, random_script,
    RandomInstanceSpec,
)
from idlsmt.normalize import AtomTable, skeleton


def run(text, config=None):
    session = Session(config)
    responses = []
    for cmd in parse_script(text):
        responses.append(session.execute(cmd))
    return session, responses


def answers(responses):
    return [r.text for r in responses if r.text is not None]


DECLS = "(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"


class TestDispatch:
    def test_wrong_logic_is_an_error_response(self):
        session, rs = run("(set-logic QF_LIA)")
        assert rs[0].is_error
        assert rs[0].text == '(error "unsupported logic QF_LIA")'

    def test_logic_can_only_be_set_once(self):
        session, rs = run("(set-logic QF_IDL)(set-logic QF_IDL)")
        assert not rs[0].is_error and rs[1].is_error

    def test_supported_logic_accepted(self):
        session, rs = run("(set-logic QF_IDL)(check-sat)")
        assert answers(rs) == ["sat"]


class TestPushPop:
    def test_push_assert_pop_leaves_empty(self):
        text = DECLS + "(push 1)(assert (<= (- x y) (- 1)))(assert (<= (- y x) 0))(pop 1)(check-sat)"
        _, rs = run(text)
        assert answers(rs) == ["sat"]

    def test_retraction_restores_sat(self):
        text = (DECLS
                + "(assert (<= (- x y) 3))(check-sat)"
                + "(push 1)(assert (<= (- y x) (- 4)))(check-sat)"
                + "(pop 1)(check-sat)")
        _, rs = run(text)
        assert answers(rs) == ["sat", "unsat", "sat"]

    def test_pop_beyond_stack_is_error(self):
        session = Session()
        from idlsmt.smtlib import Command
        resp = session.execute(Command("pop", (1,)))
        assert resp.is_error

    def test_prefix_answers_match_scratch(self):
        # three asserts, a pop in the middle, two checks; every incremental
        # answer equals a fresh solve of the active set
        body = ["(push 1)", "(assert (<= (- x y) (- 2)))", "(check-sat)",
                "(pop 1)", "(assert (<= (- y x) (- 1)))", "(check-sat)"]
        text = DECLS + "(assert (<= (- x y) 1))" + "".join(body)
        _, rs = run(text)
        incremental = answers(rs)
        scratch = []
        for active in (["(assert (<= (- x y) 1))",
                        "(assert (<= (- x y) (- 2)))"],
                       ["(assert (<= (- x y) 1))",
                        "(assert (<= (- y x) (- 1)))"]):
            _, rs2 = run(DECLS + "".join(active) + "(check-sat)")
            scratch.extend(answers(rs2))
        assert incremental == scratch


class TestCheckSat:
    def test_tight_cycle_sat(self):
        text = DECLS + "(assert (<= (- x y) 3))(assert (<= (- y x) (- 3)))(check-sat)"
        _, rs = run(text)
        assert answers(rs) == ["sat"]

    def test_negative_cycle_unsat(self):
        text = (DECLS
                + "(assert (! (<= (- x y) 3) :named a1))"
                + "(assert (! (<= (- y x) (- 4)) :named a2))(check-sat)")
        _, rs = run(text)
        assert answers(rs) == ["unsat"]

    def test_disjunction_against_equality(self):
        text = (DECLS
                + "(assert (or (<= (- x y) (- 1)) (<= (- y x) (- 1))))"
                + "(assert (= (- x y) 0))(check-sat)")
        _, rs = run(text)
        assert answers(rs) == ["unsat"]

    def test_unknown_on_conflict_budget(self):
        from idlsmt.testkit import emit_benchmark

        text, _ = emit_benchmark("negative-cycle-chain", 6)
        # propagation disabled: the refutation needs an actual conflict,
        # which a zero budget forbids
        cfg = SessionConfig(conflict_budget=0, theory_propagation=False)
        session = Session(cfg)
        outs = []
        for cmd in parse_script(text):
            r = session.execute(cmd)
            if cmd.name == "check-sat":
                outs.append(r.text)
        assert outs == ["unknown"]
        # with exhaustive propagation the same instance is refuted without
        # any conflict at all, so the budget never trips
        session = Session(SessionConfig(conflict_budget=0))
        outs = []
        for cmd in parse_script(text):
            r = session.execute(cmd)
            if cmd.name == "check-sat":
                outs.append(r.text)
        assert outs == ["unsat"]
        assert session.stats["conflicts"] == 0

    def test_time_budget_holds_without_conflicts(self):
        import time

        from idlsmt.testkit import emit_benchmark

        # conflict-free, and seconds of theory commits unbounded: the
        # deadline has to be polled between conflicts to hold
        text, _ = emit_benchmark("diamond-grid", 400)
        session = Session(SessionConfig(time_budget_ms=100))
        for cmd in parse_script(text):
            if cmd.name != "check-sat":
                session.execute(cmd)
        start = time.perf_counter()
        status = session.check_sat()
        elapsed = time.perf_counter() - start
        assert status == "unknown"
        assert elapsed < 0.2

    def test_theory_propagation_toggle_same_verdicts(self):
        for seed in range(15):
            spec = RandomInstanceSpec(vars=4, atoms=7, seed=seed,
                                      structure=("cnf", 3, 6))
            text = random_script(spec)
            _, rs_on = run(text)
            _, rs_off = run(text, SessionConfig(theory_propagation=False))
            assert answers(rs_on) == answers(rs_off)


class TestModel:
    def test_model_requires_recent_sat(self):
        _, rs = run(DECLS + "(get-model)")
        assert rs[-1].is_error
        _, rs = run(DECLS + "(check-sat)(assert (<= x 0))(get-model)")
        assert rs[-1].is_error

    def test_model_satisfies_assertions(self):
        text = (DECLS + "(declare-fun p () Bool)"
                + "(assert (or p (<= (- x y) (- 7))))"
                + "(assert (not p))"
                + "(assert (>= y 5))(check-sat)(get-model)")
        session, rs = run(text)
        assert answers(rs)[0] == "sat"
        ints, bools = session.model_env()
        assert bools["p"] is False
        assert ints["x"] - ints["y"] <= -7
        assert ints["y"] >= 5
        for cmd in parse_script(text):
            if cmd.name == "assert":
                assert eval_term(cmd.args[0], ints, bools) is True

    def test_model_text_format(self):
        text = (DECLS + "(assert (<= x (- 2)))(check-sat)(get-model)")
        _, rs = run(text)
        model = answers(rs)[-1]
        assert model.startswith("(model (define-fun x () Int ")
        assert "(- " in model  # negative values print in functional form
        assert model.endswith(")")

    def test_selector_hygiene(self):
        session, rs = run(DECLS + "(assert (<= x 1))(check-sat)(get-model)")
        model = answers(rs)[-1]
        names = [w for w in model.replace("(", " ").replace(")", " ").split()
                 if w == "define-fun"]
        assert len(names) == 2  # exactly the two declared symbols

    def test_declared_but_unused_defaults(self):
        text = ("(set-logic QF_IDL)(declare-fun a () Int)"
                "(declare-fun q () Bool)(check-sat)(get-model)")
        session, rs = run(text)
        ints, bools = session.model_env()
        assert ints["a"] == 0 and bools["q"] is False


class TestConstantAssertions:
    def test_assert_true_is_inert(self):
        _, rs = run(DECLS + "(assert (<= (- x x) 5))(check-sat)")
        assert answers(rs) == ["sat"]

    def test_assert_false_named_lands_in_core(self):
        text = (DECLS + "(assert (! (< (- x x) 0) :named bad))"
                + "(assert (! (<= x 1) :named fine))"
                + "(check-sat)(get-unsat-core)")
        cfg = SessionConfig(produce_unsat_cores=True, minimize_core=True)
        _, rs = run(text, cfg)
        assert answers(rs) == ["unsat", "(bad)"]

    def test_assert_false_retractable(self):
        text = (DECLS + "(push 1)(assert (< (- x x) 0))(check-sat)"
                + "(pop 1)(check-sat)")
        _, rs = run(text)
        assert answers(rs) == ["unsat", "sat"]

    def test_multi_level_push_pop_counts(self):
        text = (DECLS + "(push 2)(assert (< x 0))(assert (> x 0))"
                + "(check-sat)(pop 2)(check-sat)")
        _, rs = run(text)
        assert answers(rs) == ["unsat", "sat"]


class TestUnsatCore:
    CORE_TEXT = (DECLS
                 + "(assert (! (<= (- x y) 3) :named a1))"
                 + "(assert (! (<= (- y x) (- 4)) :named a2))"
                 + "(check-sat)(get-unsat-core)")

    def test_requires_option(self):
        _, rs = run(self.CORE_TEXT)
        assert rs[-1].is_error

    def test_two_atom_core(self):
        cfg = SessionConfig(produce_unsat_cores=True)
        _, rs = run(self.CORE_TEXT, cfg)
        assert answers(rs) == ["unsat", "(a1 a2)"]

    def test_set_option_enables(self):
        text = "(set-option :produce-unsat-cores true)" + self.CORE_TEXT
        _, rs = run(text)
        assert answers(rs)[-1] == "(a1 a2)"

    def test_irrelevant_assertion_dropped_with_minimize(self):
        text = (DECLS + "(declare-fun z () Int)"
                + "(assert (! (<= (- x y) 3) :named a1))"
                + "(assert (! (<= (- y x) (- 4)) :named a2))"
                + "(assert (! (<= z 10) :named a3))"
                + "(check-sat)(get-unsat-core)")
        cfg = SessionConfig(produce_unsat_cores=True, minimize_core=True)
        _, rs = run(text, cfg)
        assert answers(rs)[-1] == "(a1 a2)"

    def test_core_reasserted_fresh_is_unsat(self):
        cfg = SessionConfig(produce_unsat_cores=True)
        session, rs = run(self.CORE_TEXT, cfg)
        core = answers(rs)[-1].strip("()").split()
        bodies = {"a1": "(<= (- x y) 3)", "a2": "(<= (- y x) (- 4))"}
        retry = DECLS + "".join(f"(assert {bodies[n]})" for n in core) \
            + "(check-sat)"
        _, rs2 = run(retry)
        assert answers(rs2) == ["unsat"]

    def test_requires_recent_unsat(self):
        cfg = SessionConfig(produce_unsat_cores=True)
        _, rs = run(DECLS + "(check-sat)(get-unsat-core)", cfg)
        assert rs[-1].is_error

    def test_unnamed_placeholders_off_by_default(self):
        text = (DECLS
                + "(assert (<= (- x y) 3))"
                + "(assert (! (<= (- y x) (- 4)) :named b))"
                + "(check-sat)(get-unsat-core)")
        cfg = SessionConfig(produce_unsat_cores=True)
        _, rs = run(text, cfg)
        assert answers(rs)[-1] == "(b)"

    def test_duplicate_names_rejected(self):
        text = (DECLS + "(assert (! (<= x 1) :named n))"
                + "(assert (! (<= y 1) :named n))")
        _, rs = run(text)
        assert rs[-1].is_error


class TestAgainstEnumeration:
    def oracle(self, text):
        state = {"n": 0}

        def new_var():
            state["n"] += 1
            return state["n"]

        atoms = AtomTable(new_var)
        ints = {}

        def rint(nm):
            if nm not in ints:
                ints[nm] = len(ints) + 1
            return ints[nm]

        bools = {}

        def rbool(nm):
            if nm not in bools:
                bools[nm] = new_var()
            return bools[nm]

        skeletons = []
        for cmd in parse_script(text):
            if cmd.name == "assert":
                skeletons.append(skeleton(cmd.args[0], rint, rbool, atoms))
        meta = {v: (x, y, c) for v, x, y, c in atoms.atoms()}
        return enumerate_verdict(skeletons, meta)

    def test_verdicts_match_on_mixed_structures(self):
        for seed in range(40):
            structure = [("conjunction",), ("cnf", 3, 6),
                         ("tree", 3)][seed % 3]
            spec = RandomInstanceSpec(vars=4, atoms=6, seed=seed,
                                      structure=structure)
            text = random_script(spec)
            _, rs = run(text)
            got = answers(rs)[-1]
            assert got == self.oracle(text), f"seed {seed} diverged"


class TestLifetime:
    def test_dropped_session_is_freed_without_the_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            session, rs = run(DECLS + "(assert (<= (- x y) 3))"
                              "(assert (or (< x 0) (> y 5)))(check-sat)")
            assert answers(rs) == ["sat"]
            refs = [weakref.ref(o) for o in
                    (session, session.solver, session.apsp, session.atoms)]
            del session
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_deep_term_is_an_error_response(self):
        session, _ = run(DECLS)
        term = ("cmp", "<", ("ivar", "x"), ("int", 5))
        for _ in range(5000):
            term = ("and", (("cmp", "<", ("ivar", "x"), ("ivar", "y")), term))
        r = session.execute(Command("assert", (term, None), 1, 1))
        assert r.is_error and "too deep" in r.text
        session.execute(Command("assert", (term[1][0], None), 1, 1))
        assert session.check_sat() == "sat"


class TestDeterminism:
    def test_transcripts_identical(self):
        spec = RandomInstanceSpec(vars=5, atoms=8, seed=77,
                                  structure=("cnf", 3, 9))
        text = random_script(spec) + "(get-model)\n"
        _, rs1 = run(text)
        _, rs2 = run(text)
        assert answers(rs1) == answers(rs2)


class TestConfig:
    def test_exit_stops_the_session(self):
        session, rs = run(DECLS + "(exit)(check-sat)")
        assert session.finished


class TestStats:
    def test_counters_present_and_move(self):
        text = (DECLS + "(assert (or (<= (- x y) (- 1)) (<= (- y x) 0)))"
                + "(assert (<= (- x y) 5))(check-sat)")
        session, rs = run(text)
        stats = session.stats
        for key in ("decisions", "conflicts", "propagations",
                    "theory_conflicts", "fw_cell_updates", "max_vertices"):
            assert key in stats
        # x, y plus the always-present zero vertex
        assert stats["max_vertices"] == 3
        assert stats["fw_cell_updates"] >= 1
