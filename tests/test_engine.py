import gc
import itertools
import random
import time
import types
import weakref

import numpy as np
import pytest

from idlsmt import sat
from idlsmt.engine import Session, SessionConfig, _TheoryBridge
from idlsmt.kernels import BLOCK_MIN_N, NO_PATH
from idlsmt.normalize import CONST_MAX, CONST_MIN
from idlsmt.smtlib import Command, ParseError, parse_script, tokenize
from idlsmt.testkit import (
    bellman_ford_consistent, emit_benchmark, enumerate_verdict, eval_term,
    let_chain, random_script, RandomInstanceSpec, scratch_floyd_warshall,
)
from idlsmt.theory import DifferenceEngine
from idlsmt.normalize import AtomTable, skeleton

FREE = _TheoryBridge.FREE


def run(text, config=None):
    return run_commands(parse_script(text), config)


def run_commands(commands, config=None):
    session = Session(config)
    responses = []
    for cmd in commands:
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

    def test_error_message_reads_back_as_one_string(self):
        _, rs = run('(declare-fun |a"b| () Int)(assert (<= (+ |a"b| |a"b|) 1))')
        tokens = tokenize(rs[-1].text)
        assert tokens.kinds == ["lparen", "symbol", "string", "rparen", "eof"]
        assert tokens.texts[1:3] == [
            "error", 'not a difference constraint: (<= (+ |a"b| |a"b|) 1)']

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

    def test_push_a_billion_levels(self):
        # one frame stands for the whole run of levels; popping one level
        # drops what its top level declared and asserted
        text = ("(set-logic QF_IDL)(push 1000000000)(declare-fun x () Int)"
                "(assert (< x 0))(assert (> x 0))(check-sat)(pop 1)"
                "(check-sat)(get-model)(declare-fun x () Bool)"
                "(pop 999999999)")
        start = time.perf_counter()
        session, rs = run(text)
        assert answers(rs) == ["unsat", "sat", "(model )"]
        assert session.execute(Command("pop", (1,))).is_error
        with pytest.raises(ParseError, match="below the bottom"):
            parse_script(text + "(pop 1)")
        assert time.perf_counter() - start < 1

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

    def test_implications_wait_for_the_last_assumption(self):
        # the bridge is asked for implications only once every selector is
        # placed; below that, atoms reach the closure and conflicts are
        # caught at each commit, but nothing is implied
        calls = []

        def watched_session():
            session = Session()
            solver, propagate = session.solver, session.bridge.propagate

            def watched():
                out = propagate()
                calls.append((len(solver.trail_lim), len(solver.assumed)))
                return out

            session.bridge.propagate = watched
            return session

        text, _ = emit_benchmark("negative-cycle-chain", 6)
        session = watched_session()
        outs = [session.execute(cmd).text for cmd in parse_script(text)]
        # the cycle closes at the last selector's commit: a final conflict
        assert outs[-2:] == ["unsat", "(a1 a2 a3 a4 a5 a6)"]
        assert session.stats["theory_propagations"] == 0
        assert session.stats["conflicts"] == 0
        assert session.stats["theory_conflicts"] == 1
        assert calls == []
        # the assertions sit in a pushed frame, so each has a selector
        text = (DECLS + "(declare-fun z () Int)(declare-fun p () Bool)"
                "(push 1)(assert (<= (- x y) 0))(assert (<= (- y z) 0))"
                "(assert (or (<= (- x z) 0) p))"
                "(assert (or (<= (- z x) (- 1)) p))(check-sat)")
        session = watched_session()
        outs = [session.execute(cmd).text for cmd in parse_script(text)]
        assert outs[-1] == "sat"
        # x - z <= 0 is implied; z - x <= -1 is its negation, so p is forced
        assert session.stats["theory_propagations"] == 1
        assert session.stats["decisions"] == 0
        assert session.bool_value("p") is True
        assert calls and calls[0] == (4, 4)
        assert all(level >= assumed for level, assumed in calls)

    def test_final_conflict_learns_nothing_and_repeats(self):
        # the cycle closes among the selectors' levels; the assertion
        # between its links is off the cycle and stays out of the core.
        # The answer learns nothing and drops the conflicting level from
        # the kept trail, so each later check meets the same conflict
        text, _ = emit_benchmark("negative-cycle-chain", 6)
        text = text.replace(
            "(assert (! (<= (- x3 x4)",
            "(assert (! (<= (- x0 x3) 10) :named extra))\n"
            "(assert (! (<= (- x3 x4)")
        text = text.replace("(check-sat)\n(get-unsat-core)\n",
                            "(check-sat)(get-unsat-core)" * 3)
        session = Session()
        outs = []
        for cmd in parse_script(text):
            outs.append(session.execute(cmd).text)
            if cmd.name == "check-sat":
                check_kept_trail(session)
        assert [t for t in outs if t] == \
            ["unsat", "(a1 a2 a3 a4 a5 a6)"] * 3
        assert session.stats["conflicts"] == 0
        assert session.stats["theory_conflicts"] == 3
        assert not session.solver.cla_activity
        assert len(session.solver.clauses) == 7

    def test_time_budget_holds_without_conflicts(self):
        import time

        from idlsmt.testkit import emit_benchmark

        # no decisions and no conflicts, and about a second of theory
        # commits unbounded: the deadline has to be polled between
        # conflicts to hold
        text, _ = emit_benchmark("window-scheduling", 1000)
        session = Session(SessionConfig(time_budget_ms=100))
        for cmd in parse_script(text):
            if cmd.name != "check-sat":
                session.execute(cmd)
        # a full collection over what the earlier tests of this process
        # left alive takes about 0.2 s, and the setup above can leave one
        # due; collect before the clock starts so the bound times the search
        gc.collect()
        start = time.perf_counter()
        status = session.check_sat()
        elapsed = time.perf_counter() - start
        assert status == "unknown"
        assert elapsed < 0.2
        assert session.solver.stats["decisions"] == 0
        assert session.solver.stats["conflicts"] == 0

    def test_atom_over_the_vertex_limit_is_not_kept(self):
        # the refused atom's variable is allocated before the theory
        # refuses it; the failed assertion retires it, so no search
        # decides it and it never reaches the theory as an atom
        text = "(set-logic QF_IDL)" + "".join(
            f"(declare-fun v{i} () Int)(assert (<= v{i} 5))"
            for i in range(1, 1025))
        text += "(push 1)(assert (<= v1024 5))(check-sat)(pop 1)" * 5
        session = Session()
        solver = session.solver
        rs, sizes = [], []
        commands = parse_script(text + "(check-sat)(get-model)")
        for cmd in commands:
            rs.append(session.execute(cmd))
            if cmd is commands[-2]:  # the last sat answer
                rows = session.apsp.dump_tsv().count("\n")
            if rs[-1].is_error:
                assert orphan_vars(session) == []
                sizes.append(solver.n_vars)
        assert {r.text for r in rs if r.is_error} == \
            {'(error "more than 1023 difference variables")'}
        # the 1,023 atoms are level-0 facts without selectors, and the
        # refusals reuse one slot
        assert len(sizes) == 6 and set(sizes) == {1023 + 1}
        verdicts = [r.text for r in rs if r.text and not r.is_error]
        assert verdicts[:-1] == ["sat"] * 6
        assert len(session.atoms) == 1023
        assert rows == 1024
        # nor does it leave a table row for propagation to read
        lits = session.bridge.lits
        assert sum(row is not None for row in lits) == 2 * 1023


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

    def test_model_of_a_deep_let_chain(self):
        # 60 levels, each using the one below twice: 2^60 nodes as a tree
        text = DECLS + f"(assert {let_chain(60)})(check-sat)(get-model)"
        session, rs = run(text)
        assert answers(rs)[0] == "sat"
        ints, bools = session.model_env()
        assert ints["x"] - ints["y"] > 60
        for cmd in parse_script(text):
            if cmd.name == "assert":
                assert eval_term(cmd.args[0], ints, bools) is True
        _, rs = run(DECLS + f"(assert {let_chain(60)})"
                    "(assert (<= (- x y) 60))(check-sat)")
        assert answers(rs) == ["unsat"]

    def test_model_text_format(self):
        text = (DECLS + "(assert (<= x (- 2)))(check-sat)(get-model)")
        _, rs = run(text)
        model = answers(rs)[-1]
        assert model.startswith("(model (define-fun x () Int ")
        assert "(- " in model  # negative values print in functional form
        assert model.endswith(")")

    def test_quoted_names_read_back(self):
        # the model and the core print every name so that it lexes back
        # as the declared symbol, bars and all
        text = ("(set-logic QF_IDL)(set-option :produce-unsat-cores true)"
                "(declare-fun |café| () Int)(declare-fun |a\nb| () Int)"
                "(declare-fun |let| () Bool)(declare-fun plain () Int)"
                "(assert (! (< |café| |a\nb|) :named |first one|))"
                "(assert (or |let| (< plain 0)))(check-sat)(get-model)"
                "(assert (! (< |a\nb| |café|) :named plain))"
                "(check-sat)(get-unsat-core)")
        _, rs = run(text)
        out = answers(rs)
        assert out[0] == "sat" and out[2] == "unsat"
        toks = tokenize(out[1])
        heads = [(toks.kinds[i + 1], toks.texts[i + 1])
                 for i, t in enumerate(toks.texts) if t == "define-fun"]
        assert heads == [("symbol", name)
                         for name in ("café", "a\nb", "let", "plain")]
        assert tokenize(out[3]).texts[1:-2] == ["first one", "plain"]

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

    def test_minimize_honours_the_time_budget(self):
        # a2 alone is unsat, so minimizing drops a1; with no time left every
        # trial answers unknown and keeps its assertion
        text = (DECLS + "(assert (! (< x y) :named a1))"
                + "(assert (! (and (< x y) (< y x)) :named a2))(check-sat)")
        cfg = SessionConfig(produce_unsat_cores=True, minimize_core=True)
        session, _ = run(text + "(get-unsat-core)", cfg)
        assert session.unsat_core_names() == ["a2"]
        session, rs = run(text, cfg)
        assert answers(rs) == ["unsat"]
        session.cfg.time_budget_ms = 0
        start = time.perf_counter()
        resp = session.execute(Command("get-unsat-core", ()))
        assert time.perf_counter() - start < 1
        assert resp.text == "(a1 a2)"

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
                # a tree copy: the oracle must not rely on the node cache
                term = _unshare(cmd.args[0])
                skeletons.append(skeleton(term, rint, rbool, atoms))
        return enumerate_verdict(skeletons, atoms.bounds)

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

    def test_let_dags_match_and_models_hold(self):
        # a let-bound subterm reused under not, xor and ite is encoded once;
        # verdicts and models must still be those of the tree expansion
        verdicts = set()
        for seed in range(60):
            spec = RandomInstanceSpec(vars=4, atoms=6, seed=seed,
                                      structure=("let", 4))
            text = random_script(spec) + "(get-model)"
            session, rs = run(text)
            got = answers(rs)[0]
            assert got == self.oracle(text), f"seed {seed} diverged"
            verdicts.add(got)
            if got == "sat":
                ints, bools = session.model_env()
                for cmd in parse_script(text):
                    if cmd.name == "assert":
                        assert eval_term(cmd.args[0], ints, bools) is True
        assert verdicts == {"sat", "unsat"}


def _unshare(term):
    """A copy of a parsed term in which no node is shared."""
    out = [term[0]]
    for part in term[1:]:
        if isinstance(part, tuple):
            part = (_unshare(part) if isinstance(part[0], str)
                    else tuple(_unshare(k) for k in part))
        out.append(part)
    return tuple(out)


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

    def test_deep_term_is_answered(self):
        # the normalizer and the encoder keep explicit stacks, so depth is
        # bounded by memory alone
        session, _ = run(DECLS)
        term = ("cmp", "<", ("ivar", "x"), ("int", 5))
        for _ in range(20000):
            term = ("and", (("cmp", "<", ("ivar", "x"), ("ivar", "y")), term))
        r = session.execute(Command("assert", (term, None)))
        assert not r.is_error
        assert session.check_sat() == "sat"
        session.execute(Command("assert", (("cmp", ">", ("ivar", "x"),
                                             ("ivar", "y")), None)))
        assert session.check_sat() == "unsat"


def push_pop_script(seed):
    """A random CNF script cut into push/pop frames with checks between."""
    rng = random.Random(seed)
    spec = RandomInstanceSpec(vars=4, atoms=10, lo=-6, hi=6,
                              structure=("cnf", 3, 14), seed=seed)
    lines = random_script(spec).splitlines()[:-1]
    out, depth = [], 0
    for line in lines:
        if line.startswith("(assert"):
            roll = rng.random()
            if roll < 0.3:
                out.append("(push 1)")
                depth += 1
            elif roll < 0.45 and depth:
                out.append("(pop 1)")
                depth -= 1
        out.append(line)
        if line.startswith("(assert") and rng.random() < 0.4:
            out.append("(check-sat)")
    return "\n".join(out + ["(check-sat)"])


def machine_script(seed, tasks):
    """Tasks on one machine under makespan bounds, each bound pushed,
    checked and popped; the bound below the total load is unsat."""
    rng = random.Random(seed)
    dur = [rng.randint(1, 6) for _ in range(tasks)]
    lines = ["(set-logic QF_IDL)"]
    lines += [f"(declare-fun s{i} () Int)" for i in range(tasks)]
    lines += [f"(assert (>= s{i} 0))" for i in range(tasks)]
    for i in range(tasks):
        for j in range(i + 1, tasks):
            lines.append(f"(assert (or (<= (- s{i} s{j}) (- {dur[i]})) "
                         f"(<= (- s{j} s{i}) (- {dur[j]}))))")
    total = sum(dur)
    for bound in (total + 3, total - 1, total):
        lines.append("(push 1)")
        lines += [f"(assert (<= s{i} {bound - dur[i]}))"
                  for i in range(tasks)]
        lines += ["(check-sat)", "(pop 1)"]
    return "\n".join(lines)


def table_row(bridge, lit):
    """The bridge's table row of ``lit``, None for a literal of no live
    atom (the table ends at the highest literal it has seen)."""
    code = 2 * lit if lit > 0 else 1 - 2 * lit
    return bridge.lits[code] if code < len(bridge.lits) else None


def check_kept_trail(session):
    """The trail an answer leaves is consistent with the theory: its
    levels open with the kept assumptions in order, neither the theory's
    atom levels nor its undo trail hold a level above the trail's, and the
    closure is that of the bounds of the atoms the theory has seen, built
    from scratch."""
    solver, bridge, apsp = session.solver, session.bridge, session.apsp
    top = len(solver.trail_lim)
    for level, lit in enumerate(solver.assumed[:top], 1):
        assert solver.value(lit) == 1 and solver.levels[lit] <= level
    levels = bridge.level_of[:bridge.width]
    assert (levels[levels != FREE] <= top).all()
    assert all(level <= top for level, _, _ in apsp._trail)
    edges = []
    for lit in solver.trail[:solver.th_head]:
        row = table_row(bridge, lit)
        if row is not None:
            x, y, c, _ = row
            edges.append((y, x, c))
    if not solver.ok:
        # a theory conflict at level 0 leaves its refused literal seen
        return
    n = apsp.n
    D, R = scratch_floyd_warshall(n, edges)
    assert (apsp._d[:n, :n] == np.where(R, D, NO_PATH)).all()


def widening_script(seed):
    """Two rounds of one frame each. A round checks after every stage, and
    each stage's atoms reach new names, so the closure's capacity doubles,
    8 -> 16 -> 32 -> 64, between two checks. The first round's pop retires
    its atoms and gives back its vertices, so the second round's atoms take
    the released variable slots and vertices. Each stage links its new names
    in a chain of unit bounds, which entail atoms of the disjunctions."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(63)]
    lines = ["(set-logic QF_IDL)"]
    lines += [f"(declare-fun {name} () Int)" for name in names]
    for _ in range(2):
        lines.append("(push 1)")
        done = 1
        for width in (7, 15, 31, 63):
            lines += [f"(assert (<= (- {names[i]} {names[i - 1]}) "
                      f"{_num(rng.randint(-3, 3))}))"
                      for i in range(done, width)]
            done = width
            for _ in range(4):
                a, b, c, d = rng.sample(names[:width], 4)
                lines.append(
                    f"(assert (or (<= (- {a} {b}) {_num(rng.randint(-6, 6))})"
                    f" (<= (- {c} {d}) {_num(rng.randint(-6, 6))})))")
            lines.append("(check-sat)")
        lines.append("(pop 1)")
    return "\n".join(lines)


class TestAssignmentMask:
    """The bridge's atom levels against the solver's values: ``FREE``
    marks exactly the live atoms the solver left unassigned."""

    def run_checked(self, text):
        session = Session()
        bridge, solver = session.bridge, session.solver
        orig = bridge.propagate
        calls = [0]

        def free_vars():
            # a retired atom's variable reads -1, never FREE, so the free
            # variables are the live atoms the solver left unassigned
            return np.flatnonzero(bridge.level_of == FREE).tolist()

        def propagate():
            calls[0] += 1
            want = sorted(var for var in session.atoms.bounds
                          if solver.values[var] == 0)
            assert free_vars() == want
            return orig()

        bridge.propagate = propagate
        for cmd in parse_script(text):
            session.execute(cmd)
            # the bridge holds the live atoms and no other variable, each
            # one's bound in its bounds_at row and both its literals in the
            # table
            bounds = session.atoms.bounds
            assert np.flatnonzero(bridge.level_of >= 0).tolist() \
                == sorted(bounds)
            for var, (x, y, c) in bounds.items():
                assert bridge.bounds_at[var].tolist() == [x, y, c]
                assert table_row(bridge, var) == (x, y, c, var)
                assert table_row(bridge, -var) == (y, x, -c - 1, -var)
            assert sum(row is not None for row in bridge.lits) \
                == 2 * len(bounds)
            if cmd.name == "check-sat":
                # the answer keeps its trail; the theory has seen
                # trail[:th_head], all of it except after a conflict at
                # level 0, and holds the level of exactly those atoms
                seen = {abs(l) for l in solver.trail[:solver.th_head]}
                assert free_vars() == sorted(set(bounds) - seen)
                for var in seen.intersection(bounds):
                    assert bridge.level_of[var] == solver.levels[var]
                check_kept_trail(session)
        return session.stats, calls[0]

    def test_mask_matches_solver_values(self):
        totals = dict.fromkeys(("theory_conflicts", "conflicts", "restarts"),
                               0)
        calls = 0
        texts = [push_pop_script(seed) for seed in range(40)]
        texts += [machine_script(seed, 6) for seed in range(3)]
        for text in texts:
            stats, n = self.run_checked(text)
            calls += n
            for key in totals:
                totals[key] += stats[key]
        assert calls > 3000
        assert totals["theory_conflicts"] > 200
        assert totals["conflicts"] > 500 and totals["restarts"] > 0

    def test_an_atom_variable_past_twice_the_capacity(self):
        # each array doubles until it holds the new atom's variable, so an
        # atom may take a variable beyond twice their capacity
        bridge = _TheoryBridge(types.SimpleNamespace(trail=[]),
                               DifferenceEngine())
        cap = len(bridge.level_of)
        far = 2 * cap + 3
        farther = 4 * (far + 1)
        bridge.register_atom(1, 1, 0, 5)
        bridge.register_atom(far, 2, 1, -1)
        bridge.register_atom(farther, 2, 0, 4)
        assert len(bridge.level_of) == len(bridge.bounds_at) > farther
        assert np.flatnonzero(bridge.level_of != -1).tolist() \
            == [1, far, farther]
        assert bridge.bounds_at[far].tolist() == [2, 1, -1]
        assert bridge.bounds_at[farther].tolist() == [2, 0, 4]
        assert bridge.on_assert(1, 1) is None
        assert bridge.on_assert(far, 2) is None
        # x2 - x1 <= -1 and x1 - x0 <= 5 entail x2 - x0 <= 4
        assert [lit for lit, _ in bridge.propagate()] == [farther]
        assert bridge.level_of[[1, far, farther]].tolist() == [1, 2, FREE]
        bridge.on_backtrack(1)
        assert bridge.level_of[[1, far, farther]].tolist() == [1, FREE, FREE]
        # and through a session: 40 Booleans come before the first atom
        bools = [f"b{i}" for i in range(40)]
        session, rs = run(
            DECLS + "".join(f"(declare-fun {b} () Bool)" for b in bools)
            + f"(assert (or {' '.join(bools)}))"
            + "(assert (<= (- x y) 3))(check-sat)")
        assert answers(rs) == ["sat"]
        [var] = session.atoms.bounds
        assert var > 2 * cap
        assert session.bridge.level_of[var] == session.solver.levels[var]

    def test_an_atom_on_the_last_slot_after_an_odd_code_grew_the_table(self):
        # a literal made since the last atom grows the table past its odd
        # code; an atom whose negative code is the last slot still gets
        # both rows
        bridge = _TheoryBridge(types.SimpleNamespace(trail=[]),
                               DifferenceEngine())
        code = len(bridge.lits) + 1
        assert bridge.on_assert(-(code // 2), 1) is None
        var = (len(bridge.lits) - 1) // 2
        assert 2 * var == len(bridge.lits) - 1  # its negative code is not
        bridge.register_atom(var, 1, 0, 5)
        assert bridge.lits[2 * var] == (1, 0, 5, var)
        assert bridge.lits[2 * var + 1] == (0, 1, -6, -var)
        assert bridge.on_assert(-var, 1) is None
        assert bridge.level_of[var] == 1

    def test_table_across_doublings_and_reused_variable_slots(self):
        # the checks of run_checked after every command, while the closure
        # doubles between checks and popped atoms' variable slots are taken
        # again
        for seed in range(4):
            self.run_checked(widening_script(seed))


def entailed_literals(bounds, asserted, free, n):
    """Signed literals of the ``free`` atom variables that the bounds of
    the ``asserted`` literals entail, read off a from-scratch closure: the
    variable when its bound holds, its negation when the integer complement
    does."""
    edges = []
    for lit in asserted:
        x, y, c = bounds[abs(lit)]
        if lit < 0:
            x, y, c = y, x, -c - 1
        edges.append((y, x, c))
    ref = scratch_floyd_warshall(n, edges)
    assert ref is not None, "the asserted bounds must be consistent"
    D, R = ref
    out = set()
    for var in free:
        x, y, c = bounds[var]
        if R[y, x] and D[y, x] <= c:
            out.add(var)
        if R[x, y] and D[x, y] <= -c - 1:
            out.add(-var)
    return out


class TestPropagationOracle:
    """Theory propagation is exhaustive: every ``propagate`` call returns
    exactly the free atoms that the asserted bounds entail, or refute,
    skipped scans included."""

    def run_checked(self, text, session=None):
        session = session or Session()
        bridge, solver = session.bridge, session.solver
        bounds = session.atoms.bounds
        orig = bridge.propagate
        counts = {"calls": 0, "found": 0}

        def propagate():
            got = orig()
            lits = [lit for lit, _ in got]
            assert len(lits) == len(set(lits))
            # the theory has seen the whole trail when it is asked
            asserted = [lit for lit in solver.trail if abs(lit) in bounds]
            free = [var for var in bounds if solver.values[var] == 0]
            assert set(lits) == entailed_literals(bounds, asserted, free,
                                                  session.apsp.n)
            counts["calls"] += 1
            counts["found"] += bool(lits)
            return got

        bridge.propagate = propagate
        for cmd in parse_script(text):
            session.execute(cmd)
        return counts

    def test_solver_calls_match_scratch_closure(self):
        calls = found = 0
        texts = [push_pop_script(seed) for seed in range(40)]
        texts += [machine_script(seed, 6) for seed in range(3)]
        for text in texts:
            counts = self.run_checked(text)
            calls += counts["calls"]
            found += counts["found"]
        assert calls > 3000 and found > 500

    def test_closure_doublings_and_reused_variable_slots_between_scans(self):
        # a scan after the closure doubled reads the atoms' cells at the
        # new width, and one after a pop reads each reused variable slot's
        # new atom, never the retired one's
        calls = found = 0
        for seed in range(6):
            session = Session()
            bound_of, widths = {}, set()
            retaken = 0  # atoms in a slot a retired atom of another bound held
            register = session.bridge.register_atom

            def counted(var, *bound):
                nonlocal retaken
                retaken += bound_of.get(var, bound) != bound
                bound_of[var] = bound
                register(var, *bound)
                widths.add(len(session.apsp._d))

            session.atoms.on_new_atom = counted
            counts = self.run_checked(widening_script(seed), session)
            calls += counts["calls"]
            found += counts["found"]
            assert widths == {8, 16, 32, 64}
            # the second round took first-round atoms' variable slots
            assert retaken > 20
        assert calls > 100 and found > 50

    def drive(self, rng, rounds, pools):
        """The bridge alone, under hook calls in any order the SAT core's
        protocol allows, not only its propagate-before-deciding one: atoms
        are added between scans, several levels pass without a scan, each
        scan's implications are asserted or dropped by a backtrack, and a
        conflict is followed by a backtrack. ``pools(rng)`` gives a round's
        vertex pools; its 80 steps draw new atoms from each in turn. Besides
        the scans that found an implication, and those that found one again
        after a backtrack dropped the last scan's, it counts the scans that
        found one after commits alone, with no new atom or backtrack since
        the last scan."""
        found = rescans = after_commit = 0
        for _ in range(rounds):
            vertices = pools(rng)
            bounds = {}
            bridge = _TheoryBridge(types.SimpleNamespace(trail=[]),
                                   DifferenceEngine())
            asserted = []  # (level, literal)
            level = 0
            dropped = False  # the last scan's implications were backtracked
            stale = True  # an atom came or a backtrack since the last scan

            def backtrack(to):
                nonlocal stale
                stale = True
                bridge.on_backtrack(to)
                asserted[:] = [(lv, lit) for lv, lit in asserted if lv <= to]
                return to

            for step in range(80):
                roll = rng.random()
                taken = {abs(lit) for _, lit in asserted}
                free = [var for var in bounds if var not in taken]
                if roll < 0.2 or not free:
                    pool = vertices[step * len(vertices) // 80]
                    x, y = rng.sample(pool, 2)
                    var = len(bounds) + 1
                    bounds[var] = (x, y, rng.randint(-4, 4))
                    bridge.register_atom(var, *bounds[var])
                    stale = True
                elif roll < 0.45 and level:
                    lit = rng.choice(free) * rng.choice((1, -1))
                    if bridge.on_assert(lit, level) is None:
                        asserted.append((level, lit))
                    else:
                        level = backtrack(rng.randrange(level))
                elif roll < 0.6:
                    level += 1
                elif roll < 0.7 and level:
                    level = backtrack(rng.randrange(level))
                else:
                    lits = {lit for lit, _ in bridge.propagate()}
                    want = entailed_literals(
                        bounds, [lit for _, lit in asserted], free,
                        bridge.apsp.n)
                    assert lits == want
                    found += bool(lits)
                    after_commit += not stale and bool(lits)
                    rescans += dropped and bool(lits)
                    stale = False
                    dropped = bool(lits) and level > 0 and rng.random() < 0.3
                    if dropped:
                        level = backtrack(rng.randrange(level))
                        continue
                    for lit in lits:
                        assert bridge.on_assert(lit, level) is None
                        asserted.append((level, lit))
        return found, rescans, after_commit, bridge

    def test_hook_protocol_without_fixpoint(self):
        found, rescans, _, _ = self.drive(
            random.Random(23), 100, lambda rng: [range(rng.randint(3, 6))])
        assert found > 300 and rescans > 20

    def test_hook_protocol_on_the_block_kernel(self):
        # the vertices sit above BLOCK_MIN_N, so every commit that relaxes
        # runs the block kernel, which logs the changed cells
        top = BLOCK_MIN_N + 8
        found, rescans, after_commit, bridge = self.drive(
            random.Random(29), 40,
            lambda rng: [rng.sample(range(BLOCK_MIN_N, top + 4),
                                    rng.randint(3, 6))])
        assert bridge.apsp.n > BLOCK_MIN_N
        assert found > 100 and rescans > 5 and after_commit > 25

    def test_small_closures_scan_every_free_atom_after_a_commit(self):
        # below BLOCK_MIN_N each commit saves its whole block; a call after
        # commits alone scans every free atom and must still answer
        # exactly what the oracle implies
        found, _, after_commit, bridge = self.drive(
            random.Random(37), 60,
            lambda rng: [rng.sample(range(BLOCK_MIN_N - 1),
                                    rng.randint(3, 6))])
        assert bridge.apsp.n < BLOCK_MIN_N
        assert after_commit > 50 and found > 200

    def test_atoms_added_across_capacity_doublings(self):
        # closure capacity 8 -> 16 -> 32 -> 128 as vertices 7, 9, 17 and
        # 70 arrive, with commits and scans in between
        pools = [range(8), [0, 3, 5, 9], [3, 5, 9, 17], [0, 9, 17, 70]]
        found, _, _, bridge = self.drive(
            random.Random(31), 80, lambda rng: pools)
        assert bridge.apsp.n == 71 and len(bridge.apsp._d) == 128
        assert found > 100


class TestPropagationCount:
    """``prop_atoms_tested`` counts the atoms that ``propagate`` tests: every
    free atom, unless the closure has not moved since its last call."""

    @pytest.mark.parametrize("b", [0, BLOCK_MIN_N])
    def test_each_commit_scans_every_free_atom(self, b):
        # from offset BLOCK_MIN_N the commits run the block kernel, which
        # logs its changed cells; below it they save the whole block. On
        # both sides each call after a commit tests every free atom, and
        # a call after no kernel commit tests nothing
        bounds = {1: (b + 1, 0, 5), 2: (b + 3, b + 2, 0),
                  3: (b + 4, b + 3, 1), 4: (b + 4, b + 2, 3)}
        bridge = _TheoryBridge(types.SimpleNamespace(trail=[]),
                               DifferenceEngine())
        for var, bound in bounds.items():
            bridge.register_atom(var, *bound)
        assert (bridge.apsp.n > BLOCK_MIN_N) == (b > 0)
        assert bridge.propagate() == [] and bridge.atoms_tested == 4
        assert bridge.propagate() == [] and bridge.atoms_tested == 4
        # x3 - x2 <= 0 changes cell (2, 3) alone, which only atom 2 reads
        assert bridge.on_assert(2, 1) is None
        assert bridge.propagate() == [] and bridge.atoms_tested == 7
        # x4 - x3 <= 1 also changes (2, 4), which entails atom 4
        assert bridge.on_assert(3, 1) is None
        assert bridge.propagate() == [(4, (b + 2, b + 4, 3, 2))]
        assert bridge.atoms_tested == 9
        # atom 4 comes back entailed: no kernel call, so nothing to test
        assert bridge.on_assert(4, 1) is None
        assert bridge.propagate() == [] and bridge.atoms_tested == 9

    def test_every_call_after_a_change_tests_every_free_atom(self):
        # the count is the free atoms at every call after a cell change, a
        # backtrack or a new atom, here on diamond grids past BLOCK_MIN_N
        texts = [emit_benchmark("diamond-grid", n, seed)[0]
                 for n, seed in ((60, 0), (120, 1))]
        texts += [emit_benchmark("window-scheduling", n, seed)[0]
                  for n, seed in ((40, 0), (80, 1))]
        full = tested = 0
        for text in texts:
            session = Session()
            bridge, apsp = session.bridge, session.apsp
            due = {"rescan": True, "cells": None}
            for name in ("register_atom", "on_backtrack"):
                def hook(*args, orig=getattr(bridge, name)):
                    due["rescan"] = True
                    return orig(*args)
                setattr(bridge, name, hook)
            session.atoms.on_new_atom = bridge.register_atom
            orig = bridge.propagate

            def propagate():
                nonlocal full
                if due["rescan"] or due["cells"] != apsp.cell_updates:
                    full += int((bridge.level_of == FREE).sum())
                    due.update(rescan=False, cells=apsp.cell_updates)
                return orig()

            bridge.propagate = propagate
            for cmd in parse_script(text):
                session.execute(cmd)
            assert session.last_status == "sat"
            tested += session.stats["prop_atoms_tested"]
        assert tested == full > 0


class TestFirstPhase:
    """The first decision on an atom takes the polarity that the closure's
    model satisfies; later decisions keep the saved phase."""

    def test_a_fresh_atom_takes_the_polarity_the_model_satisfies(self):
        # with no bound asserted the model is all zero: x - y <= 5 holds
        # and z - w <= -1 does not, so the first is decided true, which
        # leaves the second free, and the second is decided false
        session, rs = run(
            "(set-logic QF_IDL)"
            + "".join(f"(declare-fun {v} () Int)" for v in "xyzw")
            + "(assert (or (<= (- x y) 5) (<= (- z w) (- 1))))(check-sat)")
        assert answers(rs) == ["sat"]
        var = {c: v for v, (_, _, c) in session.atoms.bounds.items()}
        solver = session.solver
        decided = [solver.trail[k]
                   for k in solver.trail_lim[len(solver.assumed):]]
        assert decided == [var[5], -var[-1]]

    def test_a_first_decision_keeps_the_model_and_never_conflicts(self):
        # the model satisfies the decided bound, so relaxing it changes no
        # column minimum; no decision, first or saved, closes a cycle. The
        # second check redoes the decisions of the first in saved phases.
        first = saved = 0
        for seed in range(30):
            spec = RandomInstanceSpec(vars=8, atoms=30, lo=-40, hi=40,
                                      seed=seed, structure=("cnf", 4, 20))
            session = Session()
            bridge, solver, apsp = session.bridge, session.solver, session.apsp
            asked = []
            phase, on_assert = bridge.phase, bridge.on_assert

            def recording_phase(var):
                asked.append(var)
                return phase(var)

            def checked(lit, level):
                nonlocal first, saved
                if level <= len(solver.assumed) \
                        or solver.reasons[abs(lit)] is not None:
                    return on_assert(lit, level)
                is_first = asked[-1:] == [abs(lit)]
                before = apsp.extract_model()
                assert on_assert(lit, level) is None, f"seed {seed}"
                if is_first:
                    assert apsp.extract_model() == before, f"seed {seed}"
                    asked.pop()
                first += is_first
                saved += not is_first
                return None

            bridge.phase, bridge.on_assert = recording_phase, checked
            for cmd in parse_script(random_script(spec) + "(check-sat)"):
                session.execute(cmd)
        assert first > 150 and saved > 150

    def test_diamond_grid_relaxes_a_small_share_of_the_closure(self):
        # each disjunct decided false rewrote a row-by-column block of the
        # closure: 3,742,219 cells before the first phase followed the model
        session, rs = run(emit_benchmark("diamond-grid", 400)[0])
        assert answers(rs) == ["sat"]
        assert session.stats["fw_cell_updates"] < 2 * 400 ** 2


def _num(c):
    return str(c) if c >= 0 else f"(- {-c})"


def window_session(seed, n_vars, cycles):
    """A base frame of overlapping windows around a hidden witness, then
    cycles of push, three assertions, check-sat and pop. The assertions
    ask four of the variables to lie pairwise ``gap`` apart, two pairs per
    assertion and one disjunction per pair, so the check splits cases and
    learns clauses. The witness keeps the gap of a sat cycle; in every
    other cycle the gap is more than a third of the span of the four
    windows, so no four points fit. Returns the script and the expected
    verdicts."""
    rng = random.Random(seed)
    witness = rng.sample(range(200), n_vars)
    lo = [w - rng.randint(0, 100) for w in witness]
    hi = [w + rng.randint(0, 100) for w in witness]
    lines = ["(set-logic QF_IDL)"]
    lines += [f"(declare-fun t{i} () Int)" for i in range(n_vars)]
    lines += [f"(assert (and (<= {_num(lo[i])} t{i}) (<= t{i} {_num(hi[i])})))"
              for i in range(n_vars)]
    expected = []
    for cycle in range(cycles):
        four = rng.sample(range(n_vars), 4)
        pairs = [(a, b) for k, a in enumerate(four) for b in four[k + 1:]]
        if cycle % 2:
            span = max(hi[v] for v in four) - min(lo[v] for v in four)
            gap = span // 3 + 1
        else:
            gap = min(abs(witness[a] - witness[b]) for a, b in pairs)
        seps = [f"(or (<= (+ t{a} {gap}) t{b}) (<= (+ t{b} {gap}) t{a}))"
                for a, b in pairs]
        lines.append("(push 1)")
        lines += [f"(assert (and {seps[k]} {seps[k + 3]}))" for k in range(3)]
        expected.append("unsat" if cycle % 2 else "sat")
        lines += ["(check-sat)", "(pop 1)"]
    return "\n".join(lines), expected


def orphan_vars(session):
    """Variables unassigned or fixed at level 0 that are neither released
    slots nor used by a live assertion as an atom, declared Boolean,
    selector or variable of a stored clause: variables a pop should have
    released."""
    solver = session.solver
    live = set(session.atoms.bounds) | set(session._bool_ids.values())
    for rec in session.active_records():
        live.add(rec.selector)
        live.update(abs(l) for c in rec.clauses for l in c)
    free = set(solver.free_vars)
    return [v for v in range(1, solver.n_vars + 1)
            if not (solver.values[v] and solver.levels[v])
            and v not in free and v not in live]


class TestPopByDeletion:
    """Pop deletes what the popped frame added, so a session holds only
    what its live assertions need."""

    def test_a_thousand_cycles_stay_flat(self):
        text, expected = window_session(1, 8, 1000)
        session = Session()
        apsp, solver, bridge = session.apsp, session.solver, session.bridge
        calls = [0]

        def assert_atom(*args, orig=apsp.assert_atom):
            calls[0] += 1
            return orig(*args)

        apsp.assert_atom = assert_atom
        got, sizes, per_check = [], [], []
        for cmd in parse_script(text):
            resp = session.execute(cmd)
            if cmd.name == "check-sat":
                got.append(resp.text)
                per_check.append(calls[0])
                calls[0] = 0
            elif cmd.name == "pop":
                assert not orphan_vars(session)
                sizes.append((solver.n_vars, len(solver.clauses),
                              len(session.atoms),
                              int((bridge.level_of >= 0).sum()),
                              bridge.width, len(bridge.level_of)))
        assert got == expected
        # the base frame's 16 atoms are all that is left after each pop,
        # in the session's table and in the bridge alike
        assert sizes[5][2] == sizes[5][3] == 16
        assert set(sizes[5:]) == {sizes[5]}
        stats = session.stats
        assert (stats["live_clauses"], stats["live_atoms"]) == sizes[5][1:3]
        first = sum(per_check[10:110]) / 100
        last = sum(per_check[-100:]) / 100
        assert abs(last - first) <= 0.1 * first

    @pytest.mark.parametrize("formula, role", [("p", "selector"),
                                               ("(and p q)", "gate")])
    def test_a_retired_atom_slot_reaches_the_theory_as_nothing(
            self, formula, role):
        # the popped atom's variable is the lowest released slot, so the
        # next assertion's first new variable takes it: the selector of a
        # literal assertion, the gate of a conjunction. A second pop
        # releases it again, and the next frame's first atom takes it back
        *setup, pop, push, new, check, pop2, push2, again, implying, \
            check2 = parse_script(
                DECLS + "(declare-fun p () Bool)(declare-fun q () Bool)"
                "(assert (or p q))(push 1)(assert (<= (- x y) 3))(check-sat)"
                f"(pop 1)(push 1)(assert {formula})(check-sat)"
                "(pop 1)(push 1)(assert (or p (<= (- y x) 2)))"
                "(assert (<= (- y x) 1))(check-sat)")
        session = Session()
        bridge, apsp = session.bridge, session.apsp
        scanned = []
        scan = bridge.propagate

        def checked_scan():
            # no scan returns a literal of a variable that is not an atom
            got = scan()
            scanned.extend(lit for lit, _ in got)
            assert all(abs(lit) in session.atoms.bounds for lit, _ in got)
            return got

        bridge.propagate = checked_scan
        for cmd in setup:
            session.execute(cmd)
        [var] = session.atoms.bounds
        session.execute(pop)
        assert table_row(bridge, var) is table_row(bridge, -var) is None
        assert bridge.level_of[var] == -1
        assert bridge.phase(var) is False
        session.execute(push)
        session.execute(new)
        assert var not in session.atoms.bounds
        assert (var in session._sel2rec) == (role == "selector")
        seen = []
        on_assert = bridge.on_assert

        def recording(lit, level):
            before = apsp.stamp, len(apsp._trail), apsp.snapshot()
            out = on_assert(lit, level)
            if abs(lit) == var:
                seen.append((out, before, (apsp.stamp, len(apsp._trail),
                                           apsp.snapshot())))
            return out

        bridge.on_assert = recording
        assert session.execute(check).text == "sat"
        assert seen and all(out is None and before == after
                            for out, before, after in seen)
        assert bridge.level_of[var] == -1
        session.execute(pop2)
        assert bridge.level_of[var] == -1
        session.execute(push2)
        session.execute(again)
        # an atom again, with its new bound, and not yet asserted
        x, y = session._int_ids["x"], session._int_ids["y"]
        assert session.atoms.bounds[var] == (y, x, 2)
        assert table_row(bridge, var) == (y, x, 2, var)
        assert bridge.level_of[var] == FREE
        session.execute(implying)
        scanned.clear()
        assert session.execute(check2).text == "sat"
        # y - x <= 1 entails it, and the scan says so
        assert var in scanned
        assert bridge.level_of[var] == session.solver.levels[var]

    def test_popped_constants_give_back_their_vertices(self):
        # each frame declares a fresh constant; without vertex reuse the
        # closure grows by one vertex a cycle and passes its 1,024 limit
        lines = ["(set-logic QF_IDL)", "(declare-fun x () Int)",
                 "(assert (< x 5))"]
        for k in range(1100):
            lines += ["(push 1)", f"(declare-fun u{k} () Int)",
                      f"(assert (< x u{k}))", "(check-sat)", "(pop 1)"]
        session = Session()
        apsp = session.apsp
        got, sizes = [], set()
        for cmd in parse_script("\n".join(lines)):
            resp = session.execute(cmd)
            if cmd.name == "check-sat":
                got.append(resp.text)
            elif cmd.name == "pop":
                sizes.add(session.stats["max_vertices"])
                # a vertex no name holds has no edge and no path but its own
                n = apsp.n
                free = sorted(set(range(1, n)) - set(session._int_ids.values()))
                assert free == [2]
                assert not apsp.edges[2]
                assert all(2 not in out for out in apsp.edges)
                clean = np.where(np.arange(n) == 2, 0, NO_PATH)
                assert (apsp._d[2, :n] == clean).all()
                assert (apsp._d[:n, 2] == clean).all()
        assert got == ["sat"] * 1100
        assert sizes == {3}

    def test_verdicts_match_a_fresh_replay_of_the_live_assertions(self):
        cfg = SessionConfig(produce_unsat_cores=True)
        checks = {"sat": 0, "unsat": 0}
        for seed in range(40):
            session = Session(cfg)
            head, frames = [], [[]]
            for cmd in parse_script(push_pop_script(seed)):
                resp = session.execute(cmd)
                if cmd.name == "push":
                    frames.append([])
                elif cmd.name == "pop":
                    frames.pop()
                    assert orphan_vars(session) == [], f"seed {seed}"
                elif cmd.name == "assert":
                    frames[-1].append(cmd)
                elif cmd.name != "check-sat":
                    head.append(cmd)
                    continue
                if cmd.name != "check-sat":
                    continue
                live = [a for frame in frames for a in frame]
                check = parse_script("(check-sat)")
                _, rs = run_commands(head + live + check, cfg)
                assert resp.text == rs[-1].text, f"seed {seed}"
                checks[resp.text] += 1
                if resp.text == "sat":
                    ints, bools = session.model_env()
                    for a in live:
                        assert eval_term(a.args[0], ints, bools) is True
                else:
                    core = set(session.unsat_core_names())
                    kept = [a for a in live if a.args[1] in core]
                    _, rs = run_commands(head + kept + check, cfg)
                    assert rs[-1].text == "unsat", f"seed {seed}"
        assert checks["sat"] > 50 and checks["unsat"] > 50


class TestLiveness:
    """A variable stays only while a stored clause of a live assertion
    mentions it, it is a live selector or a declared Boolean, or it is an
    atom fixed at level 0."""

    def test_false_assertion_cycles_stay_flat(self):
        # (assert false) fixes its selector false at level 0; the pop
        # releases that slot and drops the fact from the level-0 trail. The
        # base assertion is a level-0 fact of its atom, with no selector
        session, _ = run(DECLS + "(assert (<= (- x y) 3))")
        solver = session.solver
        cycle = parse_script("(push 1)(assert false)(check-sat)(pop 1)")
        sizes = set()
        for _ in range(100):
            assert answers(map(session.execute, cycle)) == ["unsat"]
            assert orphan_vars(session) == []
            level0 = solver.trail_lim[0] if solver.trail_lim else None
            sizes.add((solver.n_vars, len(solver.trail[:level0])))
        # the base atom on the level-0 trail, and the one slot each frame
        # reuses
        assert sizes == {(2, 1)}
        assert answers([session.execute(Command("check-sat", ()))]) == ["sat"]

    def test_an_atom_no_stored_clause_holds_is_retired(self):
        # the disjunction folds to true once its atom is interned, so the
        # live assertion stores no clause that mentions the atom
        head = DECLS + "(assert (or (< x y) true))"
        later = ("(assert (< x y))(check-sat)(get-model)"
                 "(assert (< y x))(check-sat)")
        cmds = parse_script(head + "(push 1)(pop 1)" + later)
        session, _ = run_commands(cmds[:4])
        assert len(session.atoms) == 1 and not session.solver.clauses
        for cmd in cmds[4:6]:
            session.execute(cmd)
        assert len(session.atoms) == 0 and not any(session.bridge.lits)
        assert orphan_vars(session) == []
        got = [session.execute(cmd) for cmd in cmds[6:]]
        _, fresh = run(head + later)
        assert answers(got) == answers(fresh)
        assert answers(got)[::2] == ["sat", "unsat"]


def kept_trail_script(seed):
    """Random push, assert, check-sat and pop commands over four base Int
    constants and constants declared inside frames, a name coming back
    after its frame is popped. Assertions are named clauses of one to
    three atoms, checks repeat between assertions, and push and pop move
    one or more levels."""
    rng = random.Random(seed)
    scopes = [["v0", "v1", "v2", "v3"]]  # names declared per level
    lines = ["(set-logic QF_IDL)"]
    lines += [f"(declare-fun {name} () Int)" for name in scopes[0]]

    def atom():
        names = [name for scope in scopes for name in scope]
        x, y = rng.sample(names, 2)
        op = rng.choice(["<=", "<", ">=", ">"])
        c = _num(rng.randint(-4, 4))
        text = (f"({op} {x} {c})" if rng.random() < 0.3
                else f"({op} (- {x} {y}) {c})")
        return f"(not {text})" if rng.random() < 0.3 else text

    for k in range(45):
        roll = rng.random()
        if roll < 0.15:
            n = rng.choice([1, 1, 2])
            lines.append(f"(push {n})")
            scopes += [[] for _ in range(n)]
        elif roll < 0.27 and len(scopes) > 1:
            n = rng.randint(1, len(scopes) - 1)
            lines.append(f"(pop {n})")
            del scopes[-n:]
        elif roll < 0.35 and len(scopes) > 1:
            name = f"w{rng.randrange(3)}"
            if all(name not in scope for scope in scopes):
                lines.append(f"(declare-fun {name} () Int)")
                scopes[-1].append(name)
        elif roll < 0.75:
            lits = [atom() for _ in range(rng.choice([1, 1, 2, 3]))]
            body = lits[0] if len(lits) == 1 else f"(or {' '.join(lits)})"
            lines.append(f"(assert (! {body} :named a{k}))")
        else:
            lines.append("(check-sat)")
    return "\n".join(lines + ["(check-sat)"])


class TestKeptTrail:
    """An answer keeps its trail, and the next check carries on from the
    assumption levels it shares. Verdicts, models and cores stay those of
    a fresh session that replays the live assertions."""

    @pytest.mark.parametrize("minimize", [False, True],
                             ids=["core", "minimized-core"])
    def test_verdicts_match_a_fresh_replay(self, minimize):
        cfg = SessionConfig(produce_unsat_cores=True, minimize_core=minimize)
        checks = {"sat": 0, "unsat": 0}
        kept = 0
        for seed in range(60):
            session = Session(SessionConfig(**vars(cfg)))
            head, frames = [], [[]]
            for cmd in parse_script(kept_trail_script(seed)):
                resp = session.execute(cmd)
                assert not resp.is_error, (seed, resp.text)
                check_kept_trail(session)
                if cmd.name == "push":
                    frames += [[] for _ in range(cmd.args[0])]
                elif cmd.name == "pop":
                    del frames[len(frames) - cmd.args[0]:]
                elif cmd.name == "assert":
                    frames[-1].append(cmd)
                elif cmd.name != "check-sat":
                    head.append(cmd)
                if cmd.name != "check-sat":
                    continue
                kept += bool(session.solver.trail_lim)
                live = [a for frame in frames for a in frame]
                check = parse_script("(check-sat)")
                _, rs = run_commands(head + live + check, cfg)
                assert resp.text == rs[-1].text, f"seed {seed}"
                checks[resp.text] += 1
                if resp.text == "sat":
                    ints, bools = session.model_env()
                    for a in live:
                        assert eval_term(a.args[0], ints, bools) is True
                else:
                    core = set(session.unsat_core_names())
                    check_kept_trail(session)
                    kept_live = [a for a in live if a.args[1] in core]
                    _, rs = run_commands(head + kept_live + check, cfg)
                    assert rs[-1].text == "unsat", f"seed {seed}"
        assert checks["sat"] > 150 and checks["unsat"] > 150
        assert kept > 150


class TestDeterminism:
    def test_transcripts_identical(self):
        spec = RandomInstanceSpec(vars=5, atoms=8, seed=77,
                                  structure=("cnf", 3, 9))
        text = random_script(spec) + "(get-model)\n"
        _, rs1 = run(text)
        _, rs2 = run(text)
        assert answers(rs1) == answers(rs2)


class TestBottomFrame:
    """With cores off, a bottom-frame assertion is a level-0 fact: its
    root is a unit clause, with no selector and no assumption step. Any
    other assertion keeps its selector."""

    def test_only_bottom_frame_assertions_without_cores_lose_the_selector(self):
        text = (DECLS + "(declare-fun p () Bool)(assert (<= (- x y) 3))"
                "(assert (or p (< x y)))(push 1)(assert (<= (- y x) 1))"
                "(check-sat)")
        for cores in (False, True):
            session, rs = run(text, SessionConfig(produce_unsat_cores=cores))
            assert answers(rs) == ["sat"]
            solver = session.solver
            base, frame = session.frames
            assert [rec.selector is None for rec in base.records] \
                == [not cores] * 2
            assert frame.records[0].selector is not None
            assert sorted(session._sel2rec) == sorted(
                rec.selector for rec in session.active_records()
                if rec.selector is not None)
            assert solver.assumed == list(session._sel2rec)
            if not cores:
                # the atom and the disjunction's root are level-0 units
                level0 = solver.trail[:solver.trail_lim[0]]
                atom = next(v for v, b in session.atoms.bounds.items()
                            if b == (1, 2, 3))
                assert atom in level0 and solver.reasons[atom] is None
                assert len(session.active_records()[1].clauses) > 0

    def test_the_cores_option_is_refused_after_the_first_assertion(self):
        for value, cores in (("true", False), ("false", True)):
            session = Session(SessionConfig(produce_unsat_cores=cores))
            first = parse_script(
                f"(set-option :produce-unsat-cores {value})")[0]
            later = parse_script(
                DECLS + "(push 1)(assert (< x y))(pop 1)"
                f"(set-option :produce-unsat-cores {value})"
                "(assert (< y x))")
            assert not session.execute(first).is_error
            assert session.cfg.produce_unsat_cores == (value == "true")
            session.cfg.produce_unsat_cores = cores
            rs = [session.execute(cmd) for cmd in later]
            # a popped assertion counts too: the option stays as it was
            assert rs[-2] == (
                '(error ":produce-unsat-cores may only be set before the '
                'first assertion")', True)
            assert session.cfg.produce_unsat_cores == cores
            [rec] = session.active_records()
            assert (rec.selector is not None) == cores

    def test_false_in_the_bottom_frame_answers_unsat_through_later_frames(self):
        # no pop can remove it: every later check is unsat, frames with
        # their own assertions come and go, and the session keeps its size
        session, rs = run(DECLS + "(assert (<= (- x y) 3))(assert false)"
                          "(check-sat)")
        assert answers(rs) == ["unsat"] and not session.solver.ok
        solver = session.solver
        cycle = parse_script(DECLS + "(push 1)(assert (< y x))"
                             "(assert (< x 7))(check-sat)(pop 1)(check-sat)")[3:]
        sizes = set()
        for _ in range(50):
            assert answers(map(session.execute, cycle)) == ["unsat"] * 2
            assert orphan_vars(session) == []
            sizes.add((solver.n_vars, len(solver.trail),
                       len(solver.clauses)))
        assert len(sizes) == 1
        assert session.dimacs_text().splitlines()[-1] == "0"
        assert session.execute(Command("get-model", ())).is_error

    def test_a_timed_out_hand_off_resumes_at_the_next_check(self,
                                                            monkeypatch):
        # every assertion is a level-0 fact, so the theory gets them all in
        # the first propagation, which polls the deadline every 64 trail
        # literals. A clock that ticks at each poll passes the deadline at
        # the second poll of each call; the next call resumes where the
        # last one stopped
        text, _ = emit_benchmark("window-scheduling", 60)
        session = Session()
        for cmd in parse_script(text):
            if cmd.name != "check-sat":
                session.execute(cmd)
        solver = session.solver
        assert not solver.trail_lim and len(solver.trail) > 128
        ticks = itertools.count()
        monkeypatch.setattr(sat, "time",
                            types.SimpleNamespace(monotonic=lambda: next(ticks)))
        assert solver.solve([], deadline=0.5).status == "unknown"
        assert solver.th_head == 63
        assert solver.solve([], deadline=3.5).status == "unknown"
        assert solver.th_head == 127
        assert session.check_sat() == "sat"
        check_kept_trail(session)
        ints, bools = session.model_env()
        for cmd in parse_script(text):
            if cmd.name == "assert":
                assert eval_term(cmd.args[0], ints, bools) is True


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

    def test_undo_log_size_returns_after_a_frame(self):
        # the frame's bound is neither entailed nor refuted at the base
        # frame's levels, so the pop keeps those levels and their cells
        text = ("(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"
                "(declare-fun z () Int)(assert (<= (- x y) 3))"
                "(assert (<= (- y z) 2))(check-sat)"
                "(push 1)(assert (<= (- z x) 1))(check-sat)(pop 1)")
        # cores on: the base frame's assertions are selectors, so their
        # commits sit at assumption levels and keep undo entries
        session = Session(SessionConfig(produce_unsat_cores=True))
        sizes = []
        for cmd in parse_script(text):
            session.execute(cmd)
            stats = session.stats
            # four vertices: each relaxing commit saves its 4 x 4 block
            assert stats["undo_bytes"] == 8 * stats["undo_cells"]
            assert stats["undo_cells"] % 16 == 0
            sizes.append((stats["undo_cells"], stats["undo_bytes"]))
        assert sizes[5][0] == 0 < sizes[6][0]  # around the first check
        assert sizes[9][0] > sizes[6][0]  # the frame's check
        assert sizes[10] == sizes[6]  # the pop


    def test_undo_bytes_are_the_trail_arrays(self):
        # the base frame's commits save whole 4 x 4 blocks; the frame's
        # constants take the closure past BLOCK_MIN_N, so its commits log
        # cells. undo_bytes sums both kinds' arrays, and the pop takes
        # both counts back to their values before the push.
        names = [f"v{i}" for i in range(BLOCK_MIN_N)]
        text = ("(set-logic QF_IDL)(declare-fun x () Int)"
                "(declare-fun y () Int)(declare-fun z () Int)"
                "(assert (<= (- x y) 3))(assert (<= (- y z) 2))"
                "(check-sat)(push 1)"
                + "".join(f"(declare-fun {v} () Int)" for v in names)
                + "".join(f"(assert (<= (- {u} {v}) 1))"
                          for u, v in zip(names, names[1:]))
                + "(check-sat)(pop 1)")
        # cores on: the base frame's commits sit at assumption levels
        session = Session(SessionConfig(produce_unsat_cores=True))
        seen, sizes = set(), []
        for cmd in parse_script(text):
            session.execute(cmd)
            stats = session.stats
            # a whole block is (old block, count), a cell log 3 arrays
            entries = [undo for _, _, undo in session.apsp._trail
                       if undo is not None]
            seen.update(map(len, entries))
            blocks = [u[0] for u in entries if len(u) == 2]
            logs = [u for u in entries if len(u) == 3]
            assert stats["undo_bytes"] == (
                sum(b.nbytes for b in blocks)
                + sum(a.nbytes for log in logs for a in log))
            assert stats["undo_cells"] == (
                sum(b.size for b in blocks) + sum(len(log[0]) for log in logs))
            sizes.append((stats["undo_cells"], stats["undo_bytes"]))
        assert seen == {2, 3}
        assert session.apsp.n > BLOCK_MIN_N
        assert sizes[6][0] > 0  # the first check
        assert sizes[-2][1] > sizes[6][1]  # the frame's check
        assert sizes[-1] == sizes[6]  # the pop


def chain_script(n, c, up=True):
    """Bounds x{i+1} - x{i} <= c (``up``) or >= c over x0 .. x{n}, each its
    own assertion, ending at x{n} - x0 >= 1 (``up``) or <= 0."""
    op, last = (("<=", f">= (- x{n} x0) 1") if up
                else (">=", f"<= (- x{n} x0) 0"))
    text = "(set-logic QF_IDL)" + "".join(
        f"(declare-fun x{i} () Int)" for i in range(n + 1))
    text += "".join(f"(assert ({op} (- x{i + 1} x{i}) {c}))" for i in range(n))
    return text + f"(assert ({last}))(check-sat)"


class TestPathSums:
    """Constants are capped at 53 bits so that no closure sum leaves int64
    at the vertex limit; a constant past the cap is a clean error."""

    @pytest.mark.parametrize("up", [True, False], ids=["sat", "unsat"])
    def test_chains_at_and_past_the_bound(self, up):
        c = 2 ** 61 - 1
        _, rs = run(chain_script(5, c, up))
        # each of the five refused bounds answers an error, and the session
        # goes on: the last bound alone is sat
        op = "<=" if up else ">="
        assert answers(rs) == [
            f'(error "constant overflow: constant exceeds the 53-bit limit '
            f'in ({op} (- x{i + 1} x{i}) {c})")' for i in range(5)] + ["sat"]
        session, rs = run(chain_script(5, CONST_MAX, up))
        assert answers(rs) == ["sat" if up else "unsat"]
        if up:
            model = session.model_env()[0]
            assert model["x5"] - model["x0"] >= 1
            assert all(model[f"x{i + 1}"] - model[f"x{i}"] <= CONST_MAX
                       for i in range(5))

    @staticmethod
    def full_chain(op, tail):
        """``x1 op C`` and ``x{i+1} - x{i} op C`` at C = CONST_MAX: 1,023
        edges over all 1,024 vertices the limit allows, the zero vertex
        included, so closure cells hold sums of up to 1,023 such C."""
        text = "(set-logic QF_IDL)" + "".join(
            f"(declare-fun x{i} () Int)" for i in range(1, 1024))
        text += f"(assert ({op} x1 {CONST_MAX}))" + "".join(
            f"(assert ({op} (- x{i + 1} x{i}) {CONST_MAX}))"
            for i in range(1, 1023))
        return text + tail + "(check-sat)"

    def test_chain_over_every_vertex_at_the_bound(self):
        # x1023 >= -C closes a cycle through the zero vertex, so the kernel
        # adds two cells of about 1,022 C each and C once more
        session, rs = run(self.full_chain(
            "<=", f"(assert (>= x1023 (- {CONST_MAX})))"
                  "(assert (>= (- x1023 x1) 1))"))
        assert answers(rs) == ["sat"]
        assert session.stats["max_vertices"] == 1024
        m = session.model_env()[0]
        assert m["x1"] <= CONST_MAX and m["x1023"] >= -CONST_MAX
        assert m["x1023"] - m["x1"] >= 1
        assert all(m[f"x{i + 1}"] - m[f"x{i}"] <= CONST_MAX
                   for i in range(1, 1023))
        session, rs = run(self.full_chain(">=", ""))
        assert answers(rs) == ["sat"]
        assert session.model_env()[0]["x1023"] >= 1023 * CONST_MAX
        _, rs = run(self.full_chain(">=", "(assert (<= x1023 0))"))
        assert answers(rs) == ["unsat"]

    @pytest.mark.parametrize("prop", [True, False], ids=["prop", "no-prop"])
    def test_random_bounds_near_the_cap_agree_with_bellman_ford(self, prop):
        # conjunctions of bounds whose constants sit at or near the cap, plus
        # binary disjunctions, so that the search meets theory conflicts
        # (more of them with theory propagation stubbed out); the oracle
        # tries every choice of disjuncts in Python ints
        verdicts = []
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.choice([4, 6, 8])

            def bound():
                x, y = rng.sample(range(1, n + 1), 2)
                c = rng.choice([CONST_MAX - rng.randint(0, 3),
                                CONST_MIN + rng.randint(0, 3),
                                rng.randint(-3, 3)])
                return x, y, c

            def render(b):
                return f"(<= (- x{b[0]} x{b[1]}) {_num(b[2])})"

            units = [bound() for _ in range(rng.randint(n // 2, n))]
            ors = [(bound(), bound()) for _ in range(rng.randint(2, 5))]
            text = "(set-logic QF_IDL)" + "".join(
                f"(declare-fun x{i} () Int)" for i in range(1, n + 1))
            text += "".join(f"(assert {render(b)})" for b in units)
            text += "".join(f"(assert (or {render(a)} {render(b)}))"
                            for a, b in ors)
            session = Session()
            if not prop:
                session.bridge.propagate = lambda: ()
            rs = [session.execute(cmd) for cmd in parse_script(
                text + "(check-sat)")]
            want = any(bellman_ford_consistent(units + list(pick)) is not None
                       for pick in itertools.product(*ors))
            assert answers(rs) == ["sat" if want else "unsat"], seed
            if want:
                m = session.model_env()[0]
                holds = lambda b: m[f"x{b[0]}"] - m[f"x{b[1]}"] <= b[2]
                assert all(map(holds, units)), seed
                assert all(holds(a) or holds(b) for a, b in ors), seed
            verdicts.append(want)
        assert 10 <= sum(verdicts) <= 30
