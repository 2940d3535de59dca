"""Deeper randomized runs aimed at the rarely-taken paths: lazy
explanations cashed in during conflict analysis, parallel-edge tightening
histories, restarts under assumptions, and learned-clause reduction."""

import itertools
import random

import pytest

from idlsmt.engine import Session, SessionConfig
from idlsmt.sat import Solver
from idlsmt.smtlib import parse_script
from idlsmt.testkit import (
    RandomInstanceSpec, eval_term, random_script, truth_table_sat,
)
from test_acceptance import oracle_verdict, run_commands


def counting_session(config=None):
    session = Session(config)
    counter = [0]
    orig = session.bridge.explain

    def wrapped(handle):
        counter[0] += 1
        return orig(handle)

    session.bridge.explain = wrapped
    return session, counter


class TestLazyExplanations:
    def test_explanations_fire_and_answers_stay_correct(self):
        total_explains = 0
        for seed, cores in itertools.product(range(300), (False, True)):
            # clauses of up to three atoms and trees of depth 5 leave
            # choices after the assertions are in, so the search meets
            # conflicts above those levels, which learn. With cores off the
            # assertions are level-0 facts, which need no explanation; with
            # cores on they are selectors at assumption levels, which do
            structure = ("cnf", 3, 8) if seed % 2 else ("tree", 5)
            spec = RandomInstanceSpec(vars=3, atoms=10, lo=-6, hi=6,
                                      structure=structure, seed=seed)
            commands = parse_script(random_script(spec))
            session, counter = counting_session(
                SessionConfig(produce_unsat_cores=cores))
            answer = None
            for cmd in commands:
                resp = session.execute(cmd)
                if cmd.name == "check-sat":
                    answer = resp.text
            total_explains += counter[0]
            assert answer == oracle_verdict(commands), f"seed {seed}"
            if answer == "sat":
                ints, bools = session.model_env()
                for cmd in commands:
                    if cmd.name == "assert":
                        assert eval_term(cmd.args[0], ints, bools) is True
        # the lazy path must actually have been exercised by this corpus
        assert total_explains > 20

    def test_equality_and_distinct_structures(self):
        # equality splits into two atoms and distinct into a disjunction,
        # so the pool stays small to keep the oracle budget honest
        rng = random.Random(77)
        for round_ in range(200):
            names = ["u", "v", "w"]
            lines = ["(set-logic QF_IDL)"]
            for nm in names:
                lines.append(f"(declare-fun {nm} () Int)")
            pool = []
            for _ in range(4):
                x, y = rng.sample(names, 2)
                c = rng.randint(-3, 3)
                cs = str(c) if c >= 0 else f"(- {-c})"
                pool.append(rng.choice([
                    f"(= (- {x} {y}) {cs})",
                    f"(distinct {x} {y})",
                    f"(<= (- {x} {y}) {cs})",
                    f"(= {x} {y})",
                ]))
            for _ in range(rng.randint(2, 5)):
                k = rng.randint(1, 2)
                picks = [pool[rng.randrange(len(pool))] for _ in range(k)]
                picks = [p if rng.random() < 0.6 else f"(not {p})"
                         for p in picks]
                body = picks[0] if k == 1 else "(or " + " ".join(picks) + ")"
                lines.append(f"(assert {body})")
            lines.append("(check-sat)")
            commands = parse_script("\n".join(lines))
            session, outs = run_commands(commands)
            assert outs[0] == oracle_verdict(commands), f"round {round_}"
            if outs[0] == "sat":
                ints, bools = session.model_env()
                for cmd in commands:
                    if cmd.name == "assert":
                        assert eval_term(cmd.args[0], ints, bools) is True

    def test_parallel_edge_histories(self):
        # few variable pairs, many constants: tightening stacks get deep
        rng = random.Random(99)
        for round_ in range(120):
            pairs = [("v0", "v1"), ("v1", "v2"), ("v2", "v0")]
            lines = ["(set-logic QF_IDL)"]
            for v in ("v0", "v1", "v2"):
                lines.append(f"(declare-fun {v} () Int)")
            literals = []
            for _ in range(10):
                x, y = pairs[rng.randrange(3)]
                c = rng.randint(-4, 4)
                cs = str(c) if c >= 0 else f"(- {-c})"
                literals.append(f"(<= (- {x} {y}) {cs})")
            for _ in range(7):
                k = rng.randint(2, 3)
                picks = [literals[rng.randrange(len(literals))]
                         for _ in range(k)]
                picks = [p if rng.random() < 0.6 else f"(not {p})"
                         for p in picks]
                lines.append("(assert (or " + " ".join(picks) + "))")
            lines.append("(check-sat)")
            commands = parse_script("\n".join(lines))
            _, outs = run_commands(commands)
            assert outs[0] == oracle_verdict(commands), f"round {round_}"


class TestSearchMachinery:
    def pigeon_script(self, n):
        decls = "(set-logic QF_IDL)" + "".join(
            f"(declare-fun x{i} () Int)" for i in range(n))
        body = "".join(f"(assert (>= x{i} 0))(assert (<= x{i} {n - 2}))"
                       for i in range(n))
        body += "(assert (distinct " + " ".join(
            f"x{i}" for i in range(n)) + "))"
        return decls + body + "(check-sat)"

    def test_restarts_under_assumptions_and_theory(self):
        session, outs = run_commands(parse_script(self.pigeon_script(7)))
        assert outs == ["unsat"]
        assert session.stats["restarts"] > 0
        assert session.stats["conflicts"] > 64

    def test_pigeonhole_sat_when_room(self):
        text = self.pigeon_script(6).replace("(<= x0 4)", "(<= x0 5)") \
            .replace("(<= x1 4)", "(<= x1 5)").replace("(<= x2 4)", "(<= x2 5)") \
            .replace("(<= x3 4)", "(<= x3 5)").replace("(<= x4 4)", "(<= x4 5)") \
            .replace("(<= x5 4)", "(<= x5 5)")
        session, outs = run_commands(parse_script(text))
        assert outs == ["sat"]
        ints, _ = session.model_env()
        assert len(set(ints.values())) == 6

    def test_learned_clause_reduction_keeps_verdicts(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(6, 10)
            clauses = []
            for _ in range(rng.randint(20, 45)):
                k = rng.randint(2, 3)
                clauses.append([rng.choice([1, -1]) * rng.randint(1, n)
                                for _ in range(k)])
            s = Solver()
            for _ in range(n):
                s.new_var()
            s.learned_limit = 5  # force reduction to run
            ok = all(s.add_clause(list(cl)) for cl in clauses)
            res = s.solve() if ok else None
            expected = truth_table_sat(clauses, n)
            if not ok or res.status == "unsat":
                assert expected is None
            else:
                assert expected is not None
                for cl in clauses:
                    assert any(res.model[abs(l)] == (l > 0) for l in cl)


class TestStreamingReflow:
    def test_arbitrary_line_splits_parse_identically(self):
        # commands chopped across lines at random points (outside tokens)
        # must stream exactly as they batch-parse
        import io

        from idlsmt.smtlib import (
            CommandReader, DeclEnv, cursor, parse_command, tokenize,
        )

        rng = random.Random(13)
        for seed in range(60):
            spec = RandomInstanceSpec(vars=3, atoms=6, seed=seed,
                                      structure=("cnf", 2, 5))
            text = random_script(spec)
            batch = parse_script(text)
            blob = text.replace("\n", " ")
            pieces = []
            k = 0
            while k < len(blob):
                step = rng.randint(1, 9)
                cut = blob.find(" ", min(k + step, len(blob) - 1))
                if cut == -1:
                    cut = len(blob)
                pieces.append(blob[k:cut] + "\n")
                k = cut + 1
            reader = CommandReader(io.StringIO("".join(pieces)))
            env = DeclEnv()
            streamed = []
            while True:
                item = reader.next_command()
                if item is None:
                    break
                chunk, line, col = item
                cmd = parse_command(cursor(tokenize(chunk, line, col)), env)
                if cmd is not None:
                    streamed.append((cmd.name, cmd.args))
            assert streamed == [(c.name, c.args) for c in batch], f"seed {seed}"

    def test_incremental_cli_matches_batch_on_random_scripts(self):
        import io

        from idlsmt.cli import run as cli_run

        for seed in range(40):
            spec = RandomInstanceSpec(vars=4, atoms=7, seed=7000 + seed,
                                      structure=("tree", 3))
            script = random_script(spec)
            out_b = io.StringIO()
            rc_b = cli_run(["-"], stdin=io.StringIO(script), stdout=out_b)
            out_i = io.StringIO()
            rc_i = cli_run(["--incremental", "-"], stdin=io.StringIO(script),
                           stdout=out_i)
            assert rc_b == rc_i == 0
            assert out_b.getvalue() == out_i.getvalue(), f"seed {seed}"


class TestLongSessions:
    def test_many_checks_one_session(self):
        from idlsmt.smtlib import DeclEnv, cursor, parse_command, tokenize

        rng = random.Random(31)
        names = [f"v{i}" for i in range(4)]
        env = DeclEnv()
        session = Session()

        def feed(text):
            cmd = parse_command(cursor(tokenize(text)), env)
            return session.execute(cmd)

        feed("(set-logic QF_IDL)")
        for v in names:
            feed(f"(declare-fun {v} () Int)")
        depth_bodies = [[]]
        checks = 0
        for step in range(150):
            roll = rng.random()
            if roll < 0.4:
                x, y = rng.sample(names, 2)
                c = rng.randint(-5, 5)
                cs = str(c) if c >= 0 else f"(- {-c})"
                body = f"(<= (- {x} {y}) {cs})"
                feed(f"(assert {body})")
                depth_bodies[-1].append(body)
            elif roll < 0.55:
                feed("(push 1)")
                depth_bodies.append([])
            elif roll < 0.7 and len(depth_bodies) > 1:
                feed("(pop 1)")
                depth_bodies.pop()
            else:
                got = feed("(check-sat)").text
                checks += 1
                bodies = [b for frame in depth_bodies for b in frame]
                scratch_text = (
                    "(set-logic QF_IDL)"
                    + "".join(f"(declare-fun {v} () Int)" for v in names)
                    + "".join(f"(assert {b})" for b in bodies)
                    + "(check-sat)")
                _, scratch = run_commands(parse_script(scratch_text))
                assert got == scratch[0], f"step {step}"
        assert checks > 20
