import io
import runpy
import subprocess
import sys

import pytest

from idlsmt import cli as cli_module
from idlsmt.cli import run
from idlsmt.engine import Session, _TheoryBridge
from idlsmt.smtlib import parse_script, tokenize
from idlsmt.testkit import emit_benchmark, truth_table_sat
from test_engine import DECLS, machine_script, push_pop_script

SAT_TEXT = ("(set-logic QF_IDL)\n(declare-fun x () Int)\n"
            "(declare-fun y () Int)\n(assert (<= (- x y) 3))\n"
            "(check-sat)\n")

UNSAT_TEXT = ("(set-logic QF_IDL)\n(declare-fun x () Int)\n"
              "(declare-fun y () Int)\n"
              "(assert (! (<= (- x y) 3) :named a1))\n"
              "(assert (! (<= (- y x) (- 4)) :named a2))\n"
              "(check-sat)\n")


def cli(args, text=None, tmp_path=None):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    stdin = io.StringIO(text) if text is not None else None
    code = run(args, stdin=stdin, stdout=out)
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestBatch:
    def test_sat_file(self, tmp_path):
        code, out = cli([write(tmp_path, "a.smt2", SAT_TEXT)])
        assert (code, out) == (0, "sat\n")

    def test_unsat_exit_is_clean(self, tmp_path):
        code, out = cli([write(tmp_path, "a.smt2", UNSAT_TEXT)])
        assert (code, out) == (0, "unsat\n")

    def test_stdin_dash(self):
        code, out = cli(["-"], text=SAT_TEXT)
        assert (code, out) == (0, "sat\n")

    def test_unsupported_logic(self, tmp_path):
        path = write(tmp_path, "b.smt2", "(set-logic QF_BV)\n(check-sat)\n")
        code, out = cli([path])
        assert code == 1
        assert out == '(error "unsupported logic QF_BV")\n'

    def test_parse_error_aborts(self, tmp_path):
        path = write(tmp_path, "c.smt2", "(assert (< x 1))\n(check-sat)\n")
        code, out = cli([path])
        assert code == 1
        assert out.startswith('(error "')
        assert "check-sat" not in out

    def test_missing_exit_is_fine(self, tmp_path):
        path = write(tmp_path, "d.smt2", SAT_TEXT + "(exit)\n")
        code, out = cli([path])
        assert (code, out) == (0, "sat\n")

    def test_missing_file_is_usage_error(self):
        code, _ = cli(["/nonexistent/nope.smt2"])
        assert code == 1

    def test_parse_error_prints_stats(self, tmp_path, capsys):
        path = write(tmp_path, "c.smt2", "(assert (< x 1))\n(check-sat)\n")
        code, out = cli(["--stats", path])
        assert code == 1 and out.startswith('(error "')
        assert "decisions=0" in capsys.readouterr().err


class TestIncremental:
    def test_streaming_answers(self):
        text = ("(set-logic QF_IDL)\n(declare-const x Int)\n"
                "(push 1)\n(assert (<= x (- 1)))\n(check-sat)\n"
                "(pop 1)\n(assert (>= x 4))\n(check-sat)\n(get-model)\n")
        code, out = cli(["--incremental", "-"], text=text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sat" and lines[1] == "sat"
        assert lines[2].startswith("(model (define-fun x () Int 4")

    def test_errors_do_not_kill_session(self):
        text = ("(set-logic QF_BV)\n"
                "(set-logic QF_IDL)\n(declare-const x Int)\n"
                "(assert (<= x 0))\n(check-sat)\n")
        code, out = cli(["--incremental", "-"], text=text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == '(error "unsupported logic QF_BV")'
        assert lines[-1] == "sat"

    @pytest.mark.parametrize("flags", [[], ["--incremental"]],
                             ids=["batch", "incremental"])
    def test_parse_error_message_reads_back_as_one_string(self, flags):
        text = '(set-logic QF_IDL)\n(assert (< |a"b| 1))\n'
        code, out = cli(flags + ["-"], text=text)
        assert code == (0 if flags else 1)
        tokens = tokenize(out)
        assert tokens.kinds == ["lparen", "symbol", "string", "rparen", "eof"]
        assert tokens.texts[2] == """2:12: undeclared symbol 'a"b'"""

    @pytest.mark.parametrize("flags", [[], ["--incremental"]],
                             ids=["batch", "incremental"])
    def test_exit_stops_reading(self, flags):
        text = "(set-logic QF_IDL)(exit)(check-sat)\n"
        assert cli(flags + ["-"], text=text) == (0, "")

    def test_parse_error_reported_inline(self):
        text = "(assert (< q 1))\n(set-logic QF_IDL)\n(check-sat)\n"
        code, out = cli(["--incremental", "-"], text=text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith('(error "')
        assert lines[-1] == "sat"


# Symbols and numerals are ASCII, so each of these is an (error ...) answer
# with its position, never a traceback. The odd run of quotes opens a string
# that runs to the end of the input, as does a string or quoted symbol
# opened between commands.
LEX_ERRORS = {
    "(push ²)": "6:7: illegal character '²'",
    "(assert (< x ²))": "6:14: illegal character '²'",
    "(declare-fun café () Int)": "6:17: illegal character 'é'",
    "(push ٣)": "6:7: illegal character '٣'",
    '(set-info :x """)': "6:14: unterminated string literal",
    '"abc': "6:1: unterminated string literal",
    "|abc": "6:1: unterminated quoted symbol",
}


class TestLexErrors:
    @pytest.mark.parametrize("bad", LEX_ERRORS)
    def test_batch_answers_an_error(self, bad, capsys):
        code, out = cli(["-"], text=SAT_TEXT + bad + "\n(check-sat)\n")
        assert (code, out) == (1, f'(error "{LEX_ERRORS[bad]}")\n')
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", LEX_ERRORS)
    def test_incremental_session_goes_on(self, bad, capsys):
        text = SAT_TEXT + bad + "\n(check-sat)\n"
        code, out = cli(["--incremental", "-"], text=text)
        assert code == 0
        rest = [] if "unterminated" in LEX_ERRORS[bad] else ["sat"]
        assert out.splitlines() == ["sat", f'(error "{LEX_ERRORS[bad]}")'] + rest
        assert "Traceback" not in capsys.readouterr().err

    def test_quoted_symbol_over_two_lines(self):
        text = ("(set-logic QF_IDL)(declare-fun |a\nb| () Int)\n"
                "(assert (< |a\nb| 0))(check-sat)\n")
        for args in (["-"], ["--incremental", "-"]):
            assert cli(args, text=text) == (0, "sat\n")


def nested_and(depth):
    return ("(set-logic QF_IDL)\n(declare-fun x () Int)\n"
            "(declare-fun y () Int)\n(assert "
            + "(and (< x y) " * depth + "(< x 5)" + ")" * depth + ")\n"
            "(check-sat)\n")


def let_chain(depth, unsat=False):
    # t0 = x, t_i = t_{i-1} + 1, asserting x + depth < y: a chain of
    # single-binding lets, as SMT-LIB generators emit them
    lets = "(let ((t0 x)) " + "".join(
        f"(let ((t{i} (+ t{i - 1} 1))) " for i in range(1, depth + 1))
    text = ("(set-logic QF_IDL)\n(declare-fun x () Int)\n"
            "(declare-fun y () Int)\n(assert " + lets + f"(< t{depth} y)"
            + ")" * (depth + 1) + ")\n")
    if unsat:
        text += f"(assert (<= y (+ x {depth})))\n"
    return text + "(check-sat)\n"


class TestDeepNesting:
    # 600 levels once overflowed the recursive normalizer and 2000 the
    # parser; every pass keeps an explicit stack now, so both answer
    @pytest.mark.parametrize("depth", [600, 2000])
    def test_batch_answers(self, tmp_path, depth):
        code, out = cli([write(tmp_path, "deep.smt2", nested_and(depth))])
        assert (code, out) == (0, "sat\n")

    @pytest.mark.parametrize("depth", [600, 2000])
    def test_incremental_session_survives(self, depth):
        text = nested_and(depth) + "(assert (< y 0))\n(check-sat)\n"
        code, out = cli(["--incremental", "-"], text=text)
        assert (code, out.splitlines()) == (0, ["sat", "sat"])

    @pytest.mark.parametrize("shape", ["wide", "doubling"])
    def test_non_difference_term_is_a_clean_error(self, shape):
        # the message renders the term from a stack and stops early, so a
        # 2,000-operand sum or a 40-level doubling let chain costs little
        decls = "(set-logic QF_IDL)\n(declare-fun x () Int)\n"
        if shape == "wide":
            names = [f"z{i}" for i in range(2000)]
            decls += "".join(f"(declare-fun {z} () Int)" for z in names)
            term = "(<= (+ " + " ".join(names) + ") 3)"
        else:
            term = "(let ((a0 x)) " + "".join(
                f"(let ((a{i} (+ a{i - 1} a{i - 1}))) " for i in range(1, 41))
            term += "(<= a40 3)" + ")" * 41
        code, out = cli(["-"], text=decls + f"(assert {term})\n(check-sat)\n")
        assert code == 1 and len(out) < 400
        assert out.startswith('(error "not a difference constraint: (<= ')
        assert out.endswith('...")\n')

    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["batch", "incremental"])
    def test_let_chain_answers(self, incremental):
        flags = ["--incremental"] if incremental else []
        for unsat in (False, True):
            code, out = cli(flags + ["-"], text=let_chain(10000, unsat))
            assert (code, out) == (0, "unsat\n" if unsat else "sat\n")


class TestFlags:
    def test_stats_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        code, out = cli(["--stats", path])
        err = capsys.readouterr().err
        assert code == 0 and out == "sat\n"
        assert "decisions=" in err and "fw_cell_updates=" in err
        assert "max_vertices=" in err and "prop_atoms_tested=" in err
        # the one bottom-frame assertion is a level-0 fact, not a clause
        assert "live_clauses=0\n" in err and "live_atoms=1\n" in err

    def test_dump_dimacs(self, tmp_path):
        dump = tmp_path / "out.cnf"
        path = write(tmp_path, "s.smt2", UNSAT_TEXT)
        code, _ = cli(["--dump-dimacs", str(dump), path])
        assert code == 0
        lines = dump.read_text().splitlines()
        head = lines[0].split()
        assert head[:2] == ["p", "cnf"]
        assert int(head[3]) == len(lines) - 1
        for cl in lines[1:]:
            assert cl == "0" or cl.endswith(" 0")
        # y - x <= -4 is the negation of the atom x - y <= 3, a level-0
        # fact: its unit simplifies to the empty clause
        assert lines[1:] == ["1 0", "0"]

    def test_dump_apsp(self, tmp_path):
        dump = tmp_path / "apsp.tsv"
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        code, _ = cli(["--dump-apsp", str(dump), path])
        assert code == 0
        rows = dump.read_text().splitlines()
        assert len(rows) == 3  # zero vertex plus x and y
        assert all(len(r.split("\t")) == 3 for r in rows)
        cells = [c for r in rows for c in r.split("\t")]
        assert "inf" in cells and "3" in cells

    @pytest.mark.parametrize("prop", [True, False], ids=["prop", "no-prop"])
    def test_dumps_match_incremental(self, tmp_path, monkeypatch, prop):
        # a sat check, an unsat check, then asserts no check-sat follows;
        # with theory propagation stubbed out, only conflicts refute
        if not prop:
            monkeypatch.setattr(_TheoryBridge, "propagate", lambda self: ())
        text, _ = emit_benchmark("negative-cycle-chain", 6)
        text = text.replace("(assert (! (<= (- x5 x0)",
                            "(check-sat)\n(assert (! (<= (- x5 x0)")
        text += "(assert (<= (- x0 x2) 5))\n(assert (<= (- x1 x3) 4))\n"
        path = write(tmp_path, "chain.smt2", text)
        dumps = {}
        for mode, extra in (("batch", []), ("incremental", ["--incremental"])):
            cnf, tsv = tmp_path / f"{mode}.cnf", tmp_path / f"{mode}.tsv"
            code, out = cli(["--produce-unsat-cores", "--dump-dimacs",
                             str(cnf), "--dump-apsp", str(tsv)]
                            + extra + [path])
            assert code == 0 and out.splitlines()[:2] == ["sat", "unsat"]
            dumps[mode] = cnf.read_bytes(), tsv.read_bytes()
        assert dumps["incremental"] == dumps["batch"]
        assert dumps["batch"][1]  # the sat answer's matrix

    def test_dimacs_after_pop_holds_nothing_of_the_frame(self, tmp_path,
                                                         capsys):
        # three points two apart in a window of width 3: the frame's check
        # needs case splits, so it learns clauses, all over its own atoms
        base = ("(set-logic QF_IDL)(declare-fun x () Int)"
                "(declare-fun y () Int)(declare-fun z () Int)"
                "(assert (<= (- x y) 3))(assert (<= (- y z) 3))\n")
        frame = "(push 1)(assert (and {}))".format(" ".join(
            f"(<= 0 {v}) (<= {v} 3)" for v in "xyz"))
        frame += "".join(f"(assert (or (<= (+ {a} 2) {b}) (<= (+ {b} 2) {a})))"
                         for a, b in ("xy", "yz", "xz")) + "(check-sat)\n"

        def dump(text):
            cnf = tmp_path / "out.cnf"
            code, out = cli(["--stats", "--dump-dimacs", str(cnf), "-"],
                            text=text)
            lines = cnf.read_text().splitlines()
            clauses = [[int(l) for l in c.split()[:-1]] for c in lines[1:]]
            assert int(lines[0].split()[3]) == len(clauses)
            used = {abs(l) for c in clauses for l in c}
            # the header counts to the highest variable a clause mentions,
            # not to the slots the frame's pop released
            assert int(lines[0].split()[2]) == max(used)
            return out, clauses, used

        out, _, base_vars = dump(base + "(check-sat)")
        assert out == "sat\n"
        capsys.readouterr()
        out, in_frame, frame_vars = dump(base + frame)
        stats = dict(line.split("=") for line
                     in capsys.readouterr().err.splitlines())
        assert out == "unsat\n" and int(stats["conflicts"]) > 0
        frame_vars -= base_vars
        assert len(frame_vars) >= 15  # selectors, gates and atoms
        out, after, after_vars = dump(base + frame + "(pop 1)(check-sat)")
        assert out == "unsat\nsat\n"
        assert after and not after_vars & frame_vars
        assert len(after) < len(in_frame)

    def test_a_bottom_frame_conjunction_dumps_as_two_units(self, tmp_path):
        # its conjuncts are the roots: two level-0 facts, no gate
        text = ("(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"
                "(assert (and (<= (- x y) 3) (<= (- y x) 5)))(check-sat)")
        cnf = tmp_path / "out.cnf"
        code, out = cli(["--dump-dimacs", str(cnf), "-"], text=text)
        assert (code, out) == (0, "sat\n")
        assert cnf.read_text() == "p cnf 2 2\n1 0\n-2 0\n"

    def test_dimacs_holds_the_bottom_frame_units(self, tmp_path):
        # the bottom frame's roots are level-0 facts, not stored clauses;
        # the dump lists them as units, so it is the session's formula: it
        # forces q, and the Booleans' other values refute it
        text = ("(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"
                "(declare-fun p () Bool)(declare-fun q () Bool)"
                "(assert (<= (- x y) 3))(assert (or p q))(assert (not p))"
                "(check-sat)")
        cnf = tmp_path / "out.cnf"
        code, out = cli(["--dump-dimacs", str(cnf), "-"], text=text)
        assert (code, out) == (0, "sat\n")
        session = Session()
        for cmd in parse_script(text):
            session.execute(cmd)
        assert cnf.read_text() == session.dimacs_text()
        lines = cnf.read_text().splitlines()
        clauses = [[int(l) for l in c.split()[:-1]] for c in lines[1:]]
        [atom] = session.atoms.bounds
        p, q = session._bool_ids["p"], session._bool_ids["q"]
        assert [atom] in clauses and [-p] in clauses
        n = int(lines[0].split()[2])
        assert truth_table_sat(clauses, n)
        for lit in (p, -q, -atom):
            assert not truth_table_sat(clauses + [[lit]], n)

    def test_apsp_dump_outlives_a_pop(self, tmp_path):
        # the frame's atoms are retired at the pop and their variable
        # slots taken by the next assertion's, while the dump still shows
        # the closure of the frame's sat answer
        base = ("(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"
                "(declare-fun z () Int)(assert (<= (- x y) 3))")
        frame = ("(push 1)(assert (or (< z x) (< x (- y 8))))"
                 "(assert (< (- z 2) y))(check-sat)\n")
        later = "(pop 1)(assert (and (< x (- z 1)) (< z (- x 1))))(check-sat)\n"
        dumps = []
        for script in (base + "(check-sat)", base + frame,
                       base + frame + later):
            tsv = tmp_path / "out.tsv"
            code, out = cli(["--dump-apsp", str(tsv), "-"], text=script)
            assert code == 0
            dumps.append((out, tsv.read_text()))
        assert [out for out, _ in dumps] == ["sat\n", "sat\n", "sat\nunsat\n"]
        assert dumps[2][1] == dumps[1][1] != dumps[0][1]

    @pytest.mark.parametrize("mode", [[], ["--incremental"]],
                             ids=["batch", "incremental"])
    @pytest.mark.parametrize("flag", ["--dump-dimacs", "--dump-apsp"])
    def test_unwritable_dump_is_clean_error(self, tmp_path, capsys, flag,
                                            mode):
        dump = str(tmp_path / "missing" / "out")
        code, out = cli([flag, dump] + mode + ["-"], text=SAT_TEXT)
        err = capsys.readouterr().err
        assert (code, out) == (1, "sat\n")
        assert err.startswith("idl-smt: error: ") and "Traceback" not in err

    def test_unknown_flag_is_usage_error(self):
        code, _ = cli(["--frobnicate", "-"], text="")
        assert code == 1

    def test_tlimit_accepted(self, tmp_path):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        assert cli(["--tlimit", "60000", path]) == (0, "sat\n")

    def test_negative_tlimit_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        assert cli(["--tlimit", "-5", path]) == (1, "")
        assert "idl-smt: error: argument --tlimit" in capsys.readouterr().err

    def test_tlimit_honored_within_slack(self, tmp_path):
        # an instance that takes many seconds unbounded; the deadline is
        # polled once per search step, so allow 2x plus startup jitter
        import time

        n = 8
        decls = "(set-logic QF_IDL)" + "".join(
            f"(declare-fun x{i} () Int)" for i in range(n))
        body = "".join(f"(assert (>= x{i} 0))(assert (<= x{i} {n - 2}))"
                       for i in range(n))
        body += "(assert (distinct " + " ".join(
            f"x{i}" for i in range(n)) + "))"
        path = write(tmp_path, "hard.smt2", decls + body + "(check-sat)")
        start = time.perf_counter()
        code, out = cli(["--tlimit", "300", path])
        elapsed = time.perf_counter() - start
        assert (code, out) == (0, "unknown\n")
        assert elapsed < 2 * 0.3 + 0.5

    def test_minimize_core_via_cli(self, tmp_path):
        text, _ = emit_benchmark("negative-cycle-chain", 4)
        path = write(tmp_path, "chain.smt2", text)
        code, out = cli(["--minimize-core", path])
        assert code == 0
        assert out.splitlines() == ["unsat", "(a1 a2 a3 a4)"]

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        from idlsmt import cli as cli_mod
        from idlsmt.engine import InternalError

        def boom(self, cmd):
            raise InternalError("synthetic")

        monkeypatch.setattr("idlsmt.engine.Session.execute", boom)
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        out = io.StringIO()
        assert cli_mod.run([path], stdout=out) == 2

    def test_sat_core_fault_exit_code(self, tmp_path, monkeypatch):
        # every layer raises the one internal-fault type that run() maps
        from idlsmt import cli as cli_mod
        from idlsmt.sat import NullTheory

        monkeypatch.setattr("idlsmt.engine.Session.execute",
                            lambda self, cmd: NullTheory().explain(None))
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        assert cli_mod.run([path], stdout=io.StringIO()) == 2


def cores_after_unsat(text):
    """``text`` with a (get-unsat-core) after each check-sat that answers
    unsat; after a sat answer it is an error, which ends a batch run."""
    _, out = cli(["-"], text=text)
    verdicts = iter(out.split())
    lines = []
    for line in text.splitlines():
        if line == "(check-sat)" and next(verdicts) == "unsat":
            line += "(get-unsat-core)"
        lines.append(line)
    return "\n".join(lines)


class TestApspDump:
    """After each check-sat, the ``--dump-apsp`` file holds the matrix the
    engine held at the last sat answer, in batch and incremental mode."""

    def run_checked(self, tmp_path, text, flags=()):
        held = []  # the engine's own dump at each sat answer, trials too
        on_solution, execute = _TheoryBridge.on_solution, Session.execute

        def recording(bridge):
            on_solution(bridge)
            held.append(bridge.apsp.dump_tsv())

        tsv = tmp_path / "out.tsv"

        def checked(session, cmd):
            nonlocal want
            # atoms added since, unsat checks, pops that hand variable
            # slots to new atoms and core minimization trials leave the
            # dump of the last sat answer as it was
            if want is None:
                assert not tsv.exists()
            else:
                assert tsv.read_text() == want
            resp = execute(session, cmd)
            if cmd.name == "check-sat":
                if resp.text == "sat":
                    want = held[-1]
                    dumps.append(want)
                elif want is None:
                    want = ""  # nothing before the first sat answer
            return resp

        path = write(tmp_path, "in.smt2", text)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_TheoryBridge, "on_solution", recording)
            mp.setattr(Session, "execute", checked)
            for mode in ([], ["--incremental"]):
                tsv.unlink(missing_ok=True)
                want, dumps = None, []  # want: None before the first check
                code, out = cli([*flags, "--dump-apsp", str(tsv), *mode,
                                 path])
                assert code == 0 and "error" not in out
                assert tsv.read_text() == want
                runs.append(dumps)
        assert runs[0] == runs[1]
        return runs[0]

    def test_dump_matches_the_engine_at_each_sat_answer(self, tmp_path):
        flags = ["--produce-unsat-cores", "--minimize-core"]
        texts = [cores_after_unsat(push_pop_script(seed))
                 for seed in range(30)]
        dumps = []
        for text in texts:
            dumps += self.run_checked(tmp_path, text, flags)
        for seed in range(2):
            dumps += self.run_checked(tmp_path, machine_script(seed, 5))
        assert len(dumps) > 100
        assert sum(dump.count("\n") > 2 for dump in dumps) > 50

    def test_new_vertex_after_the_last_sat_answer(self, tmp_path):
        text = (DECLS + "(declare-fun z () Int)(assert (<= (- x y) 3))"
                "(check-sat)(assert (< z x))(assert (< x z))(check-sat)"
                "(assert (< y z))")
        [dump] = self.run_checked(tmp_path, text)
        # only x - y <= 3, the edge y -> x of weight 3, over 0, x and y
        assert dump == "0\tinf\tinf\ninf\t0\tinf\ninf\t3\t0\n"

    @pytest.mark.parametrize("mode", [[], ["--incremental"]],
                             ids=["batch", "incremental"])
    def test_an_unchanged_dump_is_not_written_again(self, tmp_path, mode):
        # the first check writes the empty dump and the first sat answer
        # its closure; unsat checks and sat checks over the same closure
        # open nothing
        text = (DECLS + "(push 1)(assert (< x y))(assert (< y x))"
                "(check-sat)(check-sat)(pop 1)(assert (<= (- x y) 3))"
                "(check-sat)(check-sat)(push 1)(assert (< y (- x 5)))"
                "(check-sat)(pop 1)(check-sat)")
        tsv = tmp_path / "out.tsv"
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_module, "open", counting_open, raising=False)
            code, out = cli(["--dump-apsp", str(tsv), *mode, "-"], text=text)
        assert (code, out.split()) == (0, ["unsat", "unsat", "sat", "sat",
                                           "unsat", "sat"])
        assert opened == [str(tsv)] * 2
        assert tsv.read_text() == "0\tinf\tinf\ninf\t0\tinf\ninf\t3\t0\n"

    def test_minimize_trial_leaves_no_dump(self, tmp_path):
        # the trial without a1 answers sat; no check-sat ever did
        text = (DECLS + "(assert (! (< x y) :named a1))"
                "(assert (! (and (< x y) (< y x)) :named a2))"
                "(check-sat)(get-unsat-core)(check-sat)")
        flags = ["--produce-unsat-cores", "--minimize-core"]
        assert self.run_checked(tmp_path, text, flags) == []


# 31 commands: the last atom's negative literal code is one past the end of
# the theory bridge's literal table, which a literal made since the atom
# before had grown to an odd length
LAST_SLOT_TEXT = """\
(declare-fun v0 () Int)(declare-fun v1 () Int)(declare-fun v2 () Int)(declare-fun v3 () Int)
(declare-fun b2 () Bool)(declare-fun b3 () Bool)(declare-fun b4 () Bool)(declare-fun b6 () Bool)
(declare-fun b9 () Bool)(declare-fun b10 () Bool)(declare-fun b11 () Bool)
(assert (<= (- v0 v3) 4))(assert (<= (- v0 v3) 5))(assert (not b6))(assert (not b11))
(assert (<= (- v1 v3) 3))(assert (<= (- v0 v3) 20))(assert (or b9 b11))(assert (<= (- v0 v3) 27))
(assert (not b9))(assert (not b10))(assert (or b4 b2))(assert (not b2))(check-sat)
(assert (<= (- v3 v1) 8))(assert (<= (- v0 v2) 24))(assert (<= (- v1 v3) 27))(assert (not b4))
(assert (<= (- v1 v3) 22))(assert (not b3))(assert (<= (- v1 v3) 18))
"""


class TestLiteralTable:
    @pytest.mark.parametrize("flags", [[], ["--incremental"]],
                             ids=["batch", "incremental"])
    def test_an_atom_on_the_last_slot_is_taken(self, flags, capsys):
        code, out = cli(flags + ["-"], text=LAST_SLOT_TEXT)
        assert (code, out) == (0, "unsat\n")
        assert "Traceback" not in capsys.readouterr().err
        session = Session()
        rs = [session.execute(cmd) for cmd in parse_script(LAST_SLOT_TEXT)]
        assert len(rs) == 31 and not any(r.is_error for r in rs)
        assert len(session.atoms) == 10  # every bound of the script


class TestSubprocess:
    def test_module_main_in_process(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["idlsmt", "-"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(SAT_TEXT))
        with pytest.raises(SystemExit) as e:
            runpy.run_module("idlsmt", run_name="__main__")
        assert e.value.code == 0
        assert capsys.readouterr().out == "sat\n"

    def test_module_invocation(self, tmp_path):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        proc = subprocess.run([sys.executable, "-m", "idlsmt", path],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "sat\n"

    def test_transcript_bytes_stable(self, tmp_path):
        text, _ = emit_benchmark("negative-cycle-chain", 5)
        path = write(tmp_path, "chain.smt2", text)
        runs = [subprocess.run([sys.executable, "-m", "idlsmt", path],
                               capture_output=True, timeout=120)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == 0
