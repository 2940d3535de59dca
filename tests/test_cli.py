import io
import subprocess
import sys

import pytest

from idlsmt.cli import parse_portfolio, run
from idlsmt.testkit import emit_benchmark

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

    def test_parse_error_reported_inline(self):
        text = "(assert (< q 1))\n(set-logic QF_IDL)\n(check-sat)\n"
        code, out = cli(["--incremental", "-"], text=text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith('(error "')
        assert lines[-1] == "sat"


def nested_and(depth):
    return ("(set-logic QF_IDL)\n(declare-fun x () Int)\n"
            "(declare-fun y () Int)\n(assert "
            + "(and (< x y) " * depth + "(< x 5)" + ")" * depth + ")\n"
            "(check-sat)\n")


class TestDeepNesting:
    # 600 levels overflowed the recursive normalizer, 2000 the parser; both
    # must answer an error response rather than exit as an internal fault
    @pytest.mark.parametrize("depth", [600, 2000])
    def test_batch_answers_an_error(self, tmp_path, depth):
        code, out = cli([write(tmp_path, "deep.smt2", nested_and(depth))])
        assert code != 2
        assert out.startswith("(error ") and "too deep" in out

    @pytest.mark.parametrize("depth", [600, 2000])
    def test_incremental_session_survives(self, depth):
        text = nested_and(depth) + "(assert (< y 0))\n(check-sat)\n"
        code, out = cli(["--incremental", "-"], text=text)
        assert code != 2
        lines = out.splitlines()
        assert lines[0].startswith("(error ") and "too deep" in lines[0]
        assert lines[1:] == ["sat", "sat"]


class TestFlags:
    def test_stats_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        code, out = cli(["--stats", path])
        err = capsys.readouterr().err
        assert code == 0 and out == "sat\n"
        assert "decisions=" in err and "fw_cell_updates=" in err
        assert "max_vertices=" in err

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
            assert cl.endswith(" 0")

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

    def test_no_theory_prop_same_answer(self, tmp_path):
        path = write(tmp_path, "s.smt2", UNSAT_TEXT)
        assert cli(["--no-theory-prop", path]) == (1 - 1, "unsat\n")

    def test_unknown_flag_is_usage_error(self):
        code, _ = cli(["--frobnicate", "-"], text="")
        assert code == 1

    def test_tlimit_accepted(self, tmp_path):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        assert cli(["--tlimit", "60000", path]) == (0, "sat\n")

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


class TestPortfolio:
    def test_spec_parsing(self):
        stages = parse_portfolio("no-prop:1000ms,prop:rest")
        assert [s.name for s in stages] == ["no-prop", "prop"]
        assert stages[0].time_ms == 1000 and stages[1].time_ms is None
        stages = parse_portfolio("prop:5c")
        assert stages[0].conflicts == 5
        for bad in ["", "warp:1c", "prop:xyz", "prop:9"]:
            with pytest.raises(Exception):
                parse_portfolio(bad)

    def test_one_stage_equals_plain_run(self, tmp_path):
        path = write(tmp_path, "s.smt2", UNSAT_TEXT)
        assert cli(["--portfolio", "prop:rest", path]) == cli([path])

    def test_fall_through_on_unknown(self, tmp_path, capsys):
        text, _ = emit_benchmark("negative-cycle-chain", 6)
        path = write(tmp_path, "chain.smt2", text)
        code, out = cli(["--produce-unsat-cores", "--stats",
                         "--portfolio", "no-prop:0c,prop:rest", path])
        err = capsys.readouterr().err
        assert code == 0
        assert out.splitlines()[0] == "unsat"
        assert "stages=2" in err

    def test_short_circuit_skips_later_stages(self, tmp_path, capsys):
        path = write(tmp_path, "s.smt2", SAT_TEXT)
        code, out = cli(["--stats", "--portfolio", "prop:rest,no-prop:rest",
                         path])
        err = capsys.readouterr().err
        assert code == 0 and out == "sat\n"
        assert "stages=1" in err

    def test_portfolio_with_incremental_rejected(self):
        code, _ = cli(["--portfolio", "prop:rest", "--incremental", "-"],
                      text="")
        assert code == 1


class TestSubprocess:
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
