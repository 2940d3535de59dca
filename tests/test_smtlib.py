import io
import time

import pytest

from idlsmt.smtlib import (
    CommandReader, DeclEnv, LexError, ParseError, SmtError, SortError,
    UnknownSymbol, UnsupportedCommand, cursor, parse_command, parse_script,
    parse_term, render_symbol, render_term, tokenize,
)
from idlsmt.testkit import emit_benchmark


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestTokenize:
    def test_minimal_command(self):
        assert kinds("(check-sat)") == ["lparen", "symbol", "rparen"]
        assert texts("(check-sat)") == ["(", "check-sat", ")"]

    def test_comment_dropped(self):
        toks = tokenize("(assert (<= (- x y) 3)) ; c")
        assert [t.text for t in toks[:-1]] == [
            "(", "assert", "(", "<=", "(", "-", "x", "y", ")", "3", ")", ")"]
        assert all(t.text != "c" for t in toks)

    def test_keyword_token(self):
        toks = tokenize("(set-info :status unsat)")
        kw = [t for t in toks if t.kind == "keyword"]
        assert len(kw) == 1 and kw[0].text == ":status"

    def test_hand_tokenized_preamble(self):
        # a typical benchmark preamble, transcribed token by token
        text = ('(set-info :smt-lib-version 2.6)\n'
                '(set-logic QF_IDL)\n'
                '(set-info :source |constructed by hand|)\n'
                '(set-info :status unsat)\n'
                '(declare-fun x () Int)\n')
        expected = [
            ("lparen", "("), ("symbol", "set-info"),
            ("keyword", ":smt-lib-version"), ("numeral", "2"),
            # 2.6 would be a decimal, the preamble really carries "2.6" -
            # see the decimal test below; here we use the integer form
        ]
        toks = tokenize('(set-info :smt-lib-version 2)\n')
        got = [(t.kind, t.text) for t in toks[:-1]]
        assert got[:4] == expected[:4]
        with pytest.raises(LexError):
            tokenize(text)  # "2.6" is a decimal literal, rejected
        sane = text.replace(" 2.6", " |2.6|")
        toks = tokenize(sane)
        expected_full = [
            ("lparen", "("), ("symbol", "set-info"),
            ("keyword", ":smt-lib-version"), ("symbol", "2.6"),
            ("rparen", ")"),
            ("lparen", "("), ("symbol", "set-logic"),
            ("symbol", "QF_IDL"), ("rparen", ")"),
            ("lparen", "("), ("symbol", "set-info"),
            ("keyword", ":source"), ("symbol", "constructed by hand"),
            ("rparen", ")"),
            ("lparen", "("), ("symbol", "set-info"),
            ("keyword", ":status"), ("symbol", "unsat"), ("rparen", ")"),
            ("lparen", "("), ("symbol", "declare-fun"), ("symbol", "x"),
            ("lparen", "("), ("rparen", ")"), ("symbol", "Int"),
            ("rparen", ")"),
        ]
        assert [(t.kind, t.text) for t in toks[:-1]] == expected_full

    def test_positions(self):
        toks = tokenize("(a\n  b)")
        a = next(t for t in toks if t.text == "a")
        b = next(t for t in toks if t.text == "b")
        assert (a.line, a.col) == (1, 2)
        assert (b.line, b.col) == (2, 3)

    def test_offset_positions(self):
        toks = tokenize("(b)", start_line=7, start_col=12)
        assert toks[0].line == 7 and toks[0].col == 12

    def test_string_literals(self):
        toks = tokenize('(echo "he said ""hi""")')
        s = next(t for t in toks if t.kind == "string")
        assert s.text == 'he said "hi"'

    def test_unterminated_string(self):
        with pytest.raises(LexError) as e:
            tokenize('(echo "oops')
        assert e.value.line == 1 and e.value.col == 7

    def test_bad_numerals(self):
        with pytest.raises(LexError):
            tokenize("(x 01)")
        with pytest.raises(LexError):
            tokenize("(x 1.5)")
        assert texts("(x 0 10)") == ["(", "x", "0", "10", ")"]

    @pytest.mark.parametrize("text,col,ch", [
        ("(push ²)", 7, "²"), ("(assert (< x ²))", 14, "²"),
        ("(declare-fun café () Int)", 17, "é"), ("(push ٣)", 7, "٣"),
    ])
    def test_symbols_and_numerals_are_ascii(self, text, col, ch):
        with pytest.raises(LexError) as e:
            tokenize(text)
        assert (e.value.line, e.value.col) == (1, col)
        assert e.value.message == f"illegal character {ch!r}"

    def test_quoted_symbols_and_strings_take_any_character(self):
        assert kinds('(|café| "²")') == ["lparen", "symbol", "string", "rparen"]
        assert texts('(|café| "²")')[1:3] == ["café", "²"]

    def test_end_of_text(self):
        toks = tokenize("12")
        assert [(t.kind, t.text, t.col) for t in toks] == [
            ("numeral", "12", 1), ("eof", "", 3)]
        assert kinds("x \t") == ["symbol"]  # one eof after trailing blanks

    def test_odd_quote_run_is_unterminated(self):
        with pytest.raises(LexError) as e:
            tokenize('(set-info :x """)')
        assert (e.value.col, e.value.message) == (
            14, "unterminated string literal")
        assert texts('(set-info :x """")') == ["(", "set-info", ":x", '"', ")"]

    def test_multi_line_quoted_symbol(self):
        toks = tokenize("(declare-fun |a\nb| () Int)")
        assert toks[2] == ("symbol", "a\nb", 1, 14)
        assert (toks[3].line, toks[3].col) == (2, 4)

    def test_roundtrip_with_spaces(self):
        text = "(assert (<= (- x y) 3))"
        joined = " ".join(t.text for t in tokenize(text)[:-1])
        assert kinds(joined) == kinds(text)

    def test_determinism(self):
        text = '(set-info :x "s") (assert (< a b)) ; note'
        assert tokenize(text) == tokenize(text)


def _parse_one(text, env=None):
    env = env if env is not None else DeclEnv()
    return parse_command(cursor(tokenize(text)), env)


def _int_env(*names):
    env = DeclEnv()
    for nm in names:
        env.declare(nm, "Int")
    return env


class TestParseCommand:
    def test_declare_const(self):
        cmd = _parse_one("(declare-const x Int)")
        assert cmd.name == "declare-const" and cmd.args == ("x", "Int")

    def test_named_assert(self):
        env = _int_env("x", "y")
        cmd = parse_command(cursor(tokenize("(assert (! (< x y) :named a1))")), env)
        term, name = cmd.args
        assert name == "a1"
        assert term == ("cmp", "<", ("ivar", "x"), ("ivar", "y"))

    def test_sort_clash(self):
        env = DeclEnv()
        env.declare("x", "Int")
        env.declare("p", "Bool")
        with pytest.raises(SortError):
            parse_command(cursor(tokenize("(assert (<= x p))")), env)
        with pytest.raises(SortError):
            parse_command(cursor(tokenize("(assert (<= p p))")), env)

    def test_bool_equality_rejected(self):
        env = DeclEnv()
        env.declare("p", "Bool")
        env.declare("q", "Bool")
        with pytest.raises(SortError):
            parse_command(cursor(tokenize("(assert (= p q))")), env)

    def test_assert_must_be_bool(self):
        env = _int_env("x")
        with pytest.raises(SortError):
            parse_command(cursor(tokenize("(assert (+ x 1))")), env)

    def test_push_pop_counts(self):
        env = DeclEnv()
        assert _parse_one("(push)", env).args == (1,)
        assert parse_command(cursor(tokenize("(push 2)")), env).args == (2,)
        with pytest.raises(ParseError):
            parse_command(cursor(tokenize("(push 0)")), env)
        parse_command(cursor(tokenize("(pop 3)")), env)
        with pytest.raises(ParseError):
            parse_command(cursor(tokenize("(pop 1)")), env)

    def test_unsupported_commands(self):
        for text in ["(get-proof)", "(define-fun f () Int 1)",
                     "(declare-fun f (Int) Int)"]:
            with pytest.raises(UnsupportedCommand):
                _parse_one(text)

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            _parse_one("(frobnicate)")

    def test_undeclared_symbol(self):
        with pytest.raises(UnknownSymbol):
            _parse_one("(assert (< x 1))")

    def test_duplicate_declaration(self):
        env = _int_env("x")
        with pytest.raises(ParseError):
            parse_command(cursor(tokenize("(declare-const x Int)")), env)

    def test_negative_literal_hint(self):
        env = _int_env("x")
        with pytest.raises(ParseError) as e:
            parse_command(cursor(tokenize("(assert (< x -3))")), env)
        assert "(- 3)" in str(e.value)


class TestTerms:
    def test_let_expansion(self):
        env = _int_env("x", "y")
        direct, _ = parse_term(cursor(tokenize("(<= (- x y) 3)")), env)
        via_let, _ = parse_term(
            cursor(tokenize("(let ((d (- x y))) (<= d 3))")), env)
        assert direct == via_let

    def test_let_shadowing(self):
        env = _int_env("x")
        term, _ = parse_term(
            cursor(tokenize("(let ((x 5)) (<= x 7))")), env)
        assert term == ("cmp", "<=", ("int", 5), ("int", 7))

    def test_nested_let_parallel_scope(self):
        env = _int_env("x")
        # the binding of b sees the outer x, not a
        term, _ = parse_term(
            cursor(tokenize("(let ((a 1) (b (+ x 0))) (<= a b))")), env)
        assert term == ("cmp", "<=", ("int", 1),
                        ("add", ("ivar", "x"), ("int", 0)))

    def test_chained_comparison(self):
        env = _int_env("x", "y", "z")
        term, _ = parse_term(cursor(tokenize("(= x y z)")), env)
        assert term[0] == "and" and len(term[1]) == 2

    def test_implies_right_assoc(self):
        env = DeclEnv()
        for nm in "pqr":
            env.declare(nm, "Bool")
        term, _ = parse_term(cursor(tokenize("(=> p q r)")), env)
        assert term == ("implies", ("bvar", "p"),
                        ("implies", ("bvar", "q"), ("bvar", "r")))

    def test_int_ite_rejected(self):
        env = _int_env("x", "y")
        env.declare("p", "Bool")
        with pytest.raises(SortError):
            parse_term(cursor(tokenize("(ite p x y)")), env)

    def test_multiplication_rejected(self):
        env = _int_env("x")
        with pytest.raises(ParseError):
            parse_term(cursor(tokenize("(* x 2)")), env)

    def test_render_roundtrip(self):
        env = _int_env("x", "y")
        text = "(or (<= (- x y) (- 3)) (not (< x 2)))"
        term, _ = parse_term(cursor(tokenize(text)), env)
        again, _ = parse_term(cursor(tokenize(render_term(term))), env)
        assert term == again

    def test_render_symbol_reads_back(self):
        for name in ["x", "a.b", "+", "1x", "let", "café", "a b", "a\nb",
                     'say "hi"', "a;b", ""]:
            [tok, _] = tokenize(render_symbol(name))
            assert (tok.kind, tok.text) == ("symbol", name)
        assert render_symbol("x") == "x"
        assert render_symbol("let") == "|let|"
        env = _int_env("café", "a b")
        text = "(<= (- |café| |a b|) (- 3))"
        term, _ = parse_term(cursor(tokenize(text)), env)
        assert render_term(term) == text


class TestParseScript:
    def test_empty(self):
        assert parse_script("") == []
        assert parse_script(" ; only a comment\n") == []

    def test_four_commands_in_order(self):
        text = ("(set-logic QF_IDL)(declare-fun x () Int)"
                "(assert (<= x 1))(check-sat)")
        names = [c.name for c in parse_script(text)]
        assert names == ["set-logic", "declare-fun", "assert", "check-sat"]

    def test_first_error_aborts_with_position(self):
        text = "(set-logic QF_IDL)\n(assert (< x 1))"
        with pytest.raises(UnknownSymbol) as e:
            parse_script(text)
        assert e.value.line == 2

    def test_position_soundness(self):
        bad = ["(assert", "(push 0)", "(assert (< x))", '(echo "x',
               "(declare-const x Real)"]
        for text in bad:
            with pytest.raises(SmtError) as e:
                parse_script(text)
            lines = text.count("\n") + 1
            assert 1 <= e.value.line <= lines
            assert e.value.col >= 1

    def test_determinism(self):
        text = emit_benchmark("negative-cycle-chain", 5)[0]
        assert parse_script(text) == parse_script(text)

    def test_benchmark_corpus_parses(self):
        # generated stand-ins for the public QF_IDL corpus
        for family, n in [("negative-cycle-chain", 4), ("diamond-grid", 7),
                          ("window-scheduling", 5)]:
            text, _ = emit_benchmark(family, n, seed=1)
            cmds = parse_script(text)
            assert cmds[0].name == "set-logic"
            assert cmds[-1].name in ("check-sat", "get-unsat-core")


class TestStreaming:
    def test_agreement_with_batch(self):
        text = ('(set-logic QF_IDL) (declare-fun x () Int)\n'
                '(assert (! (<= x 3)\n  :named a1))\n'
                '(check-sat) (get-model)\n; end\n(exit)\n')
        batch = parse_script(text)
        reader = CommandReader(io.StringIO(text))
        env = DeclEnv()
        streamed = []
        while True:
            item = reader.next_command()
            if item is None:
                break
            chunk, line, col = item
            cmd = parse_command(cursor(tokenize(chunk, line, col)), env)
            if cmd is not None:
                streamed.append(cmd)
        assert streamed == batch

    def test_returns_before_end_of_input(self):
        class OneShot:
            def __init__(self):
                self.lines = iter(["(check-sat)\n"])

            def readline(self):
                try:
                    return next(self.lines)
                except StopIteration:
                    raise AssertionError("reader should not drain the stream")

        reader = CommandReader(OneShot())
        chunk, line, col = reader.next_command()
        assert chunk == "(check-sat)" and (line, col) == (1, 1)

    def test_multiple_commands_per_line(self):
        reader = CommandReader(io.StringIO("(push 1)(pop 1)\n"))
        assert reader.next_command()[0] == "(push 1)"
        assert reader.next_command()[0] == "(pop 1)"
        assert reader.next_command() is None

    def test_string_hides_parens(self):
        reader = CommandReader(io.StringIO('(set-info :x "a ) b")\n'))
        assert reader.next_command()[0] == '(set-info :x "a ) b")'

    def test_command_over_5000_lines(self):
        # each open string, quoted symbol and comment crosses a line break,
        # so the scan state must carry over from one line to the next
        pieces = ["(set-info :notes ("]
        for k in range(1250):
            pieces += [f'"s{k} ( (( ""q""\n', f' ) still a string"\n',
                       f"|q{k} (\n", f" ) |  ; c{k} ( ((\n"]
        cmd = "".join(pieces) + "))"
        prefix = "; lead ( (\n\t(push 1)\n  "
        text = prefix + cmd + " (check-sat)\n"
        assert text.count("\n") > 5000
        reader = CommandReader(io.StringIO(text))
        start = time.perf_counter()
        assert reader.next_command() == ("(push 1)", 2, 2)
        chunk, line, col = reader.next_command()
        # re-scanning the buffer after each line read takes tens of seconds
        assert time.perf_counter() - start < 5
        assert (chunk, line, col) == (cmd, 3, 3)
        got = parse_command(cursor(tokenize(chunk, line, col)), DeclEnv())
        assert got.name == "set-info" and len(got.args[1]) == 2500
        end_line = 3 + cmd.count("\n")
        end_col = len(cmd) - cmd.rindex("\n") + 1  # past the "))" and a space
        assert reader.next_command() == ("(check-sat)", end_line, end_col)
        assert reader.next_command() is None

    def test_string_over_5000_lines_of_escaped_quotes(self):
        # a line holding only "" pairs cannot end the string, so it is not
        # a reason to scan the string again from its start
        text = '(set-info :x "' + 'a ""q"" (\n' * 5000 + '")(check-sat)'
        reader = CommandReader(io.StringIO(text))
        start = time.perf_counter()
        assert reader.next_command()[0] == text[:-len("(check-sat)")]
        assert time.perf_counter() - start < 1
        assert reader.next_command() == ("(check-sat)", 5001, 3)

    def test_multi_line_quoted_symbol(self):
        reader = CommandReader(io.StringIO("(declare-fun |a\nb| () Int) (check-sat)\n"))
        assert reader.next_command() == ("(declare-fun |a\nb| () Int)", 1, 1)
        assert reader.next_command() == ("(check-sat)", 2, 12)
        assert reader.next_command() is None

    def test_stray_tokens_one_at_a_time(self):
        reader = CommandReader(io.StringIO(")) x (push ²)(pop 1)"))
        got = []
        while (item := reader.next_command()) is not None:
            got.append(item)
        assert got == [(")", 1, 1), (")", 1, 2), ("x", 1, 4),
                       ("(push ²)", 1, 6), ("(pop 1)", 1, 14)]

    def test_truncated_input_surfaces(self):
        reader = CommandReader(io.StringIO("(assert (< x"))
        chunk, _, _ = reader.next_command()
        with pytest.raises(SmtError):
            parse_command(cursor(tokenize(chunk)), DeclEnv())
