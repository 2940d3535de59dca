import io
import random
import time

import pytest

from idlsmt.smtlib import (
    Command, CommandReader, DeclEnv, LexError, ParseError, SmtError, SortError,
    UnknownSymbol, UnsupportedCommand, cursor, parse_command, parse_script,
    parse_term, render_symbol, render_term, tokenize,
)
from idlsmt import smtlib
from idlsmt.engine import Session
from idlsmt.sat import InternalError
from idlsmt.testkit import emit_benchmark, eval_term

# an Int x and a Bool p, on the first two lines
_DECLS = "(declare-fun x () Int)\n(declare-fun p () Bool)\n"


def kinds(text):
    return tokenize(text).kinds[:-1]


def texts(text):
    return tokenize(text).texts[:-1]


def pairs(text):
    toks = tokenize(text)
    return list(zip(toks.kinds, toks.texts))[:-1]


class TestTokenize:
    def test_minimal_command(self):
        assert kinds("(check-sat)") == ["lparen", "symbol", "rparen"]
        assert texts("(check-sat)") == ["(", "check-sat", ")"]

    def test_comment_dropped(self):
        toks = tokenize("(assert (<= (- x y) 3)) ; c")
        assert toks.texts[:-1] == [
            "(", "assert", "(", "<=", "(", "-", "x", "y", ")", "3", ")", ")"]
        assert "c" not in toks.texts

    def test_keyword_token(self):
        toks = tokenize("(set-info :status unsat)")
        kw = [t for k, t in zip(toks.kinds, toks.texts) if k == "keyword"]
        assert kw == [":status"]

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
        got = pairs('(set-info :smt-lib-version 2)\n')
        assert got[:4] == expected[:4]
        with pytest.raises(LexError):
            tokenize(text)  # "2.6" is a decimal literal, rejected
        sane = text.replace(" 2.6", " |2.6|")
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
        assert pairs(sane) == expected_full

    def test_positions(self):
        toks = tokenize("(a\n  b)")
        assert toks.position(toks.texts.index("a")) == (1, 2)
        assert toks.position(toks.texts.index("b")) == (2, 3)
        # plain text is lexed by splitting, which records no offsets: the
        # first position asked for fills them, so only now can they be read
        assert toks.starts == [0, 1, 5, 6, 7]

    def test_offset_positions(self):
        toks = tokenize("(b)", start_line=7, start_col=12)
        assert toks.position(0) == (7, 12) and toks.position(3) == (7, 15)

    def test_string_literals(self):
        toks = tokenize('(echo "he said ""hi""")')
        assert toks.texts[toks.kinds.index("string")] == 'he said "hi"'

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
        assert [(k, t, toks.position(i)) for i, (k, t)
                in enumerate(zip(toks.kinds, toks.texts))] == [
            ("numeral", "12", (1, 1)), ("eof", "", (1, 3))]
        assert kinds("x \t") == ["symbol"]  # one eof after trailing blanks

    def test_odd_quote_run_is_unterminated(self):
        with pytest.raises(LexError) as e:
            tokenize('(set-info :x """)')
        assert (e.value.col, e.value.message) == (
            14, "unterminated string literal")
        assert texts('(set-info :x """")') == ["(", "set-info", ":x", '"', ")"]

    def test_multi_line_quoted_symbol(self):
        toks = tokenize("(declare-fun |a\nb| () Int)")
        assert (toks.kinds[2], toks.texts[2]) == ("symbol", "a\nb")
        assert toks.position(2) == (1, 14) and toks.position(3) == (2, 4)

    def test_roundtrip_with_spaces(self):
        text = "(assert (<= (- x y) 3))"
        joined = " ".join(texts(text))
        assert kinds(joined) == kinds(text)

    def test_determinism(self):
        for text in ['(set-info :x "s") (assert (< a b)) ; note',
                     "(set-info :x s)\n(assert (< a b))"]:
            a, b = tokenize(text), tokenize(text)
            assert (a.kinds, a.texts) == (b.kinds, b.texts)
            assert [a.position(i) for i in range(len(a.kinds))] == [
                b.position(i) for i in range(len(b.kinds))]


def reference_tokenize(text, start_line=1, start_col=1):
    """The lexer as it was before tokens became flat lists: one
    ``(kind, text, line, col)`` per token, the position tracked line by line
    as the text is matched. Kept to check the flat lexer against."""
    g = smtlib
    kinds = {g._LPAREN: "lparen", g._RPAREN: "rparen", g._KEYWORD: "keyword"}
    toks = []
    line, base = start_line, -start_col  # column of offset i is i - base
    for m in g._TOKEN.finditer(text):
        k = m.lastindex
        word, col = m.group(k), m.start(k) - base
        if k in kinds:
            toks.append((kinds[k], word, line, col))
        elif k == g._SYMBOL:
            kind = "reserved" if word in g._RESERVED else "symbol"
            toks.append((kind, word, line, col))
        elif k == g._NUMERAL:
            nxt = m.group(g._NUMERAL_NEXT)
            if nxt == ".":
                raise LexError("decimal literals are not supported", line, col)
            if nxt:
                raise LexError(f"malformed numeral '{word}{nxt}'", line, col)
            if len(word) > 1 and word[0] == "0":
                raise LexError(f"numeral with a leading zero: '{word}'",
                               line, col)
            toks.append(("numeral", word, line, col))
        elif k == g._NEWLINE:
            line += 1
            base = m.start(k)
        elif k == g._STRING or k == g._QUOTED:
            if k == g._STRING:
                toks.append(("string", word.replace('""', '"'), line, col - 1))
            else:
                toks.append(("symbol", word, line, col - 1))
            if "\n" in word:
                line += word.count("\n")
                base = m.start(k) + word.rindex("\n")
        elif k == g._OTHER:
            raise LexError(g._UNCLOSED.get(word, f"illegal character {word!r}"),
                           line, col)
        elif k == g._END:
            toks.append(("eof", "", line, col))
            return toks


# pieces of random SMT-LIB text, one character class each; the rarer ones
# are what a lexer gets wrong: quotes, bars, comments, "" runs, numerals
# running into letters or a dot, and non-ASCII characters
_COMMON = ["(", ")", " ", "  ", "\n", "x", "ab", "<=", "-", "+", "let", "!",
           ":named", "12", "0", "|q r|", '"s t"', "\t"]
_RARE = ['"', '""', '"""', "|", "||", ";", "; c (\n", "1.5", "12a", "01",
         "3.", "9_", ":", ": ", "\r", "\f", "é", "²", "٣", "|é\n|",
         '"a\n""b"', "é\n", "\n\n", "|a\nb\n|", "x.y", "-3", "~@$%^&*",
         # str.split() splits at these, the grammar does not
         "\x1c", "\x85", "\xa0", "\u2028",
         # plain characters that do not make one token
         "007", "a:b", ":a:b"]
# the common pieces that plain text is made of
_PLAIN_COMMON = [p for p in _COMMON if p[0] not in '|"']


def random_text(rng, common=_COMMON):
    out = []
    for _ in range(rng.randint(0, 30)):
        pool = _RARE if rng.random() < 0.1 else common
        out.append(rng.choice(pool))
    return "".join(out)


def flat_tokens(text, line=1, col=1):
    toks = tokenize(text, line, col)
    return [(k, t, *toks.position(i))
            for i, (k, t) in enumerate(zip(toks.kinds, toks.texts))]


def lexed(lex, text, line, col):
    try:
        return lex(text, line, col)
    except LexError as e:
        return (type(e), e.message, e.line, e.col)


class TestLexerDifferential:
    def test_flat_lexer_matches_the_reference(self):
        rng = random.Random(9)
        errors = 0
        for _ in range(3000):
            text = random_text(rng)
            line, col = rng.choice([(1, 1), (1, 1), (7, 12), (40, 1)])
            want = lexed(reference_tokenize, text, line, col)
            assert lexed(flat_tokens, text, line, col) == want, repr(text)
            errors += isinstance(want, tuple)
        # both outcomes are well represented
        assert 600 < errors < 2400

    def test_split_path_matches_the_reference(self):
        # texts mostly of plain pieces, so that many take the split path;
        # a rare piece makes the character check or a word refuse the text
        rng = random.Random(11)
        admitted = refused_char = refused_word = 0
        for _ in range(3000):
            text = random_text(rng, _PLAIN_COMMON)
            line, col = rng.choice([(1, 1), (7, 12)])
            try:
                split = tokenize(text, line, col).starts is None
            except LexError:
                split = False
            if split:
                admitted += 1
            elif smtlib._PLAIN.fullmatch(text):
                refused_word += 1
            else:
                refused_char += 1
            want = lexed(reference_tokenize, text, line, col)
            assert lexed(flat_tokens, text, line, col) == want, repr(text)
        assert admitted > 500 and refused_char > 500 and refused_word > 500

    @pytest.mark.parametrize("text", [
        "(x 007)", "(x 12ab)", "(x 1.5)", "(x : y)", "(a:b)", "(:a:b)",
        "(x\x1cy)", "(x\x85y)", "(x\xa0y)", "(x\u2028y)", "(x ; c\n)",
    ])
    def test_pitfalls_take_the_regex_path(self, text):
        try:
            assert tokenize(text).starts is not None
        except LexError:
            pass
        assert lexed(flat_tokens, text, 1, 1) == lexed(
            reference_tokenize, text, 1, 1)

    def test_benchmark_corpus_matches_the_reference(self):
        for family, n in [("negative-cycle-chain", 6), ("diamond-grid", 5),
                          ("window-scheduling", 5)]:
            text, _ = emit_benchmark(family, n, seed=3)
            assert flat_tokens(text) == reference_tokenize(text)


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
        with pytest.raises(ParseError) as e:
            parse_command(cursor(tokenize("(declare-const x Int)")), env)
        assert str(e.value) == "1:16: symbol 'x' is already declared"
        # raised outside the parser, the error has no position to show
        with pytest.raises(ParseError) as e:
            env.declare("x", "Bool")
        assert str(e.value) == "symbol 'x' is already declared"

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
        for text in ["(or (<= (- x y) (- 3)) (not (< x 2)))",
                     "(and true (not false))"]:
            term, _ = parse_term(cursor(tokenize(text)), env)
            again, _ = parse_term(cursor(tokenize(render_term(term))), env)
            assert term == again

    def test_render_refuses_an_unknown_tag(self):
        with pytest.raises(InternalError, match="unknown term tag 'mul'"):
            render_term(("mul", ("int", 2), ("ivar", "x")))

    def test_render_symbol_reads_back(self):
        for name in ["x", "a.b", "+", "1x", "let", "café", "a b", "a\nb",
                     'say "hi"', "a;b", ""]:
            assert pairs(render_symbol(name)) == [("symbol", name)]
        assert render_symbol("x") == "x"
        assert render_symbol("let") == "|let|"
        env = _int_env("café", "a b")
        text = "(<= (- |café| |a b|) (- 3))"
        term, _ = parse_term(cursor(tokenize(text)), env)
        assert render_term(term) == text


class TestDepth:
    """Every pass keeps an explicit stack, so depth is bounded by memory."""

    def test_let_scope_ends_with_its_body(self):
        env = _int_env("x", "y")
        env.declare("p", "Bool")
        term, _ = parse_term(cursor(tokenize(
            "(let ((p (< x y))) (and (let ((p (< y x))) p) p))")), env)
        assert term == ("and", (("cmp", "<", ("ivar", "y"), ("ivar", "x")),
                                ("cmp", "<", ("ivar", "x"), ("ivar", "y"))))
        term, _ = parse_term(cursor(tokenize(
            "(and (let ((p (< x y))) p) p)")), env)
        assert term[1][1] == ("bvar", "p")

    def test_let_binding_errors_keep_their_positions(self):
        env = _int_env("x")
        for text, msg, col in [
                ("(let ((a 1) (a 2)) (< a x))", "duplicate let binding 'a'", 14),
                ("(let (a 1) (< a x))", "expected ')' closing the binding "
                 "list, found 'a'", 7),
                ("(let ((a 1 2)) (< a x))", "expected ')', found '2'", 12),
                ("(let ((a 1)) (< a x) x)", "expected ')', found 'x'", 22)]:
            with pytest.raises(ParseError) as e:
                parse_term(cursor(tokenize(text)), env)
            assert (e.value.message, e.value.line, e.value.col) == (msg, 1, col)

    def test_nested_ands(self):
        env = _int_env("x", "y")
        n = 30000
        text = "(and (< x y) " * n + "(< x 5)" + ")" * n
        term, sort = parse_term(cursor(tokenize(text)), env)
        depth = 0
        while term[0] == "and":
            term, depth = term[1][1], depth + 1
        assert (sort, depth, term) == ("Bool", n, ("cmp", "<", ("ivar", "x"),
                                                   ("int", 5)))

    def test_model_of_nested_ands_holds(self):
        n = 30000
        text = ("(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)"
                "(assert " + "(and (< x y) " * n + "(< x 5)" + ")" * n + ")"
                "(check-sat)(get-model)")
        session = Session()
        cmds = parse_script(text)
        assert [session.execute(cmd).text for cmd in cmds][-2] == "sat"
        ints, bools = session.model_env()
        assert eval_term(cmds[3].args[0], ints, bools) is True
        assert eval_term(cmds[3].args[0], {"x": 5, "y": 6}, bools) is False

    def test_let_chain_parses_in_linear_time(self):
        # a copied binding map per level took 3.6 s at 8,000 levels
        env = _int_env("x", "y")
        n = 20000
        text = ("(let ((t0 x)) " + "".join(
            f"(let ((t{i} (+ t{i - 1} 1))) " for i in range(1, n + 1))
            + f"(< t{n} y)" + ")" * (n + 1))
        start = time.perf_counter()
        term, _ = parse_term(cursor(tokenize(text)), env)
        assert time.perf_counter() - start < 5
        assert term[0] == "cmp" and term[3] == ("ivar", "y")

    def test_deep_attribute_value(self):
        n = 100000
        cmd = _parse_one("(set-info :x " + "(" * n + "1" + ")" * n + ")")
        value, depth = cmd.args[1], 0
        while isinstance(value, tuple):
            value, depth = value[0], depth + 1
        assert (value, depth) == (1, n)

    def test_annotations_inside_terms_are_skipped(self):
        env = _int_env("x", "y")
        term, _ = parse_term(cursor(tokenize(
            "(! (and (! (< x y) :a (1 (2)) :b) (< y 3)) :named n)")), env)
        assert term == ("and", (("cmp", "<", ("ivar", "x"), ("ivar", "y")),
                                ("cmp", "<", ("ivar", "y"), ("int", 3))))

    def test_render_is_iterative_and_can_stop(self):
        term = ("bvar", "p")
        for _ in range(100000):
            term = ("not", term)
        text = render_term(term)
        assert text == "(not " * 100000 + "p" + ")" * 100000
        assert render_term(term, 12) == "(not (not (n..."
        assert render_term(("bvar", "p"), 12) == "p"


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

    @pytest.mark.parametrize("text,error,where,message", [
        ("(set-logic QF_IDL)\n(declare-fun x () Int)\n(assert (< x y))",
         UnknownSymbol, (3, 14), "undeclared symbol 'y'"),
        ("(declare-fun x () Int)\n(declare-fun p () Bool)\n"
         "(assert (<= x p))", SortError, (3, 10),
         "'<=' expects integer operands"),
        ("(declare-fun x () Int)\n  (declare-const x Bool)",
         ParseError, (2, 18), "symbol 'x' is already declared"),
        ("(push 1)\n(check-sat)\n(pop 2)", ParseError, (3, 2),
         "pop below the bottom of the assertion stack"),
        ("(declare-fun x () Int)\n(assert\n  (< x 1)\n", ParseError,
         (4, 1), "expected ')', found 'eof'"),
    ] + [(_DECLS + body, error, where, message)
         for body, error, where, message in [
        ("(assert (ite p p))", ParseError, (3, 10),
         "'ite' takes exactly three operands"),
        ("(assert (ite x p p))", SortError, (3, 10),
         "'ite' condition must be Boolean"),
        ("(assert (not p p))", ParseError, (3, 10),
         "'not' takes exactly one operand"),
        ("(assert (<= x))", ParseError, (3, 10),
         "'<=' needs at least 2 operand(s)"),
        ("(assert (f x))", UnknownSymbol, (3, 10), "unknown operator 'f'"),
        ("(assert (x 1))", ParseError, (3, 10), "'x' is not a function"),
        ("(assert (1 x))", ParseError, (3, 10), "expected an operator"),
        ("(assert (forall ((y Int)) p))", ParseError, (3, 10),
         "'forall' terms are not supported"),
        ("(assert (and p p", ParseError, (3, 10),
         "unterminated 'and' application"),
        ("x (check-sat)", ParseError, (3, 1),
         "expected '(' to start a command, found 'x'"),
        ("(42)", ParseError, (3, 2), "expected a command name"),
        ("(set-info :notes (a b", ParseError, (3, 18),
         "unterminated attribute value"),
        # the value is missing: the end of the text is no value
        ("(set-info :notes", ParseError, (3, 17),
         "malformed attribute value"),
    ]])
    def test_errors_in_plain_text_keep_their_positions(self, text, error,
                                                       where, message):
        # plain text is lexed by splitting; an error places itself by the
        # offsets of a regex scan of the same text
        assert tokenize(text).starts is None
        with pytest.raises(error) as e:
            parse_script(text)
        assert (e.value.line, e.value.col) == where
        assert e.value.message == message
        cur, env = cursor(smtlib._scan(smtlib.Tokens(text, 1, 1))), DeclEnv()
        with pytest.raises(error) as scanned:
            while parse_command(cur, env) is not None:
                pass
        assert str(scanned.value) == str(e.value)

    def test_an_assertion_name_after_another_attribute(self):
        # the other attribute's value, a list here, is parsed and dropped
        cmds = parse_script(_DECLS + "(assert (! p :foo (bar 1) :named n))"
                            "(assert (! p :named m :foo bar))")
        assert cmds[2:] == [Command("assert", (("bvar", "p"), "n")),
                            Command("assert", (("bvar", "p"), "m"))]

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
