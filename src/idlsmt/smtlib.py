"""SMT-LIB v2 front end for the difference logic solver.

Covers the command subset a QF_IDL script needs: set-logic, set-option,
set-info, declare-fun (constants only), declare-const, assert (with
``(! term :named id)`` annotations), push, pop, check-sat, get-model,
get-unsat-core, and exit. Terms are parsed into tagged tuples and
sort-checked against the declaration table; ``let`` bindings are resolved
while parsing, and every use of a bound name is the one parsed term object,
so a term with shared bindings is a DAG.

Two reading styles: :func:`parse_script` consumes a whole input eagerly,
while :class:`CommandReader` hands out one balanced command at a time as
soon as it has been read, which is what a solver driven over a pipe needs.
One token grammar serves both: the reader counts parentheses with the pattern
that :func:`tokenize` lexes with. Symbols and numerals are ASCII; other
characters may appear only in strings and quoted symbols.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class SmtError(Exception):
    """Front-end error carrying a source position."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        if self.line is None:
            return self.message
        return f"{self.line}:{self.col}: {self.message}"


class LexError(SmtError):
    pass


class ParseError(SmtError):
    pass


class SortError(SmtError):
    pass


class UnknownSymbol(SmtError):
    pass


class UnsupportedCommand(SmtError):
    """A recognized SMT-LIB command outside the supported subset."""

    def __init__(self, name, line=None, col=None):
        super().__init__(f"unsupported command: {name}", line, col)
        self.command = name


class Token(NamedTuple):
    kind: str  # lparen rparen symbol keyword numeral string reserved eof
    text: str
    line: int
    col: int


_RESERVED = frozenset(
    ["!", "_", "as", "let", "exists", "forall", "match", "par",
     "BINARY", "DECIMAL", "HEXADECIMAL", "NUMERAL", "STRING"]
)

_UNSUPPORTED_COMMANDS = frozenset(
    ["define-fun", "define-fun-rec", "define-funs-rec", "define-sort",
     "define-const", "declare-sort", "declare-datatype", "declare-datatypes",
     "get-value", "get-assignment", "get-assertions", "get-proof",
     "get-unsat-assumptions", "get-info", "get-option", "echo", "reset",
     "reset-assertions", "check-sat-assuming", "simplify"]
)

# The one token grammar (SMT-LIB v2.6, section 3.1, ASCII symbols and
# numerals). Blanks other than newlines ride in front of every match, and
# each alternative is told apart by its last capturing group.
_SYMBOL_PUNCT = r"~!@$%^&*_\-+=<>.?/"
_SYMBOL_CHAR = "[A-Za-z0-9" + _SYMBOL_PUNCT + "]"
_SIMPLE_SYMBOL = re.compile(
    "[A-Za-z" + _SYMBOL_PUNCT + "]" + _SYMBOL_CHAR + "*")
_TOKEN = re.compile("[ \t\r\f\v]*(?:" + "|".join([
    r"(\()",
    r"(\))",
    "(" + _SIMPLE_SYMBOL.pattern + ")",
    # the character after a numeral, captured when it would continue a symbol
    "([0-9]+(?=([A-Za-z" + _SYMBOL_PUNCT + "]?)))",
    r"(\n)",
    r"(;[^\n]*)",
    # "" is an escaped quote, between [^"]* runs (faster than (?:[^"]|"")*);
    # (?!") keeps a run like """ from reading as a string closed and reopened
    r'"([^"]*(?:""[^"]*)*)"(?!")',
    r"\|([^|]*)\|",
    "(:" + _SYMBOL_CHAR + "+)",
    r"(.)",
    r"(\Z)",
]) + ")", re.S)
(_LPAREN, _RPAREN, _SYMBOL, _NUMERAL, _NUMERAL_NEXT, _NEWLINE, _COMMENT,
 _STRING, _QUOTED, _KEYWORD, _OTHER, _END) = range(1, 13)
_KINDS = {_LPAREN: "lparen", _RPAREN: "rparen", _KEYWORD: "keyword"}
# a lone opener matched by the catch-all: nothing closes it before the end
_UNCLOSED = {'"': "unterminated string literal",
             "|": "unterminated quoted symbol",
             ":": "expected a keyword name after ':'"}


def tokenize(text, start_line=1, start_col=1):
    """Lex ``text`` into a token list ending with an ``eof`` marker.

    ``start_line``/``start_col`` position the first character, so chunks cut
    out of a larger stream keep their original coordinates.
    """
    toks = []
    line, base = start_line, -start_col  # column of offset i is i - base
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        word, col = m.group(k), m.start(k) - base
        if k in _KINDS:
            toks.append(Token(_KINDS[k], word, line, col))
        elif k == _SYMBOL:
            kind = "reserved" if word in _RESERVED else "symbol"
            toks.append(Token(kind, word, line, col))
        elif k == _NUMERAL:
            nxt = m.group(_NUMERAL_NEXT)
            if nxt == ".":
                raise LexError("decimal literals are not supported", line, col)
            if nxt:
                raise LexError(f"malformed numeral '{word}{nxt}'", line, col)
            if len(word) > 1 and word[0] == "0":
                raise LexError(f"numeral with a leading zero: '{word}'",
                               line, col)
            toks.append(Token("numeral", word, line, col))
        elif k == _NEWLINE:
            line += 1
            base = m.start(k)
        elif k == _STRING or k == _QUOTED:
            # the group holds the body; the token starts at the delimiter
            if k == _STRING:
                toks.append(Token("string", word.replace('""', '"'), line,
                                  col - 1))
            else:
                toks.append(Token("symbol", word, line, col - 1))
            if "\n" in word:
                line += word.count("\n")
                base = m.start(k) + word.rindex("\n")
        elif k == _OTHER:
            raise LexError(_UNCLOSED.get(word, f"illegal character {word!r}"),
                           line, col)
        elif k == _END:
            # finditer may add an empty match after trailing blanks
            toks.append(Token("eof", "", line, col))
            return toks


class Command(NamedTuple):
    name: str
    args: tuple
    line: int = 0
    col: int = 0


class _Cursor:
    def __init__(self, tokens):
        self._toks = tokens
        self._i = 0

    def peek(self, ahead=0):
        k = min(self._i + ahead, len(self._toks) - 1)
        return self._toks[k]

    def next(self):
        t = self._toks[self._i]
        if t.kind != "eof":
            self._i += 1
        return t


class DeclEnv:
    """Scoped symbol-to-sort table; scopes mirror push/pop.

    A scope stands for a run of push levels, and its declarations belong to
    the run's top level, so ``push n`` costs one scope whatever ``n`` is.
    """

    def __init__(self):
        self._scopes = [(0, {})]  # (depth of the run's top level, declarations)

    def declare(self, name, sort, tok=None):
        if self.sort_of(name) is not None:
            raise ParseError(f"symbol '{name}' is already declared",
                             getattr(tok, "line", None), getattr(tok, "col", None))
        self._scopes[-1][1][name] = sort

    def sort_of(self, name):
        for _, scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def push(self, n=1):
        self._scopes.append((self.depth() + n, {}))

    def pop(self, n=1):
        depth = self.depth() - n
        while self._scopes[-1][0] > depth:
            self._scopes.pop()
        if self._scopes[-1][0] < depth:
            # what is left of a partly popped run holds no declarations
            self._scopes.append((depth, {}))

    def depth(self):
        return self._scopes[-1][0]


def _expect(cur, kind, what=None):
    t = cur.next()
    if t.kind != kind:
        raise ParseError(f"expected {what or kind}, found '{t.text or t.kind}'",
                         t.line, t.col)
    return t


def _parse_attr_value(cur):
    t = cur.next()
    if t.kind in ("symbol", "keyword", "string", "reserved"):
        return t.text
    if t.kind == "numeral":
        return int(t.text)
    if t.kind == "lparen":
        vals = []
        while cur.peek().kind != "rparen":
            if cur.peek().kind == "eof":
                raise ParseError("unterminated attribute value", t.line, t.col)
            vals.append(_parse_attr_value(cur))
        cur.next()
        return tuple(vals)
    raise ParseError("malformed attribute value", t.line, t.col)


def _parse_sort(cur):
    t = cur.next()
    if t.kind == "symbol" and t.text in ("Int", "Bool"):
        return t.text
    raise SortError(f"unsupported sort '{t.text or t.kind}'", t.line, t.col)


def parse_term(cur, env, lets=None):
    """Parse one term; returns ``(term, sort)`` with sorts checked."""
    lets = lets or {}
    t = cur.next()
    if t.kind == "numeral":
        return ("int", int(t.text)), "Int"
    if t.kind == "symbol":
        nm = t.text
        if nm == "true":
            return ("bool", True), "Bool"
        if nm == "false":
            return ("bool", False), "Bool"
        if nm in lets:
            return lets[nm]
        sort = env.sort_of(nm)
        if sort is None:
            if len(nm) > 1 and nm[0] == "-" and nm[1:].isdigit():
                raise ParseError(
                    f"negative integers are written (- {nm[1:]}), not {nm}",
                    t.line, t.col)
            raise UnknownSymbol(f"undeclared symbol '{nm}'", t.line, t.col)
        return (("ivar", nm) if sort == "Int" else ("bvar", nm)), sort
    if t.kind != "lparen":
        raise ParseError(f"unexpected token '{t.text or t.kind}' in term",
                         t.line, t.col)
    op = cur.next()
    if op.kind == "reserved":
        if op.text == "let":
            return _parse_let(cur, env, lets)
        if op.text == "!":
            inner = parse_term(cur, env, lets)
            _skip_attributes(cur)
            _expect(cur, "rparen", "')'")
            return inner
        raise ParseError(f"'{op.text}' terms are not supported", op.line, op.col)
    if op.kind != "symbol":
        raise ParseError("expected an operator", op.line, op.col)
    o = op.text
    args = []
    while cur.peek().kind != "rparen":
        if cur.peek().kind == "eof":
            raise ParseError(f"unterminated '{o}' application", op.line, op.col)
        args.append(parse_term(cur, env, lets))
    cur.next()

    def need_ints():
        for _, s in args:
            if s != "Int":
                raise SortError(f"'{o}' expects integer operands", op.line, op.col)

    def need_bools():
        for _, s in args:
            if s != "Bool":
                raise SortError(f"'{o}' expects Boolean operands", op.line, op.col)

    def arity_at_least(k):
        if len(args) < k:
            raise ParseError(f"'{o}' needs at least {k} operand(s)", op.line, op.col)

    if o == "-":
        arity_at_least(1)
        need_ints()
        if len(args) == 1:
            return ("neg", args[0][0]), "Int"
        acc = args[0][0]
        for tm, _ in args[1:]:
            acc = ("sub", acc, tm)
        return acc, "Int"
    if o == "+":
        arity_at_least(1)
        need_ints()
        acc = args[0][0]
        for tm, _ in args[1:]:
            acc = ("add", acc, tm)
        return acc, "Int"
    if o in ("<", "<=", ">", ">=", "="):
        arity_at_least(2)
        if o == "=" and any(s == "Bool" for _, s in args):
            raise SortError("'=' over Bool is not supported; only integer "
                            "difference comparisons", op.line, op.col)
        need_ints()
        links = [("cmp", o, args[i][0], args[i + 1][0]) for i in range(len(args) - 1)]
        return (links[0] if len(links) == 1 else ("and", tuple(links))), "Bool"
    if o == "distinct":
        arity_at_least(2)
        need_ints()
        return ("distinct", tuple(tm for tm, _ in args)), "Bool"
    if o == "not":
        if len(args) != 1:
            raise ParseError("'not' takes exactly one operand", op.line, op.col)
        need_bools()
        return ("not", args[0][0]), "Bool"
    if o in ("and", "or"):
        arity_at_least(1)
        need_bools()
        return (o, tuple(tm for tm, _ in args)), "Bool"
    if o == "xor":
        arity_at_least(2)
        need_bools()
        acc = args[0][0]
        for tm, _ in args[1:]:
            acc = ("xor", acc, tm)
        return acc, "Bool"
    if o == "=>":
        arity_at_least(2)
        need_bools()
        acc = args[-1][0]
        for tm, _ in reversed(args[:-1]):
            acc = ("implies", tm, acc)
        return acc, "Bool"
    if o == "ite":
        if len(args) != 3:
            raise ParseError("'ite' takes exactly three operands", op.line, op.col)
        if args[0][1] != "Bool":
            raise SortError("'ite' condition must be Boolean", op.line, op.col)
        if args[1][1] == "Int" or args[2][1] == "Int":
            raise SortError("integer-valued 'ite' is not supported", op.line, op.col)
        return ("ite", args[0][0], args[1][0], args[2][0]), "Bool"
    if o in ("*", "div", "mod", "abs"):
        raise ParseError(f"arithmetic operator '{o}' is outside difference logic",
                         op.line, op.col)
    if env.sort_of(o) is not None:
        raise ParseError(f"'{o}' is not a function", op.line, op.col)
    raise UnknownSymbol(f"unknown operator '{o}'", op.line, op.col)


def _parse_let(cur, env, lets):
    _expect(cur, "lparen", "'(' opening the binding list")
    binds = {}
    while cur.peek().kind == "lparen":
        cur.next()
        s = _expect(cur, "symbol", "a bound name")
        if s.text in binds:
            raise ParseError(f"duplicate let binding '{s.text}'", s.line, s.col)
        binds[s.text] = parse_term(cur, env, lets)
        _expect(cur, "rparen", "')'")
    _expect(cur, "rparen", "')' closing the binding list")
    body = parse_term(cur, env, {**lets, **binds})
    _expect(cur, "rparen", "')'")
    return body


def _skip_attributes(cur):
    while cur.peek().kind == "keyword":
        cur.next()
        if cur.peek().kind not in ("rparen", "keyword", "eof"):
            _parse_attr_value(cur)


def _parse_assert_body(cur, env):
    if cur.peek().kind == "lparen" and cur.peek(1).kind == "reserved" \
            and cur.peek(1).text == "!":
        cur.next()
        cur.next()
        term, sort = parse_term(cur, env)
        name = None
        while cur.peek().kind == "keyword":
            kw = cur.next()
            if kw.text == ":named":
                name = _expect(cur, "symbol", "an assertion name").text
            elif cur.peek().kind not in ("rparen", "keyword"):
                _parse_attr_value(cur)
        _expect(cur, "rparen", "')'")
        return term, sort, name
    term, sort = parse_term(cur, env)
    return term, sort, None


def parse_command(cur, env):
    """Consume exactly one command from the cursor; None at end of input.

    Terms and attribute values are parsed recursively, so nesting deeper
    than the interpreter's recursion limit is a ParseError at the command.
    """
    t0 = cur.peek()
    try:
        return _parse_command(cur, env, t0)
    except RecursionError:
        raise ParseError("term nesting too deep", t0.line, t0.col) from None


def _parse_command(cur, env, t0):
    if t0.kind == "eof":
        return None
    if t0.kind != "lparen":
        raise ParseError(f"expected '(' to start a command, found '{t0.text}'",
                         t0.line, t0.col)
    cur.next()
    h = cur.next()
    if h.kind not in ("symbol", "reserved"):
        raise ParseError("expected a command name", h.line, h.col)
    name = h.text
    if name == "set-logic":
        s = _expect(cur, "symbol", "a logic name")
        _expect(cur, "rparen", "')'")
        return Command("set-logic", (s.text,), h.line, h.col)
    if name in ("set-option", "set-info"):
        k = _expect(cur, "keyword", "a keyword")
        val = None
        if cur.peek().kind != "rparen":
            val = _parse_attr_value(cur)
        _expect(cur, "rparen", "')'")
        return Command(name, (k.text, val), h.line, h.col)
    if name in ("declare-fun", "declare-const"):
        s = _expect(cur, "symbol", "a symbol")
        if name == "declare-fun":
            _expect(cur, "lparen", "'('")
            if cur.peek().kind != "rparen":
                raise UnsupportedCommand("declare-fun with a non-empty argument list",
                                         h.line, h.col)
            cur.next()
        sort = _parse_sort(cur)
        _expect(cur, "rparen", "')'")
        env.declare(s.text, sort, s)
        return Command(name, (s.text, sort), h.line, h.col)
    if name == "assert":
        term, sort, aname = _parse_assert_body(cur, env)
        if sort != "Bool":
            raise SortError("asserted term must be Boolean", h.line, h.col)
        _expect(cur, "rparen", "')'")
        return Command("assert", (term, aname), h.line, h.col)
    if name in ("push", "pop"):
        k = 1
        if cur.peek().kind == "numeral":
            k = int(cur.next().text)
        if k < 1:
            raise ParseError(f"{name} count must be at least 1", h.line, h.col)
        _expect(cur, "rparen", "')'")
        if name == "push":
            env.push(k)
        else:
            if k > env.depth():
                raise ParseError("pop below the bottom of the assertion stack",
                                 h.line, h.col)
            env.pop(k)
        return Command(name, (k,), h.line, h.col)
    if name in ("check-sat", "get-model", "get-unsat-core", "exit"):
        _expect(cur, "rparen", "')'")
        return Command(name, (), h.line, h.col)
    if name in _UNSUPPORTED_COMMANDS:
        raise UnsupportedCommand(name, h.line, h.col)
    raise ParseError(f"unknown command '{name}'", h.line, h.col)


def parse_script(text, env=None):
    """Parse a whole script eagerly; the first error aborts with a position."""
    env = env if env is not None else DeclEnv()
    cur = _Cursor(tokenize(text))
    out = []
    while True:
        cmd = parse_command(cur, env)
        if cmd is None:
            return out
        out.append(cmd)


class CommandReader:
    """Extract one balanced command at a time from a character stream.

    Reads line by line and returns a command as soon as its parentheses
    balance, without waiting for end of input. It scans the token grammar
    of :func:`tokenize`, so parens inside strings, quoted symbols and
    comments do not count. Only a string or quoted symbol still open at
    the end of the text read so far is scanned again, from its start, once
    more lines have arrived, so a command spread over many lines is read in
    linear time. Tokens the grammar rejects are left for the parser to
    report, and a token outside any command is handed over on its own.
    """

    def __init__(self, stream):
        self._stream = stream
        self._eof = False
        self._line = 1  # position of _buf[_head], or of the open command
        self._col = 1
        self._buf = ""  # the text being scanned
        self._head = 0  # first character of _buf not yet returned or held
        self._pos = 0  # next offset of _buf to scan
        self._held = []  # the open command's text from earlier lines
        self._depth = 0  # paren depth of the open command, 0 if none is open

    def _advance_past(self, text):
        nl = text.count("\n")
        if nl:
            self._line += nl
            self._col = len(text) - text.rindex("\n")
        else:
            self._col += len(text)

    def next_command(self):
        """Return ``(text, line, col)`` of the next command, or None."""
        while True:
            for m in _TOKEN.finditer(self._buf, self._pos):
                k = m.lastindex
                if k == _NEWLINE or k == _COMMENT:
                    continue
                if k == _END or k == _OTHER and m.group(k) in '"|':
                    break  # the text read so far ends, maybe inside a string
                if not self._depth:
                    # a command starts here, or a stray top-level token that
                    # is handed over alone for the parser to report
                    self._open(m.end() - len(m.group().lstrip(" \t\r\f\v")))
                self._depth += (k == _LPAREN) - (k == _RPAREN)
                if self._depth <= 0:
                    return self._cut(m.end())
            if self._eof:
                # whatever remains is a truncated form, or nothing at all
                if not self._depth:
                    if k == _END:
                        return None
                    self._open(m.start(k))
                return self._cut(len(self._buf))
            self._read(m.start(k), m.group(k) or "\n")

    def _open(self, start):
        self._advance_past(self._buf[self._head:start])
        self._head = start

    def _cut(self, end):
        self._held.append(self._buf[self._head:end])
        text = "".join(self._held)
        line, col = self._line, self._col
        self._advance_past(text)
        self._head = self._pos = end
        self._held = []
        self._depth = 0
        return text, line, col

    def _read(self, start, closer):
        """Keep the buffer from ``start`` on and read up to a line that can
        end what is still open: one with ``closer`` outside a "" pair."""
        if self._depth:
            self._held.append(self._buf[self._head:start])
        else:
            self._advance_past(self._buf[self._head:start])
        parts = [self._buf[start:]]
        while True:
            line = self._stream.readline()
            parts.append(line)
            if not line or closer in line.replace('""', ""):
                break
        self._eof = not line
        self._buf = "".join(parts)
        self._head = self._pos = 0


def render_symbol(name):
    """``name`` as a symbol token: bare when it lexes back as that simple
    symbol, otherwise in ``|bars|``, so it reads back as the same name."""
    if _SIMPLE_SYMBOL.fullmatch(name) and name not in _RESERVED:
        return name
    return f"|{name}|"


def format_int(v):
    """An integer as an SMT-LIB term: negatives as ``(- n)``."""
    return str(v) if v >= 0 else f"(- {-v})"


def render_term(t):
    """Concrete-syntax rendering of a parsed term (for messages and files)."""
    tag = t[0]
    if tag == "int":
        return format_int(t[1])
    if tag in ("ivar", "bvar"):
        return render_symbol(t[1])
    if tag == "bool":
        return "true" if t[1] else "false"
    if tag == "neg":
        return f"(- {render_term(t[1])})"
    if tag == "add":
        return f"(+ {render_term(t[1])} {render_term(t[2])})"
    if tag == "sub":
        return f"(- {render_term(t[1])} {render_term(t[2])})"
    if tag == "cmp":
        return f"({t[1]} {render_term(t[2])} {render_term(t[3])})"
    if tag == "distinct":
        return "(distinct " + " ".join(render_term(x) for x in t[1]) + ")"
    if tag == "not":
        return f"(not {render_term(t[1])})"
    if tag in ("and", "or"):
        return f"({tag} " + " ".join(render_term(x) for x in t[1]) + ")"
    if tag == "xor":
        return f"(xor {render_term(t[1])} {render_term(t[2])})"
    if tag == "implies":
        return f"(=> {render_term(t[1])} {render_term(t[2])})"
    if tag == "ite":
        return (f"(ite {render_term(t[1])} {render_term(t[2])} "
                f"{render_term(t[3])})")
    raise ValueError(f"unknown term tag {tag!r}")


def cursor(tokens):
    """Public cursor constructor for driving :func:`parse_command` directly."""
    return _Cursor(tokens)
