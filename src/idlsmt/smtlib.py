"""SMT-LIB v2 front end for the difference logic solver.

Covers the command subset a QF_IDL script needs: set-logic, set-option,
set-info, declare-fun (constants only), declare-const, assert (with
``(! term :named id)`` annotations), push, pop, check-sat, get-model,
get-unsat-core, and exit. Terms are parsed into tagged tuples and
sort-checked against the declaration table; ``let`` bindings are resolved
while parsing, and every use of a bound name is the one parsed term object,
so a term with shared bindings is a DAG. The lexer makes flat token lists
and works out a line and column only for an error; the parser keeps an
explicit stack, so nesting depth is bounded by memory alone.

Two reading styles: :func:`parse_script` consumes a whole input eagerly,
while :class:`CommandReader` hands out one balanced command at a time as
soon as it has been read, which is what a solver driven over a pipe needs.
One token grammar serves both: the reader counts parentheses with the pattern
that :func:`tokenize` lexes with. Symbols and numerals are ASCII; other
characters may appear only in strings and quoted symbols. Plain text (no
strings, quoted symbols, comments or characters outside the grammar) is
split at blanks and parentheses instead of matched token by token; the
regex scan stays the reference and the one source of errors and positions.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple

from .sat import InternalError


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
# a lone opener matched by the catch-all: nothing closes it before the end
_UNCLOSED = {'"': "unterminated string literal",
             "|": "unterminated quoted symbol",
             ":": "expected a keyword name after ':'"}


# the characters of plain text: those of symbols, numerals, keywords and
# parentheses, and the blanks; str.split() splits such a text where the
# grammar does
_PLAIN = re.compile("[A-Za-z0-9" + _SYMBOL_PUNCT + "():\n \t\r\f\v]*")


class Tokens:
    """The tokens of one text as flat parallel lists, ending with ``eof``.

    Token ``i`` has kind ``kinds[i]`` (lparen rparen symbol keyword numeral
    string reserved eof), text ``texts[i]`` (the body of a string or quoted
    symbol) and first character at offset ``starts[i]`` of the text.
    ``starts`` is None for a text lexed by splitting; the first position
    asked for fills it by scanning the text again with the regex, which
    gives the same tokens. Lines and columns are worked out only when
    asked for, by bisecting the offsets of the text's newlines.
    """

    __slots__ = ("kinds", "texts", "starts", "_text", "_line", "_col",
                 "_newlines")

    def __init__(self, text, start_line, start_col):
        self.kinds, self.texts, self.starts = [], [], []
        self._text, self._line, self._col = text, start_line, start_col
        self._newlines = None

    def locate(self, offset):
        """``(line, col)`` of a character offset."""
        nl = self._newlines
        if nl is None:
            text, nl, at = self._text, [], -1
            while (at := text.find("\n", at + 1)) >= 0:
                nl.append(at)
            self._newlines = nl
        n = bisect_left(nl, offset)
        if not n:
            return self._line, self._col + offset
        return self._line + n, offset - nl[n - 1]

    def position(self, i):
        """``(line, col)`` of token ``i``."""
        if self.starts is None:
            self.starts = _scan(
                Tokens(self._text, self._line, self._col)).starts
        return self.locate(self.starts[i])


def tokenize(text, start_line=1, start_col=1):
    """Lex ``text`` into :class:`Tokens`.

    ``start_line``/``start_col`` position the first character, so chunks cut
    out of a larger stream keep their original coordinates.
    """
    toks = Tokens(text, start_line, start_col)
    if _PLAIN.fullmatch(text) and _split(toks):
        return toks
    return _scan(toks)


def _split(toks):
    """Lex plain text by splitting it; False, with ``toks`` untouched, when
    a word is not one token. Each distinct word is matched once."""
    words = toks._text.replace("(", " ( ").replace(")", " ) ").split()
    kind_of = {"(": "lparen", ")": "rparen"}
    for word in set(words).difference(kind_of):
        m = _TOKEN.fullmatch(word)
        k = m and m.lastindex
        if k == _SYMBOL:
            kind_of[word] = "reserved" if word in _RESERVED else "symbol"
        elif k == _KEYWORD:
            kind_of[word] = "keyword"
        elif k == _NUMERAL and (word[0] != "0" or len(word) == 1):
            kind_of[word] = "numeral"
        else:
            return False
    toks.kinds = list(map(kind_of.__getitem__, words))
    toks.kinds.append("eof")
    words.append("")
    toks.texts, toks.starts = words, None
    return True


def _scan(toks):
    """Lex the text of ``toks`` with the token regex, match by match."""
    add_kind, add_text, add_start = (
        toks.kinds.append, toks.texts.append, toks.starts.append)
    for m in _TOKEN.finditer(toks._text):
        k = m.lastindex
        if k == _SYMBOL:
            word = m.group(k)
            add_kind("reserved" if word in _RESERVED else "symbol")
        elif k <= _RPAREN:
            word = "(" if k == _LPAREN else ")"
            add_kind("lparen" if k == _LPAREN else "rparen")
        elif k == _KEYWORD:
            word = m.group(k)
            add_kind("keyword")
        elif k == _NUMERAL:
            word = m.group(k)
            nxt = m.group(_NUMERAL_NEXT)
            if nxt or len(word) > 1 and word[0] == "0":
                at = toks.locate(m.start(k))
                if nxt == ".":
                    raise LexError("decimal literals are not supported", *at)
                if nxt:
                    raise LexError(f"malformed numeral '{word}{nxt}'", *at)
                raise LexError(f"numeral with a leading zero: '{word}'", *at)
            add_kind("numeral")
        elif k == _NEWLINE or k == _COMMENT:
            continue
        elif k == _STRING or k == _QUOTED:
            # the group holds the body; the token starts at the delimiter
            word = m.group(k)
            add_kind("string" if k == _STRING else "symbol")
            add_text(word.replace('""', '"') if k == _STRING else word)
            add_start(m.start(k) - 1)
            continue
        elif k == _OTHER:
            word = m.group(k)
            raise LexError(_UNCLOSED.get(word, f"illegal character {word!r}"),
                           *toks.locate(m.start(k)))
        else:
            # finditer may add an empty match after trailing blanks
            add_kind("eof")
            add_text("")
            add_start(m.start(k))
            return toks
        add_text(word)
        add_start(m.start(k))


class Command(NamedTuple):
    name: str
    args: tuple


class _Cursor:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0  # the next token


class DeclEnv:
    """Scoped symbol-to-sort table; scopes mirror push/pop.

    A scope stands for a run of push levels, and its declarations belong to
    the run's top level, so ``push n`` costs one scope whatever ``n`` is.
    """

    def __init__(self):
        self._scopes = [(0, {})]  # (depth of the run's top level, declarations)

    def declare(self, name, sort):
        if self.sort_of(name) is not None:
            raise ParseError(f"symbol '{name}' is already declared")
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


def _expect(toks, i, kind, what=None):
    """Index past token ``i``, which must be of ``kind``."""
    if toks.kinds[i] != kind:
        found = toks.texts[i] or toks.kinds[i]
        raise ParseError(f"expected {what or kind}, found '{found}'",
                         *toks.position(i))
    return i + 1


_ATTR_ATOMS = frozenset(
    ["symbol", "keyword", "string", "reserved", "numeral"])


def _attr_value(toks, i):
    """Parse the attribute value at token ``i``; returns ``(value, next)``.
    A parenthesized value is a tuple; nesting is kept on an explicit stack."""
    kinds, texts = toks.kinds, toks.texts
    lists = []  # (index of the '(', values so far) of each open list
    while True:
        k = kinds[i]
        if lists and (k == "rparen" or k == "eof"):
            if k == "eof":
                raise ParseError("unterminated attribute value",
                                 *toks.position(lists[-1][0]))
            val = tuple(lists.pop()[1])
        elif k == "lparen":
            lists.append((i, []))
            i += 1
            continue
        elif k in _ATTR_ATOMS:
            val = int(texts[i]) if k == "numeral" else texts[i]
        else:
            raise ParseError("malformed attribute value", *toks.position(i))
        i += 1
        if not lists:
            return val, i
        lists[-1][1].append(val)


def _skip_attributes(toks, i):
    kinds = toks.kinds
    while kinds[i] == "keyword":
        i += 1
        if kinds[i] not in ("rparen", "keyword", "eof"):
            i = _attr_value(toks, i)[1]
    return i


# operator -> (least operand count, operand sort)
_SIGNATURES = {
    "-": (1, "Int"), "+": (1, "Int"), "distinct": (2, "Int"),
    "<": (2, "Int"), "<=": (2, "Int"), ">": (2, "Int"), ">=": (2, "Int"),
    "=": (2, "Int"), "not": (1, "Bool"), "and": (1, "Bool"),
    "or": (1, "Bool"), "xor": (2, "Bool"), "=>": (2, "Bool"),
}
_SORT_WORDS = {"Int": "integer", "Bool": "Boolean"}
_LEFT_FOLDS = {"-": "sub", "+": "add", "xor": "xor"}


def _apply(o, args, env):
    """Term and sort of operator ``o`` applied to ``args``, a list of
    ``(term, sort)``, after its arity and sort checks. Errors carry no
    position; the caller gives them the operator's."""
    sig = _SIGNATURES.get(o)
    if sig is None:
        if o == "ite":
            if len(args) != 3:
                raise ParseError("'ite' takes exactly three operands")
            if args[0][1] != "Bool":
                raise SortError("'ite' condition must be Boolean")
            if args[1][1] == "Int" or args[2][1] == "Int":
                raise SortError("integer-valued 'ite' is not supported")
            return ("ite", args[0][0], args[1][0], args[2][0]), "Bool"
        if o in ("*", "div", "mod", "abs"):
            raise ParseError(
                f"arithmetic operator '{o}' is outside difference logic")
        if env.sort_of(o) is not None:
            raise ParseError(f"'{o}' is not a function")
        raise UnknownSymbol(f"unknown operator '{o}'")
    least, sort = sig
    if o == "not" and len(args) != 1:
        raise ParseError("'not' takes exactly one operand")
    if len(args) < least:
        raise ParseError(f"'{o}' needs at least {least} operand(s)")
    terms = []
    for tm, s in args:
        if s != sort:
            if o == "=":
                raise SortError("'=' over Bool is not supported; only "
                                "integer difference comparisons")
            raise SortError(f"'{o}' expects {_SORT_WORDS[sort]} operands")
        terms.append(tm)
    if o == "-" and len(terms) == 1:
        return ("neg", terms[0]), "Int"
    tag = _LEFT_FOLDS.get(o)
    if tag is not None:
        acc = terms[0]
        for tm in terms[1:]:
            acc = (tag, acc, tm)
        return acc, sort
    if o == "=>":
        acc = terms[-1]
        for tm in reversed(terms[:-1]):
            acc = ("implies", tm, acc)
        return acc, "Bool"
    if o in ("and", "or", "distinct"):
        return (o, tuple(terms)), "Bool"
    if o == "not":
        return ("not", terms[0]), "Bool"
    links = [("cmp", o, terms[i], terms[i + 1]) for i in range(len(terms) - 1)]
    return (links[0] if len(links) == 1 else ("and", tuple(links))), "Bool"


_CONSTANTS = {"true": (("bool", True), "Bool"),
              "false": (("bool", False), "Bool")}
# what an open form on the term stack still waits for
_ARGS, _BINDING, _BODY, _NOTE = range(4)


def _term(toks, i, env):
    """Parse the term at token ``i``; returns ``(term, sort, next)``.

    One loop with an explicit stack of open forms, so nesting depth is
    bounded by memory alone. ``let`` scopes map a name to the stack of its
    bindings, innermost last, and a scope is undone when its body closes.
    """
    kinds, texts = toks.kinds, toks.texts
    stack = []  # [what it waits for, token index of its head, its state]
    lets = {}  # bound name -> bindings in force, innermost last
    leaves = dict(_CONSTANTS)  # name -> its leaf, for names no let binds
    while True:
        # a term starts at token i: a leaf gives val, a form is opened
        k = kinds[i]
        if k == "symbol":
            nm = texts[i]
            if nm in lets and nm not in _CONSTANTS:
                val = lets[nm][-1]
            elif nm in leaves:
                val = leaves[nm]
            else:
                sort = env.sort_of(nm)
                if sort is None:
                    if len(nm) > 1 and nm[0] == "-" and nm[1:].isdigit():
                        raise ParseError(
                            f"negative integers are written (- {nm[1:]}), "
                            f"not {nm}", *toks.position(i))
                    raise UnknownSymbol(f"undeclared symbol '{nm}'",
                                        *toks.position(i))
                val = leaves[nm] = ((("ivar", nm) if sort == "Int"
                                     else ("bvar", nm)), sort)
            i += 1
        elif k == "numeral":
            val = ("int", int(texts[i])), "Int"
            i += 1
        elif k != "lparen":
            raise ParseError(f"unexpected token '{texts[i] or k}' in term",
                             *toks.position(i))
        else:
            op = i + 1
            if kinds[op] == "symbol":
                stack.append([_ARGS, op, []])
                i = op + 1
                val = None
            elif kinds[op] != "reserved":
                raise ParseError("expected an operator", *toks.position(op))
            elif texts[op] == "let":
                i = _expect(toks, op + 1, "lparen",
                            "'(' opening the binding list")
                frame = [_BINDING, op, {}, None]
                stack.append(frame)
                i = _next_binding(toks, i, frame, lets)
                continue
            elif texts[op] == "!":
                stack.append([_NOTE, op, None])
                i = op + 1
                continue
            else:
                raise ParseError(f"'{texts[op]}' terms are not supported",
                                 *toks.position(op))
        # hand val to the innermost open form, closing forms as they end
        while True:
            if not stack:
                return val[0], val[1], i
            frame = stack[-1]
            what = frame[0]
            if what == _ARGS:
                if val is not None:
                    frame[2].append(val)
                k = kinds[i]
                if k != "rparen":
                    if k == "eof":
                        raise ParseError(
                            f"unterminated '{texts[frame[1]]}' application",
                            *toks.position(frame[1]))
                    break
                stack.pop()
                i += 1
                try:
                    val = _apply(texts[frame[1]], frame[2], env)
                except SmtError as e:
                    e.line, e.col = toks.position(frame[1])
                    raise
            elif what == _BINDING:
                frame[2][frame[3]] = val
                i = _next_binding(toks, _expect(toks, i, "rparen", "')'"),
                                  frame, lets)
                break
            elif what == _BODY:
                i = _expect(toks, i, "rparen", "')'")
                stack.pop()
                for nm in frame[2]:
                    bound = lets[nm]
                    bound.pop()
                    if not bound:
                        del lets[nm]
            else:
                i = _expect(toks, _skip_attributes(toks, i), "rparen", "')'")
                stack.pop()


def _next_binding(toks, i, frame, lets):
    """Step an open ``let`` at token ``i``: start its next binding, or close
    the binding list and bring the bindings into scope for the body."""
    if toks.kinds[i] == "lparen":
        s = i + 1
        i = _expect(toks, s, "symbol", "a bound name")
        name = toks.texts[s]
        if name in frame[2]:
            raise ParseError(f"duplicate let binding '{name}'",
                             *toks.position(s))
        frame[3] = name
        return i
    i = _expect(toks, i, "rparen", "')' closing the binding list")
    frame[0] = _BODY
    for name, val in frame[2].items():
        lets.setdefault(name, []).append(val)
    return i


def parse_term(cur, env):
    """Parse one term; returns ``(term, sort)`` with sorts checked."""
    term, sort, cur.i = _term(cur.toks, cur.i, env)
    return term, sort


def _parse_assert_body(toks, i, env):
    """``(term, sort, name, next)`` of an asserted term, which may carry a
    ``:named`` annotation."""
    kinds = toks.kinds
    if kinds[i] == "lparen" and kinds[i + 1] == "reserved" \
            and toks.texts[i + 1] == "!":
        term, sort, i = _term(toks, i + 2, env)
        name = None
        while kinds[i] == "keyword":
            i += 1
            if toks.texts[i - 1] == ":named":
                i = _expect(toks, i, "symbol", "an assertion name")
                name = toks.texts[i - 1]
            elif kinds[i] not in ("rparen", "keyword"):
                i = _attr_value(toks, i)[1]
        return term, sort, name, _expect(toks, i, "rparen", "')'")
    term, sort, i = _term(toks, i, env)
    return term, sort, None, i


def parse_command(cur, env):
    """Consume exactly one command from the cursor; None at end of input.

    Terms and attribute values are parsed with explicit stacks, so any
    nesting depth parses. Lines and columns are computed for errors only;
    an error raised without a position is reported at the command's name,
    or at the symbol a declaration clashes on.
    """
    toks = cur.toks
    kinds, texts = toks.kinds, toks.texts
    i = cur.i
    if kinds[i] == "eof":
        return None
    if kinds[i] != "lparen":
        raise ParseError(f"expected '(' to start a command, found '{texts[i]}'",
                         *toks.position(i))
    at = h = i + 1
    if kinds[h] not in ("symbol", "reserved"):
        raise ParseError("expected a command name", *toks.position(h))
    name, i = texts[h], h + 1
    try:
        if name == "set-logic":
            i = _expect(toks, i, "symbol", "a logic name")
            args = (texts[i - 1],)
        elif name in ("set-option", "set-info"):
            i = _expect(toks, i, "keyword", "a keyword")
            val = None
            if kinds[i] != "rparen":
                val, i = _attr_value(toks, i)
            args = (texts[h + 1], val)
        elif name in ("declare-fun", "declare-const"):
            i = _expect(toks, i, "symbol", "a symbol")
            if name == "declare-fun":
                i = _expect(toks, i, "lparen", "'('")
                if kinds[i] != "rparen":
                    raise UnsupportedCommand(
                        "declare-fun with a non-empty argument list")
                i += 1
            if kinds[i] != "symbol" or texts[i] not in ("Int", "Bool"):
                raise SortError(
                    f"unsupported sort '{texts[i] or kinds[i]}'",
                    *toks.position(i))
            args = (texts[h + 1], texts[i])
            i += 1
        elif name == "assert":
            term, sort, aname, i = _parse_assert_body(toks, i, env)
            if sort != "Bool":
                raise SortError("asserted term must be Boolean")
            args = (term, aname)
        elif name in ("push", "pop"):
            args = (1,)
            if kinds[i] == "numeral":
                args = (int(texts[i]),)
                i += 1
            if args[0] < 1:
                raise ParseError(f"{name} count must be at least 1")
        elif name in ("check-sat", "get-model", "get-unsat-core", "exit"):
            args = ()
        elif name in _UNSUPPORTED_COMMANDS:
            raise UnsupportedCommand(name)
        else:
            raise ParseError(f"unknown command '{name}'")
        cur.i = _expect(toks, i, "rparen", "')'")
        if name == "push":
            env.push(args[0])
        elif name == "pop":
            if args[0] > env.depth():
                raise ParseError("pop below the bottom of the assertion stack")
            env.pop(args[0])
        elif name in ("declare-fun", "declare-const"):
            at = h + 1
            env.declare(*args)
    except SmtError as e:
        if e.line is None:
            e.line, e.col = toks.position(at)
        raise
    return Command(name, args)


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


# the operator word of each compound term tag
_HEADS = {"neg": "-", "add": "+", "sub": "-", "not": "not", "xor": "xor",
          "implies": "=>", "ite": "ite"}


def render_term(t, limit=None):
    """Concrete-syntax rendering of a parsed term.

    Written from an explicit stack. With ``limit``, the text stops after
    that many characters and ends with ``...``, so a message about a deep
    or let-shared term costs no more than its first characters.
    """
    out, size = [], 0
    todo = [t]  # terms and literal pieces, the next one last
    while todo:
        x = todo.pop()
        if type(x) is str:
            piece = x
        else:
            tag = x[0]
            if tag == "int":
                piece = format_int(x[1])
            elif tag in ("ivar", "bvar"):
                piece = render_symbol(x[1])
            elif tag == "bool":
                piece = "true" if x[1] else "false"
            else:
                if tag == "cmp":
                    head, kids = x[1], x[2:]
                elif tag in ("distinct", "and", "or"):
                    head, kids = tag, x[1]
                elif tag in _HEADS:
                    head, kids = _HEADS[tag], x[1:]
                else:
                    raise InternalError(f"unknown term tag {tag!r}")
                todo.append(")")
                for kid in reversed(kids):
                    todo += (kid, " ")
                piece = "(" + head
        out.append(piece)
        size += len(piece)
        if limit is not None and size > limit:
            return "".join(out)[:limit] + "..."
    return "".join(out)


def cursor(tokens):
    """Public cursor constructor for driving :func:`parse_command` directly."""
    return _Cursor(tokens)
