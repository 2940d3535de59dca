"""Rewriting parsed formulas into CNF over interned difference atoms.

A difference atom is the bound ``x - y <= c`` between two integer variables;
variable index 0 is the implicit zero variable, fixed at 0, which turns
unary bounds like ``x <= 5`` into ordinary atoms. Over the integers the
negation of ``x - y <= c`` is ``y - x <= -c-1``, so every atom and its
complement share a single SAT variable with opposite polarities.

A formula's conjunctive top becomes clauses directly: its conjuncts, each
disjunction among them one clause, negations pushed through both. The
nodes below get the usual fresh-variable gate encoding (Tseitin); only
constants are folded, the Boolean structure is kept as written. The parser
returns a ``let``-bound subterm as one shared object, so a term is a DAG;
every pass keys compound nodes by identity and handles each distinct
subterm once (the top once per polarity), and integer subterms are reduced
once each as well. Every pass keeps an explicit stack, so nesting depth is
bounded by memory alone. Every gate is a two-sided equivalence, so one gate
literal stands for its subterm wherever it occurs, under either polarity.
"""

from __future__ import annotations

from .sat import InternalError
from .smtlib import render_term

ZERO_VAR = 0

# The range of an atom's final constant c. It is closed under the
# complement -c-1, so every edge weight the engine sees lies in it. A
# closure cell holds a simple path of at most theory.MAX_VERTICES - 1 =
# 1,023 edges, and the relax kernel adds two cells and an edge weight, so
# every sum has magnitude at most 2,047 * 2^52 <= 2^63 - 2^52: int64 holds it.
CONST_MAX = 2 ** 52 - 1
CONST_MIN = -(2 ** 52)


class NonDifferenceTerm(Exception):
    """A comparison that cannot be folded into ``x - y <= c`` form."""


class ConstantOverflow(NonDifferenceTerm):
    """A folded constant outside [CONST_MIN, CONST_MAX], the 53-bit range
    that keeps path sums inside int64."""


class AtomTable:
    """Interns difference atoms onto SAT variables.

    Structurally equal atoms share one variable, and the two members of a
    complementary pair map to the same variable with opposite signs (the
    orientation with the smaller left-hand variable is the positive one).
    ``bounds`` maps each atom variable to its positive-polarity bound
    ``(x, y, c)``; ``on_new_atom``, when set, is called with
    ``(var, x, y, c)`` for each new atom.

    The table does not decide when an atom dies. The session keeps a
    variable only while a stored clause of a live assertion mentions it,
    it is a live selector or a declared Boolean, or it is fixed at level
    0; ``retire`` forgets the atom of any other. Each vertex counts the
    atoms that read it, for ``reads``.
    """

    def __init__(self, new_var):
        self._new_var = new_var
        self.on_new_atom = None
        self._ids = {}
        self.bounds = {}
        self._readers = {}  # vertex -> atoms over it

    def literal(self, x, y, c):
        """SAT literal asserting ``x - y <= c``; x and y must differ."""
        if x == y:
            raise InternalError(
                "self-difference atoms must be folded before interning")
        if x < y:
            key, sign = (x, y, c), 1
        else:
            key, sign = (y, x, -c - 1), -1
        var = self._ids.get(key)
        if var is None:
            var = self._new_var()
            # an atom the theory refuses (too many vertices) is not
            # interned; the session retires its variable with the rest of
            # the failed assertion
            if self.on_new_atom is not None:
                self.on_new_atom(var, *key)
            self._ids[key] = var
            self.bounds[var] = key
            for u in key[:2]:
                self._readers[u] = self._readers.get(u, 0) + 1
        return sign * var

    def retire(self, var):
        """Forget the atom of a retired variable, which may then stand for
        something else."""
        key = self.bounds.pop(var)
        del self._ids[key]
        for u in key[:2]:
            self._readers[u] -= 1
            if not self._readers[u]:
                del self._readers[u]

    def reads(self, vertex):
        """Whether an atom over ``vertex`` is interned."""
        return vertex in self._readers

    def __len__(self):
        return len(self.bounds)


# how much of a term an error message shows
_SHOWN = 300


def _operands(u, s):
    """Operands of the integer term ``u`` taken with sign ``s``, each with
    its own sign, the first operand last."""
    tag = u[0]
    if tag == "neg":
        return [(u[1], -s)]
    if tag == "add":
        return [(u[2], s), (u[1], s)]
    if tag == "sub":
        return [(u[2], -s), (u[1], s)]
    raise InternalError(f"unknown integer term tag {tag!r}")


def _sum(todo, memo):
    """Coefficient map and constant of the sum of the signed terms on the
    stack ``todo``, expanded term by term from the stack.

    ``memo`` maps the id of each compound term met before to None, or to
    its coefficients once it is met again and reduced by :func:`_linear`,
    so a let-shared term costs time linear in its distinct nodes. The
    caller's term keeps every node alive, so no id is reused.
    """
    coeffs, k = {}, 0
    while todo:
        u, s = todo.pop()
        tag = u[0]
        if tag == "ivar":
            v = u[1]
            coeffs[v] = coeffs.get(v, 0) + s
        elif tag == "int":
            k += s * u[1]
        elif (reduced := memo.get(id(u), False)) is False:
            memo[id(u)] = None
            todo += _operands(u, s)
        else:
            m, c = reduced or _linear(u, memo)
            for v, q in m.items():
                coeffs[v] = coeffs.get(v, 0) + s * q
            k += s * c
    return coeffs, k


def _linear(t, memo):
    """Coefficients of the compound integer term ``t``, reduced bottom up
    from an explicit stack so that each node is summed once; the results
    are kept in ``memo`` and never modified."""
    todo = [t]
    while todo:
        u = todo[-1]
        pending = [k for k, _ in _operands(u, 1)
                   if k[0] != "int" and k[0] != "ivar" and not memo.get(id(k))]
        if pending:
            todo += pending
        else:
            memo[id(u)] = _sum(_operands(u, 1), memo)
            todo.pop()
    return memo[id(t)]


def _difference_shape(lhs, rhs, src, memo):
    """Reduce ``lhs - rhs`` to ``(x, y, k)`` meaning x - y + k, with x or y
    possibly the zero variable (None); ``memo`` is :func:`_sum`'s."""
    coeffs, k = _sum([(rhs, -1), (lhs, 1)], memo)
    coeffs = {v: q for v, q in coeffs.items() if q != 0}
    if not coeffs:
        return None, None, k
    if len(coeffs) == 1:
        ((v, q),) = coeffs.items()
        if q == 1:
            return v, None, k
        if q == -1:
            return None, v, k
    elif len(coeffs) == 2:
        pos = [v for v, q in coeffs.items() if q == 1]
        neg = [v for v, q in coeffs.items() if q == -1]
        if len(pos) == 1 and len(neg) == 1:
            return pos[0], neg[0], k
    raise NonDifferenceTerm(
        f"not a difference constraint: {render_term(src, _SHOWN)}")


def _checked(c, src):
    if c < CONST_MIN or c > CONST_MAX:
        raise ConstantOverflow(
            f"constant exceeds the 53-bit limit in {render_term(src, _SHOWN)}")
    return c


class _Normalizer:
    def __init__(self, resolve_int, resolve_bool, atoms):
        self.resolve_int = resolve_int
        self.resolve_bool = resolve_bool
        self.atoms = atoms
        # id -> skeleton of each compound node; the caller's term keeps
        # every node alive, so no id is reused during the walk
        self._done = {}
        self._reduced = {}  # the memo of _sum, for integer subterms
        self._cmps = {}  # id -> literal or constant of each comparison

    def _atom(self, x_name, y_name, c, src):
        _checked(c, src)
        x = ZERO_VAR if x_name is None else self.resolve_int(x_name)
        y = ZERO_VAR if y_name is None else self.resolve_int(y_name)
        return ("lit", self.atoms.literal(x, y, c))

    def _cmp(self, op, lhs, rhs, src):
        x, y, k = _difference_shape(lhs, rhs, src, self._reduced)
        if x is None and y is None:
            truth = {"<=": 0 <= -k, "<": 0 < -k, ">=": 0 >= -k,
                     ">": 0 > -k, "=": k == 0}[op]
            return ("const", truth)
        c = -k
        if op == "<=":
            return self._atom(x, y, c, src)
        if op == "<":
            return self._atom(x, y, c - 1, src)
        if op == ">=":
            return self._atom(y, x, -c, src)
        if op == ">":
            return self._atom(y, x, -c - 1, src)
        return ("and", [self._atom(x, y, c, src), self._atom(y, x, -c, src)])

    def _distinct(self, terms, src):
        parts = []
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                x, y, k = _difference_shape(terms[i], terms[j], src,
                                            self._reduced)
                if x is None and y is None:
                    if k == 0:
                        return ("const", False)
                    continue
                c = -k
                parts.append(("or", [self._atom(x, y, c - 1, src),
                                     self._atom(y, x, -c - 1, src)]))
        if not parts:
            return ("const", True)
        return ("and", parts)

    def _leaf(self, t):
        """Skeleton of a term that is not compound. Leaves are interned by
        the atom table rather than cached."""
        tag = t[0]
        if tag == "cmp":
            # a let-shared comparison is reached once per use; an equality
            # is a fresh two-atom node each time, as it gets a gate per use
            node = self._cmps.get(id(t))
            if node is None:
                node = self._cmp(t[1], t[2], t[3], t)
                if node[0] != "and":
                    self._cmps[id(t)] = node
            return node
        if tag == "bvar":
            return ("lit", self.resolve_bool(t[1]))
        if tag == "bool":
            return ("const", t[1])
        if tag == "distinct":
            return self._distinct(t[1], t)
        raise InternalError(f"unknown term tag {tag!r}")

    def walk(self, t):
        """Skeleton of ``t``, walked depth first and left to right from an
        explicit stack. Compound nodes are keyed by identity, since hashing
        a nested tuple walks it again."""
        leaf, done = self._leaf, self._done
        # (term, operands, their skeletons); the bottom frame holds the answer
        stack = [(None, (t,), [])]
        while True:
            u, kids, got = stack[-1]
            n = len(got)
            while n < len(kids):
                k = kids[n]
                tag = k[0]
                if tag not in _COMPOUND:
                    node = leaf(k)
                else:
                    node = done.get(id(k))
                    if node is None:
                        break
                got.append(node)
                n += 1
            else:
                if u is None:
                    return got[0]
                tag = u[0]
                if tag == "not":
                    node = ("not", got[0])
                elif tag == "xor" or tag == "ite":
                    node = (tag, *got)
                elif tag == "implies":
                    node = ("or", [("not", got[0]), got[1]])
                else:
                    node = (tag, got)
                done[id(u)] = node
                stack.pop()
                stack[-1][2].append(node)
                continue
            kids = k[1] if tag == "and" or tag == "or" else k[1:]
            stack.append((k, kids, []))


_COMPOUND = frozenset(["not", "and", "or", "xor", "implies", "ite"])


def skeleton(term, resolve_int, resolve_bool, atoms):
    """Boolean skeleton of a term with difference atoms replaced by literals.

    ``resolve_int``/``resolve_bool`` map symbol names to variable indices and
    SAT variables; ``atoms`` interns the difference bounds.
    """
    return _Normalizer(resolve_int, resolve_bool, atoms).walk(term)


def _neg(v):
    return (not v) if isinstance(v, bool) else -v


def _conj(vals):
    """Literals of the conjunction of ``vals`` with constants folded and
    duplicates dropped; None when it folds to false."""
    lits, seen = [], set()
    for v in vals:
        if v is True or v in seen:
            continue
        if v is False or -v in seen:
            return None
        seen.add(v)
        lits.append(v)
    return lits


class _Encoder:
    # a class rather than nested functions: closures that call one another
    # form a reference cycle, which would keep ``new_var`` (and so the
    # solver behind it) alive until the cyclic garbage collector runs
    def __init__(self, new_var):
        self.new_var = new_var
        self.clauses = []
        self._done = {}  # id -> literal of each compound skeleton node

    def gate_and(self, vals):
        lits = _conj(vals)
        if lits is None:
            return False
        if not lits:
            return True
        if len(lits) == 1:
            return lits[0]
        g = self.new_var()
        for l in lits:
            self.clauses.append([-g, l])
        self.clauses.append([g] + [-l for l in lits])
        return g

    def gate_or(self, vals):
        return _neg(self.gate_and([_neg(v) for v in vals]))

    def gate_xor(self, a, b):
        if isinstance(a, bool):
            return _neg(b) if a else b
        if isinstance(b, bool):
            return _neg(a) if b else a
        if a == b:
            return False
        if a == -b:
            return True
        g = self.new_var()
        self.clauses += [[-g, a, b], [-g, -a, -b], [g, -a, b], [g, a, -b]]
        return g

    def gate_ite(self, c, t, e):
        if t is True:
            return self.gate_or([c, e])
        if t is False:
            return self.gate_and([-c, e])
        if e is True:
            return self.gate_or([-c, t])
        if e is False:
            return self.gate_and([c, t])
        if t == e:
            return t
        g = self.new_var()
        self.clauses += [[-g, -c, t], [-g, c, e], [g, -c, -t], [g, c, -e]]
        return g

    def enc(self, nd):
        """Literal of skeleton node ``nd``, encoded depth first and left to
        right from an explicit stack. An ``ite`` whose condition folds to a
        constant encodes only the branch it selects."""
        done = self._done
        # [node, kids, their literals], where an ite's branches wait for its
        # condition; the bottom frame holds the answer
        stack = [[None, (nd,), []]]
        while True:
            frame = stack[-1]
            u, kids, got = frame
            n = len(got)
            while n < len(kids):
                k = kids[n]
                tag = k[0]
                if tag == "lit" or tag == "const":
                    lit = k[1]
                elif tag == "not" and k[1][0] == "lit":
                    lit = -k[1][1]  # a negated atom needs no frame
                else:
                    lit = done.get(id(k))
                    if lit is None:
                        break
                got.append(lit)
                n += 1
            else:
                if u is None:
                    return got[0]
                tag = u[0]
                if tag == "ite":
                    if n == 1:
                        # the condition is encoded; now the branches it keeps
                        c = got[0]
                        frame[1] = (kids[0], u[2]) if c is True else \
                            (kids[0], u[3]) if c is False else u[1:]
                        continue
                    lit = got[1] if n == 2 else self.gate_ite(*got)
                elif tag == "not":
                    lit = _neg(got[0])
                elif tag == "and":
                    lit = self.gate_and(got)
                elif tag == "or":
                    lit = self.gate_or(got)
                elif tag == "xor":
                    lit = self.gate_xor(*got)
                else:
                    raise InternalError(f"unknown skeleton tag {tag!r}")
                done[id(u)] = lit
                stack.pop()
                stack[-1][2].append(lit)
                continue
            stack.append([k, k[1] if tag == "and" or tag == "or" else
                          k[1:2] if tag == "ite" else k[1:], []])


def to_cnf(node, new_var):
    """CNF of a skeleton; returns ``(clauses, roots)``.

    ``roots`` are the clauses to assert (``[]`` is false), read off the
    formula's conjunctive top: an ``and`` gives its conjuncts, an ``or`` one
    clause, a negated ``and`` or ``or`` negates its kids, and anything else
    (a double negation too) a unit. ``clauses`` are the gates of the nodes
    below; constants fold. Each distinct subterm is encoded once and walked
    once per polarity at most, so the clause count is linear in their number.
    """
    if node[0] == "lit":  # a lone atom needs no walk and no encoder
        return [], [[node[1]]]
    encoder = _Encoder(new_var)
    roots, seen = [], set()
    stack = [(node, 1)]  # a node with sign -1 stands for its negation
    while stack:
        u, sign = stack.pop()
        tag = u[0]
        if tag == "not" and sign > 0:
            stack.append((u[1], -1))
            continue
        if tag == "and" or tag == "or":
            if sign * id(u) in seen:
                continue
            seen.add(sign * id(u))
            if (tag == "and") == (sign > 0):
                stack += [(k, sign) for k in reversed(u[1])]
                continue
            vals = [k[1] if k[0] == "lit" else encoder.enc(k) for k in u[1]]
        else:
            vals = [encoder.enc(u)]
        # the clause is the disjunction of the signed values
        lits = _conj(vals if sign < 0 else [_neg(v) for v in vals])
        if lits is not None:
            roots.append([-l for l in lits])
    return encoder.clauses, roots
