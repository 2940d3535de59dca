"""Rewriting parsed formulas into CNF over interned difference atoms.

A difference atom is the bound ``x - y <= c`` between two integer variables;
variable index 0 is the implicit zero variable, fixed at 0, which turns
unary bounds like ``x <= 5`` into ordinary atoms. Over the integers the
negation of ``x - y <= c`` is ``y - x <= -c-1``, so every atom and its
complement share a single SAT variable with opposite polarities.

Formulas become clauses through the usual fresh-variable gate encoding;
only constants are folded, the Boolean structure is kept as written. The
parser returns a ``let``-bound subterm as one shared object, so a term is a
DAG; both passes cache compound nodes by identity and handle each distinct
subterm once. Every gate is a two-sided equivalence, so one gate literal
stands for its subterm wherever it occurs, under either polarity.
"""

from __future__ import annotations

from .smtlib import render_term

ZERO_VAR = 0

# |c| must fit a signed 62-bit slot so path sums stay inside int64 at the
# documented vertex limit; see theory.MAX_VERTICES.
CONST_MAX = 2 ** 61 - 1
CONST_MIN = -(2 ** 61)


class NonDifferenceTerm(Exception):
    """A comparison that cannot be folded into ``x - y <= c`` form."""


class ConstantOverflow(NonDifferenceTerm):
    """A folded constant outside the supported 62-bit range."""


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
            raise ValueError("self-difference atoms must be folded before interning")
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


def _linear(t):
    """Coefficient map and constant of a linear integer term."""
    tag = t[0]
    if tag == "int":
        return {}, t[1]
    if tag == "ivar":
        return {t[1]: 1}, 0
    if tag == "neg":
        m, c = _linear(t[1])
        return {v: -q for v, q in m.items()}, -c
    if tag in ("add", "sub"):
        ma, ca = _linear(t[1])
        mb, cb = _linear(t[2])
        s = 1 if tag == "add" else -1
        out = dict(ma)
        for v, q in mb.items():
            out[v] = out.get(v, 0) + s * q
        return out, ca + s * cb
    raise NonDifferenceTerm(f"non-linear subterm in {render_term(t)}")


def _difference_shape(lhs, rhs, src):
    """Reduce ``lhs - rhs`` to ``(x, y, k)`` meaning x - y + k, with x or y
    possibly the zero variable (None)."""
    ml, cl = _linear(lhs)
    mr, cr = _linear(rhs)
    coeffs = dict(ml)
    for v, q in mr.items():
        coeffs[v] = coeffs.get(v, 0) - q
    coeffs = {v: q for v, q in coeffs.items() if q != 0}
    k = cl - cr
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
        f"not a difference constraint: {render_term(src)}")


def _checked(c, src):
    if c < CONST_MIN or c > CONST_MAX:
        raise ConstantOverflow(
            f"constant exceeds the 62-bit limit in {render_term(src)}")
    return c


class _Normalizer:
    def __init__(self, resolve_int, resolve_bool, atoms):
        self.resolve_int = resolve_int
        self.resolve_bool = resolve_bool
        self.atoms = atoms
        # id -> skeleton of each compound node; the caller's term keeps
        # every node alive, so no id is reused during the walk
        self._done = {}

    def _atom(self, x_name, y_name, c, src):
        _checked(c, src)
        x = ZERO_VAR if x_name is None else self.resolve_int(x_name)
        y = ZERO_VAR if y_name is None else self.resolve_int(y_name)
        return ("lit", self.atoms.literal(x, y, c))

    def _cmp(self, op, lhs, rhs, src):
        x, y, k = _difference_shape(lhs, rhs, src)
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
                x, y, k = _difference_shape(terms[i], terms[j], src)
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

    def walk(self, t):
        tag = t[0]
        if tag == "bool":
            return ("const", t[1])
        if tag == "bvar":
            return ("lit", self.resolve_bool(t[1]))
        if tag == "cmp":
            return self._cmp(t[1], t[2], t[3], t)
        if tag == "distinct":
            return self._distinct(t[1], t)
        # leaves above are interned by the atom table; compound nodes are
        # keyed by identity, since hashing a nested tuple walks it again
        node = self._done.get(id(t))
        if node is not None:
            return node
        if tag == "not":
            node = ("not", self.walk(t[1]))
        elif tag in ("and", "or"):
            node = (tag, [self.walk(k) for k in t[1]])
        elif tag == "xor":
            node = ("xor", self.walk(t[1]), self.walk(t[2]))
        elif tag == "implies":
            node = ("or", [("not", self.walk(t[1])), self.walk(t[2])])
        elif tag == "ite":
            node = ("ite", self.walk(t[1]), self.walk(t[2]), self.walk(t[3]))
        else:
            raise NonDifferenceTerm(f"unexpected term {render_term(t)}")
        self._done[id(t)] = node
        return node


def skeleton(term, resolve_int, resolve_bool, atoms):
    """Boolean skeleton of a term with difference atoms replaced by literals.

    ``resolve_int``/``resolve_bool`` map symbol names to variable indices and
    SAT variables; ``atoms`` interns the difference bounds.
    """
    return _Normalizer(resolve_int, resolve_bool, atoms).walk(term)


def _neg(v):
    return (not v) if isinstance(v, bool) else -v


class _Encoder:
    # a class rather than nested functions: a self-recursive closure is a
    # reference cycle, which would keep ``new_var`` (and so the solver
    # behind it) alive until the cyclic garbage collector runs
    def __init__(self, new_var):
        self.new_var = new_var
        self.clauses = []
        self._done = {}  # id -> literal of each compound skeleton node

    def gate_and(self, vals):
        if any(v is False for v in vals):
            return False
        lits = []
        seen = set()
        for v in vals:
            if v is True or v in seen:
                continue
            if -v in seen:
                return False
            seen.add(v)
            lits.append(v)
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
        tag = nd[0]
        if tag == "lit" or tag == "const":
            return nd[1]
        lit = self._done.get(id(nd))
        if lit is not None:
            return lit
        if tag == "not":
            lit = _neg(self.enc(nd[1]))
        elif tag == "and":
            lit = self.gate_and([self.enc(k) for k in nd[1]])
        elif tag == "or":
            lit = self.gate_or([self.enc(k) for k in nd[1]])
        elif tag == "xor":
            lit = self.gate_xor(self.enc(nd[1]), self.enc(nd[2]))
        elif tag == "ite":
            c = self.enc(nd[1])
            if c is True:
                lit = self.enc(nd[2])
            elif c is False:
                lit = self.enc(nd[3])
            else:
                lit = self.gate_ite(c, self.enc(nd[2]), self.enc(nd[3]))
        else:
            raise ValueError(f"unknown skeleton tag {tag!r}")
        self._done[id(nd)] = lit
        return lit


def to_cnf(node, new_var):
    """Gate-encode a skeleton; returns ``(clauses, root)``.

    ``root`` is a literal to assert (or True/False when the formula folded
    to a constant). Clause count is linear in the number of distinct
    subterms: a node shared by reference is encoded once.
    """
    encoder = _Encoder(new_var)
    root = encoder.enc(node)
    return encoder.clauses, root
