"""Oracles, instance generators, and benchmark families.

Everything here is deliberately pedestrian: a from-scratch cubic
shortest-path closure, Bellman-Ford feasibility over plain dicts, and
truth-table enumeration. None of it shares an update path with the
incremental engine, which is the point; these are the references the
solver is checked against.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

ZERO_VAR = 0


class AtomBudgetExceeded(Exception):
    """Enumeration asked for more atoms than the exhaustive oracle allows."""


# -- reference shortest paths --------------------------------------------------


def scratch_floyd_warshall(n, edges):
    """Textbook cubic closure of a weighted edge list over vertices 0..n-1.

    Returns ``(D, R)`` arrays (distances, reachability with unit diagonal),
    or None when the graph has a negative cycle. Parallel edges keep the
    minimum weight.
    """
    D = np.zeros((n, n), dtype=np.int64)
    R = np.eye(n, dtype=np.bool_)
    for u, v, w in edges:
        if u == v:
            if w < 0:
                return None
            continue
        if not R[u, v] or w < D[u, v]:
            D[u, v] = w
            R[u, v] = True
    for k in range(n):
        via = R[:, k][:, None] & R[k, :][None, :]
        cand = D[:, k][:, None] + D[k, :][None, :]
        better = via & (~R | (cand < D))
        D = np.where(better, cand, D)
        R = R | via
    if (np.diagonal(D) < 0).any():
        return None
    D = np.where(R, D, 0)
    return D, R


def bellman_ford_consistent(atoms):
    """Feasibility of a conjunction of bounds ``x - y <= c``.

    Runs Bellman-Ford from a virtual source with zero-weight edges to every
    vertex (realized as an all-zero initialization). Returns a satisfying
    assignment shifted so the zero variable maps to 0, or None when the
    bounds are unsatisfiable.
    """
    verts = {ZERO_VAR}
    edges = []
    for x, y, c in atoms:
        verts.add(x)
        verts.add(y)
        edges.append((y, x, c))
    dist = {v: 0 for v in verts}
    for _ in range(len(verts)):
        changed = False
        for u, v, w in edges:
            alt = dist[u] + w
            if alt < dist[v]:
                dist[v] = alt
                changed = True
        if not changed:
            break
    else:
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                return None
    base = dist[ZERO_VAR]
    return {v: d - base for v, d in dist.items()}


# -- exhaustive ground truth -----------------------------------------------------


def _postorder(root, kids, done):
    """Each node under ``root`` whose id is not in ``done``, once and after
    its ``kids``, from an explicit stack; ``done`` gains the ids yielded,
    so a node shared by reference is visited once."""
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if ready:
            done.add(id(node))
            yield node
        else:
            stack.append((node, True))
            stack += [(k, False) for k in reversed(kids(node))]


def _skeleton_kids(node):
    tag = node[0]
    if tag == "lit" or tag == "const":
        return ()
    if tag not in _SKELETON_OPS:
        raise ValueError(f"unknown skeleton tag {tag!r}")
    return node[1] if tag == "and" or tag == "or" else node[1:]


_SKELETON_OPS = {
    "not": lambda v: ~v[0], "xor": lambda v: v[0] ^ v[1],
    "and": np.logical_and.reduce, "or": np.logical_or.reduce,
    "ite": lambda v: (v[0] & v[1]) | (~v[0] & v[2]),
}


def _eval_skeleton(root, cols, memo):
    # memo maps id(node) to its column; a let-shared node is evaluated once
    for node in _postorder(root, _skeleton_kids, set(memo)):
        tag, arg = node[0], node[1]
        if tag == "lit":
            val = cols[abs(arg)] if arg > 0 else ~cols[abs(arg)]
        elif tag == "const":
            val = np.full(len(next(iter(cols.values()))), arg, dtype=np.bool_)
        else:
            val = _SKELETON_OPS[tag](
                [memo[id(k)] for k in _skeleton_kids(node)])
        memo[id(node)] = val
    return memo[id(root)]


def enumerate_verdict(skeletons, atom_meta, max_atoms=12):
    """Exhaustive sat/unsat for Boolean skeletons over difference atoms.

    ``atom_meta`` maps SAT variables to bounds ``(x, y, c)``; variables not
    in the map are free Booleans. Every truth assignment of the leaf
    variables is enumerated (atom count capped) and each Boolean solution is
    checked for difference feasibility with Bellman-Ford.
    """
    leaves, seen = set(), set()
    for sk in skeletons:
        leaves.update(abs(node[1]) for node in
                      _postorder(sk, _skeleton_kids, seen) if node[0] == "lit")
    avars = sorted(v for v in leaves if v in atom_meta)
    bvars = sorted(v for v in leaves if v not in atom_meta)
    if len(avars) > max_atoms:
        raise AtomBudgetExceeded(f"{len(avars)} atoms exceed the "
                                 f"{max_atoms}-atom enumeration budget")
    order = avars + bvars
    k = len(order)
    count = 1 << k
    if k == 0:
        rows = np.zeros((1, 0), dtype=np.bool_)
    else:
        rows = ((np.arange(count)[:, None] >> np.arange(k)[None, :]) & 1) \
            .astype(np.bool_)
    cols = {v: rows[:, i] for i, v in enumerate(order)}
    if not order:
        cols = {0: np.zeros(1, dtype=np.bool_)}  # shape donor for consts
    mask = np.ones(count, dtype=np.bool_)
    memo = {}  # the skeletons keep every memoized node alive
    for sk in skeletons:
        mask &= _eval_skeleton(sk, cols, memo)
    for row in np.nonzero(mask)[0]:
        bounds = []
        for i, v in enumerate(order):
            if v not in atom_meta:
                continue
            x, y, c = atom_meta[v]
            if rows[row, i]:
                bounds.append((x, y, c))
            else:
                bounds.append((y, x, -c - 1))
        if bellman_ford_consistent(bounds) is not None:
            return "sat"
    return "unsat"


def eval_term(term, int_env, bool_env):
    """Direct evaluation of a parsed term under name-to-value maps.

    A let-bound subterm is one object shared by reference; each distinct
    node is evaluated once, from an explicit stack, so a doubling let chain
    costs linear time and a term nested at any depth gets a value.
    """
    memo = {}  # id -> value; the term keeps every node alive
    for t in _postorder(term, _term_kids, set()):
        tag = t[0]
        if tag == "int" or tag == "bool":
            val = t[1]
        elif tag == "ivar":
            val = int_env.get(t[1], 0)
        elif tag == "bvar":
            val = bool_env.get(t[1], False)
        elif tag == "cmp":
            val = _COMPARE[t[1]](memo[id(t[2])], memo[id(t[3])])
        else:
            val = _TERM_OPS[tag]([memo[id(k)] for k in _term_kids(t)])
        memo[id(t)] = val
    return memo[id(term)]


def _term_kids(t):
    tag = t[0]
    if tag == "and" or tag == "or" or tag == "distinct":
        return t[1]
    if tag == "cmp":
        return t[2:]
    if tag in _TERM_OPS:
        return t[1:]
    if tag in ("int", "ivar", "bvar", "bool"):
        return ()
    raise ValueError(f"unknown term tag {tag!r}")


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "=": operator.eq}
_TERM_OPS = {
    "neg": lambda v: -v[0], "add": lambda v: v[0] + v[1],
    "sub": lambda v: v[0] - v[1], "not": lambda v: not v[0],
    "and": all, "or": any, "distinct": lambda v: len(set(v)) == len(v),
    "xor": lambda v: v[0] != v[1], "implies": lambda v: not v[0] or v[1],
    "ite": lambda v: v[1] if v[0] else v[2],
}


# -- Boolean reference checks ------------------------------------------------------


def truth_table_sat(clauses, n_vars):
    """Brute-force CNF satisfiability; a model dict or None."""
    if n_vars > 20:
        raise ValueError("truth-table oracle capped at 20 variables")
    for bits in range(1 << n_vars):
        assign = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n_vars + 1)}
        ok = True
        for cl in clauses:
            if not any(assign[abs(l)] == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            return assign
    return None


def naive_unit_fixpoint(clauses, initial):
    """Reference unit propagation: repeatedly scan every clause.

    Returns the set of implied literals (including ``initial``) or the
    string ``"conflict"``.
    """
    assigned = {}
    for l in initial:
        if assigned.get(abs(l), l > 0) != (l > 0):
            return "conflict"
        assigned[abs(l)] = l > 0
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            unknown = []
            satisfied = False
            for l in cl:
                val = assigned.get(abs(l))
                if val is None:
                    unknown.append(l)
                elif val == (l > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unknown:
                return "conflict"
            if len(unknown) == 1:
                l = unknown[0]
                assigned[abs(l)] = l > 0
                changed = True
    return {v if b else -v for v, b in assigned.items()}


# -- random instance generation -------------------------------------------------------


@dataclass
class RandomInstanceSpec:
    vars: int = 4
    atoms: int = 6
    lo: int = -8
    hi: int = 8
    # ("conjunction",) | ("cnf", k, m) | ("tree", depth) | ("let", levels)
    structure: tuple = ("conjunction",)
    seed: int = 0


def _fmt(c):
    return str(c) if c >= 0 else f"(- {-c})"


def _render_atom(rng, x, y, c):
    """One of several concrete spellings of the bound x - y <= c."""
    if y is None:
        styles = [f"(<= {x} {_fmt(c)})", f"(< {x} {_fmt(c + 1)})",
                  f"(>= {_fmt(c)} {x})"]
        return rng.choice(styles)
    if x is None:
        styles = [f"(>= {y} {_fmt(-c)})", f"(> {y} {_fmt(-c - 1)})",
                  f"(<= {_fmt(-c)} {y})"]
        return rng.choice(styles)
    styles = [
        f"(<= (- {x} {y}) {_fmt(c)})",
        f"(< (- {x} {y}) {_fmt(c + 1)})",
        f"(>= (- {y} {x}) {_fmt(-c)})",
        f"(> (- {y} {x}) {_fmt(-c - 1)})",
        f"(<= (+ {x} {_fmt(-c)}) {y})",
    ]
    if c == 0:
        styles.append(f"(<= {x} {y})")
    return rng.choice(styles)


def _atom_pool(rng, spec, names):
    pool = []
    for _ in range(spec.atoms):
        if len(names) >= 2 and rng.random() < 0.85:
            x, y = rng.sample(names, 2)
        else:
            x, y = rng.choice(names), None
            if rng.random() < 0.5:
                x, y = None, x
        pool.append((x, y, rng.randint(spec.lo, spec.hi)))
    return pool


def _random_tree(rng, depth, pool):
    if depth <= 0 or rng.random() < 0.25:
        atom = pool[rng.randrange(len(pool))]
        s = _render_atom(rng, *atom)
        return f"(not {s})" if rng.random() < 0.3 else s
    op = rng.choice(["and", "or", "and", "or", "xor", "=>", "not", "ite"])
    if op == "not":
        return f"(not {_random_tree(rng, depth - 1, pool)})"
    if op in ("xor", "=>"):
        a = _random_tree(rng, depth - 1, pool)
        b = _random_tree(rng, depth - 1, pool)
        return f"({op} {a} {b})"
    if op == "ite":
        a = _random_tree(rng, depth - 1, pool)
        b = _random_tree(rng, depth - 1, pool)
        c = _random_tree(rng, depth - 1, pool)
        return f"(ite {a} {b} {c})"
    width = rng.randint(2, 3)
    kids = " ".join(_random_tree(rng, depth - 1, pool) for _ in range(width))
    return f"({op} {kids})"


def _random_let(rng, levels, pool):
    """Nested ``let`` bindings, each a small tree over atoms and earlier
    bindings; the body uses the last binding under ``not``, as an ``xor``
    operand, and as an ``ite`` condition and branch."""
    names = []

    def operand():
        if names and rng.random() < 0.6:
            return rng.choice(names)
        return _render_atom(rng, *pool[rng.randrange(len(pool))])

    binds = []
    for i in range(levels):
        op = rng.choice(["and", "or", "xor", "=>", "ite", "not"])
        args = " ".join(operand() for _ in range({"not": 1, "ite": 3}.get(op, 2)))
        binds.append(f"(s{i} ({op} {args}))")
        names.append(f"s{i}")
    s = names[-1]
    uses = [f"(not {s})", f"(xor {s} {operand()})",
            f"(ite {s} {operand()} {operand()})",
            f"(ite {operand()} {s} {operand()})"]
    rng.shuffle(uses)
    body = uses[0]
    for use in uses[1:]:
        body = f"({rng.choice(['and', 'or'])} {body} {use})"
    for b in reversed(binds):
        body = f"(let ({b}) {body})"
    return body


def let_chain(depth):
    """A ``let`` chain over Int ``x`` and ``y`` whose level t uses level
    t-1 twice, so its text grows linearly while its tree expansion doubles
    per level; it holds exactly when x - y > depth."""
    binds = ["(a0 (< y x))"]
    for t in range(1, depth + 1):
        # a xor (a and b) is a and not b
        binds.append(f"(a{t} (xor a{t - 1} (and a{t - 1} (<= (- x y) {t}))))")
    text = f"a{depth}"
    for b in reversed(binds):
        text = f"(let ({b}) {text})"
    return text


def random_script(spec):
    """Deterministic random QF_IDL script; every assertion is named."""
    rng = random.Random(spec.seed)
    names = [f"v{i}" for i in range(spec.vars)]
    lines = ["(set-logic QF_IDL)"]
    for nm in names:
        lines.append(f"(declare-fun {nm} () Int)")
    pool = _atom_pool(rng, spec, names)
    kind = spec.structure[0]
    asserts = []
    if kind == "conjunction":
        for atom in pool:
            asserts.append(_render_atom(rng, *atom))
    elif kind == "cnf":
        _, k, m = spec.structure
        for _ in range(m):
            lits = []
            for _ in range(rng.randint(1, k)):
                s = _render_atom(rng, *pool[rng.randrange(len(pool))])
                lits.append(f"(not {s})" if rng.random() < 0.5 else s)
            asserts.append(lits[0] if len(lits) == 1
                           else "(or " + " ".join(lits) + ")")
    elif kind == "tree":
        _, depth = spec.structure
        asserts.append(_random_tree(rng, depth, pool))
    elif kind == "let":
        asserts.append(_random_let(rng, spec.structure[1], pool))
    else:
        raise ValueError(f"unknown structure {kind!r}")
    for i, body in enumerate(asserts):
        lines.append(f"(assert (! {body} :named a{i}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def random_incremental_script(seed, vars=4, checks=4, lo=-6, hi=6):
    """Random push/pop script.

    Returns ``(script text, prefixes)`` where ``prefixes[i]`` is the list of
    assertion bodies active at the i-th check-sat, for from-scratch replay.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(vars)]
    lines = ["(set-logic QF_IDL)"]
    for nm in names:
        lines.append(f"(declare-fun {nm} () Int)")
    stack = [[]]
    prefixes = []
    emitted = 0
    guard = 0
    while emitted < checks and guard < 200:
        guard += 1
        roll = rng.random()
        if roll < 0.45:
            x, y = rng.sample(names, 2)
            body = _render_atom(rng, x, y, rng.randint(lo, hi))
            stack[-1].append(body)
            lines.append(f"(assert {body})")
        elif roll < 0.6:
            lines.append("(push 1)")
            stack.append([])
        elif roll < 0.75 and len(stack) > 1:
            lines.append("(pop 1)")
            stack.pop()
        else:
            lines.append("(check-sat)")
            prefixes.append([b for frame in stack for b in frame])
            emitted += 1
    while emitted < checks:
        lines.append("(check-sat)")
        prefixes.append([b for frame in stack for b in frame])
        emitted += 1
    return "\n".join(lines) + "\n", prefixes


# -- benchmark families ------------------------------------------------------------------


def emit_benchmark(family, n, seed=0, width=2):
    """Scalable instances with known verdicts; returns ``(text, verdict)``.

    negative-cycle-chain(n): an n-bound cycle of total weight -1; unsat
    with that cycle as the unique minimal core. diamond-grid(n): about n
    variables strung through 4-edge diamonds with one route choice each;
    satisfiable by construction. window-scheduling(n, width): start-time
    windows plus separations sampled around a concrete schedule, hence
    satisfiable by construction.
    """
    if n < 2:
        raise ValueError("families are defined for n >= 2")
    rng = random.Random(seed)
    if family == "negative-cycle-chain":
        lines = ["(set-logic QF_IDL)", "(set-info :status unsat)",
                 "(set-option :produce-unsat-cores true)"]
        for i in range(n):
            lines.append(f"(declare-fun x{i} () Int)")
        for i in range(n - 1):
            lines.append(f"(assert (! (<= (- x{i} x{i + 1}) 1) :named a{i + 1}))")
        lines.append(f"(assert (! (<= (- x{n - 1} x0) {_fmt(-n)}) :named a{n}))")
        lines.append("(check-sat)")
        lines.append("(get-unsat-core)")
        return "\n".join(lines) + "\n", "unsat"
    if family == "diamond-grid":
        k = max(1, (n - 1) // 3)
        lines = ["(set-logic QF_IDL)", "(set-info :status sat)"]
        for i in range(k + 1):
            lines.append(f"(declare-fun s{i} () Int)")
        for i in range(k):
            lines.append(f"(declare-fun a{i} () Int)")
            lines.append(f"(declare-fun b{i} () Int)")
        for i in range(k):
            lines.append(f"(assert (<= (- a{i} s{i}) 2))")
            lines.append(f"(assert (<= (- s{i + 1} a{i}) 2))")
            lines.append(f"(assert (<= (- b{i} s{i}) 3))")
            lines.append(f"(assert (<= (- s{i + 1} b{i}) 1))")
            lines.append(f"(assert (<= (- s{i} s{i + 1}) 0))")
            lines.append(f"(assert (or (<= (- s{i} a{i}) 0) (<= (- s{i} b{i}) 0)))")
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n", "sat"
    if family == "window-scheduling":
        starts = [rng.randint(0, 4 * n) for _ in range(n)]
        lines = ["(set-logic QF_IDL)", "(set-info :status sat)"]
        for i in range(n):
            lines.append(f"(declare-fun t{i} () Int)")
        for i in range(n):
            lo = starts[i] - rng.randint(0, width)
            hi = starts[i] + rng.randint(0, width)
            lines.append(f"(assert (>= t{i} {_fmt(lo)}))")
            lines.append(f"(assert (<= t{i} {_fmt(hi)}))")
        for _ in range(max(0, n - 3)):
            i, j = rng.sample(range(n), 2)
            gap = starts[i] - starts[j] + rng.randint(0, width)
            lines.append(f"(assert (<= (- t{i} t{j}) {_fmt(gap)}))")
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n", "sat"
    raise ValueError(f"unknown family {family!r}")


def write_benchmark_suite(outdir, entries):
    """Write ``.smt2`` files plus a ``manifest.tsv`` of path<TAB>verdict.

    ``entries`` are ``(family, n)`` or ``(family, n, seed)`` tuples; returns
    the manifest path.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    rows = []
    for entry in entries:
        family, n = entry[0], entry[1]
        seed = entry[2] if len(entry) > 2 else 0
        text, verdict = emit_benchmark(family, n, seed)
        fname = f"{family}-{n}-{seed}.smt2"
        path = os.path.join(outdir, fname)
        with open(path, "w") as f:
            f.write(text)
        rows.append(f"{fname}\t{verdict}")
    manifest = os.path.join(outdir, "manifest.tsv")
    with open(manifest, "w") as f:
        f.write("\n".join(rows) + "\n")
    return manifest
