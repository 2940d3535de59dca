import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from idlsmt.normalize import (
    AtomTable, ConstantOverflow, NonDifferenceTerm, ZERO_VAR, skeleton,
    to_cnf,
)
from idlsmt.smtlib import DeclEnv, cursor, parse_term, tokenize
from idlsmt.testkit import eval_term, let_chain, truth_table_sat


class Harness:
    """Fresh atom table plus name resolvers for a handful of variables."""

    def __init__(self):
        self.n_vars = 0
        self.atoms = AtomTable(self.new_var)
        self.int_ids = {}
        self.bool_ids = {}

    def new_var(self):
        self.n_vars += 1
        return self.n_vars

    def resolve_int(self, name):
        if name not in self.int_ids:
            self.int_ids[name] = len(self.int_ids) + 1
        return self.int_ids[name]

    def resolve_bool(self, name):
        if name not in self.bool_ids:
            self.bool_ids[name] = self.new_var()
        return self.bool_ids[name]

    def norm(self, text, decls=("x", "y", "z")):
        env = DeclEnv()
        for nm in decls:
            env.declare(nm, "Int")
        term, _ = parse_term(cursor(tokenize(text)), env)
        return skeleton(term, self.resolve_int, self.resolve_bool, self.atoms)

    def bound_of(self, lit):
        """The bound asserted by a signed atom literal."""
        x, y, c = self.atoms.bounds[abs(lit)]
        return (x, y, c) if lit > 0 else (y, x, -c - 1)

    def varid_names(self):
        inv = {v: k for k, v in self.int_ids.items()}
        inv[ZERO_VAR] = "<zero>"
        return inv


class TestRewrites:
    def test_strict_to_nonstrict(self):
        h = Harness()
        node = h.norm("(< (- x y) 0)")
        assert node[0] == "lit"
        x, y = h.int_ids["x"], h.int_ids["y"]
        assert h.bound_of(node[1]) == (x, y, -1)

    def test_unary_bound_uses_zero_variable(self):
        h = Harness()
        node = h.norm("(>= x 5)")
        x = h.int_ids["x"]
        assert h.bound_of(node[1]) == (ZERO_VAR, x, -5)

    def test_equality_splits(self):
        h = Harness()
        node = h.norm("(= (- x y) 2)")
        assert node[0] == "and" and len(node[1]) == 2
        x, y = h.int_ids["x"], h.int_ids["y"]
        bounds = {h.bound_of(k[1]) for k in node[1]}
        assert bounds == {(x, y, 2), (y, x, -2)}

    def test_sum_is_rejected(self):
        h = Harness()
        with pytest.raises(NonDifferenceTerm) as e:
            h.norm("(<= (+ x y) 3)")
        assert "(+ x y)" in str(e.value)

    def test_doubled_variable_rejected(self):
        h = Harness()
        with pytest.raises(NonDifferenceTerm):
            h.norm("(<= (+ x x) 3)")

    def test_distinct(self):
        h = Harness()
        node = h.norm("(distinct x y)")
        assert node[0] == "and" and len(node[1]) == 1
        disj = node[1][0]
        assert disj[0] == "or"
        x, y = h.int_ids["x"], h.int_ids["y"]
        bounds = {h.bound_of(k[1]) for k in disj[1]}
        assert bounds == {(x, y, -1), (y, x, -1)}

    def test_constant_on_either_side(self):
        h = Harness()
        node = h.norm("(<= (+ x 3) y)")
        x, y = h.int_ids["x"], h.int_ids["y"]
        assert h.bound_of(node[1]) == (x, y, -3)

    def test_two_variable_form(self):
        h = Harness()
        node = h.norm("(<= x y)")
        x, y = h.int_ids["x"], h.int_ids["y"]
        assert h.bound_of(node[1]) == (x, y, 0)

    def test_self_difference_folds(self):
        h = Harness()
        assert h.norm("(<= (- x x) 3)") == ("const", True)
        assert h.norm("(< (- x x) 0)") == ("const", False)
        assert h.norm("(distinct x x)") == ("const", False)

    def test_ground_comparisons_fold(self):
        h = Harness()
        assert h.norm("(<= 5 3)") == ("const", False)
        assert h.norm("(= (- 7 4) 3)") == ("const", True)

    def test_constant_overflow(self):
        h = Harness()
        big = 2 ** 61
        with pytest.raises(ConstantOverflow):
            h.norm(f"(<= (- x y) {big})")
        # the strict shift can push a boundary constant out of range
        with pytest.raises(ConstantOverflow):
            h.norm(f"(< (- x y) (- {2 ** 61}))")
        h.norm(f"(<= (- x y) {big - 1})")  # in range


class TestInterning:
    def test_structural_equality_shares_ids(self):
        h = Harness()
        a = h.norm("(<= (- x y) 3)")[1]
        b = h.norm("(<= (- x y) 3)")[1]
        c = h.norm("(<= (- x y) 4)")[1]
        assert a == b and abs(a) != abs(c)

    def test_complement_shares_variable(self):
        h = Harness()
        a = h.norm("(<= (- x y) 3)")[1]
        na = h.norm("(<= (- y x) (- 4))")[1]
        assert na == -a

    def test_negate_involution(self):
        h = Harness()
        a = h.norm("(<= (- x y) 3)")[1]
        assert -(-a) == a
        assert h.bound_of(-a) == tuple(
            (h.int_ids["y"], h.int_ids["x"], -4))

    @given(st.integers(-16, 16), st.integers(-16, 16), st.integers(-8, 8))
    def test_exactly_one_of_atom_and_negation_holds(self, vx, vy, c):
        h = Harness()
        lit = h.norm(f"(<= (- x y) {c if c >= 0 else f'(- {-c})'})")[1]
        x1, y1, c1 = h.bound_of(lit)
        x2, y2, c2 = h.bound_of(-lit)
        val = {h.int_ids["x"]: vx, h.int_ids["y"]: vy, ZERO_VAR: 0}
        holds = val[x1] - val[y1] <= c1
        holds_neg = val[x2] - val[y2] <= c2
        assert holds != holds_neg

    def test_thousand_random_assignments_exclusive(self):
        def fmt(k):
            return str(k) if k >= 0 else f"(- {-k})"

        rng = random.Random(7)
        h = Harness()
        lits = [h.norm(f"(<= (- x y) {fmt(k)})")[1] for k in range(-5, 6)]
        lits += [h.norm(f"(>= z {fmt(k)})")[1] for k in range(-5, 6)]
        val = {ZERO_VAR: 0}
        for _ in range(1000):
            for nm in ("x", "y", "z"):
                val[h.resolve_int(nm)] = rng.randint(-16, 16)
            for lit in lits:
                x1, y1, c1 = h.bound_of(lit)
                x2, y2, c2 = h.bound_of(-lit)
                assert (val[x1] - val[y1] <= c1) != (val[x2] - val[y2] <= c2)


def _skeleton_truth(node, lit_val):
    tag = node[0]
    if tag == "lit":
        return lit_val(node[1])
    if tag == "const":
        return node[1]
    if tag == "not":
        return not _skeleton_truth(node[1], lit_val)
    if tag == "and":
        return all(_skeleton_truth(k, lit_val) for k in node[1])
    if tag == "or":
        return any(_skeleton_truth(k, lit_val) for k in node[1])
    if tag == "xor":
        return _skeleton_truth(node[1], lit_val) != _skeleton_truth(node[2], lit_val)
    if tag == "ite":
        if _skeleton_truth(node[1], lit_val):
            return _skeleton_truth(node[2], lit_val)
        return _skeleton_truth(node[3], lit_val)
    raise AssertionError(tag)


_CMP_TEXTS = [
    "({op} (- x y) {c})", "({op} x y)", "({op} x {c})", "({op} {c} y)",
    "({op} (+ x {c}) y)", "({op} (- x y) (- z z))",
]


class TestRewriteSoundness:
    @given(st.sampled_from(["<", "<=", ">", ">=", "="]),
           st.sampled_from(_CMP_TEXTS), st.integers(-9, 9),
           st.lists(st.integers(-16, 16), min_size=3, max_size=3))
    def test_source_and_atoms_agree(self, op, shape, c, vals):
        h = Harness()
        text = shape.format(op=op, c=c if c >= 0 else f"(- {-c})")
        env = DeclEnv()
        for nm in ("x", "y", "z"):
            env.declare(nm, "Int")
        term, _ = parse_term(cursor(tokenize(text)), env)
        node = skeleton(term, h.resolve_int, h.resolve_bool, h.atoms)
        int_env = dict(zip(("x", "y", "z"), vals))
        vid_val = {h.int_ids[nm]: v for nm, v in int_env.items()
                   if nm in h.int_ids}
        vid_val[ZERO_VAR] = 0

        def lit_val(lit):
            x, y, cc = h.bound_of(lit)
            return vid_val[x] - vid_val[y] <= cc

        assert _skeleton_truth(node, lit_val) == eval_term(term, int_env, {})


class TestTseitin:
    def test_single_literal_needs_no_gates(self):
        h = Harness()
        node = h.norm("(<= (- x y) 3)")
        clauses, root = to_cnf(node, h.new_var)
        assert clauses == [] and root == node[1]
        # the engine asserts the root as a unit clause
        assert [[root]] == [[node[1]]]

    def test_or_gate_shape(self):
        h = Harness()
        node = h.norm("(or (<= (- x y) 0) (<= (- y z) 0))")
        clauses, root = to_cnf(node, h.new_var)
        assert len(clauses) == 3
        assert isinstance(root, int)
        # unit root plus the three gate clauses encode root <-> a or b
        a = h.norm("(<= (- x y) 0)")[1]
        b = h.norm("(<= (- y z) 0)")[1]
        n_vars = h.n_vars
        model_rows = set()
        for bits in itertools.product([False, True], repeat=n_vars):
            assign = {v: bits[v - 1] for v in range(1, n_vars + 1)}

            def val(lit):
                return assign[abs(lit)] == (lit > 0)

            if all(any(val(l) for l in cl) for cl in clauses) and val(root):
                model_rows.add((val(a), val(b)))
        assert model_rows == {(True, False), (False, True), (True, True)}

    def test_constant_roots(self):
        h = Harness()
        clauses, root = to_cnf(h.norm("(or (<= (- x x) 0) (< x 1))"), h.new_var)
        assert clauses == [] and root is True
        clauses, root = to_cnf(h.norm("(and (< (- x x) 0) (< x 1))"), h.new_var)
        assert clauses == [] and root is False

    def test_tautology_and_duplicates(self):
        h = Harness()
        a = h.norm("(<= (- x y) 3)")
        na = ("not", a)
        clauses, root = to_cnf(("or", [a, na]), h.new_var)
        assert clauses == [] and root is True
        clauses, root = to_cnf(("and", [a, a]), h.new_var)
        assert clauses == [] and root == a[1]

    def _random_tree(self, rng, vars, depth):
        if depth == 0 or rng.random() < 0.3:
            v = rng.choice(vars)
            return ("lit", v if rng.random() < 0.5 else -v)
        op = rng.choice(["and", "or", "not", "xor", "ite"])
        if op == "not":
            return ("not", self._random_tree(rng, vars, depth - 1))
        if op == "xor":
            return ("xor", self._random_tree(rng, vars, depth - 1),
                    self._random_tree(rng, vars, depth - 1))
        if op == "ite":
            return ("ite", self._random_tree(rng, vars, depth - 1),
                    self._random_tree(rng, vars, depth - 1),
                    self._random_tree(rng, vars, depth - 1))
        kids = [self._random_tree(rng, vars, depth - 1)
                for _ in range(rng.randint(2, 3))]
        return (op, kids)

    def test_projection_matches_formula_truth_table(self):
        # satisfying assignments of CNF + root, projected onto the leaf
        # variables, must be exactly the satisfying assignments of the tree
        rng = random.Random(3)
        for _ in range(25):
            leaf_vars = [1, 2, 3, 4]
            counter = {"n": 4}

            def new_var():
                counter["n"] += 1
                return counter["n"]

            tree = self._random_tree(rng, leaf_vars, 3)
            clauses, root = to_cnf(tree, new_var)
            n = counter["n"]
            assert n <= 16, "tree too large for the enumeration check"
            cnf = clauses + ([[root]] if not isinstance(root, bool) else [])
            formula_rows = set()
            cnf_rows = set()
            for bits in range(1 << n):
                assign = {v: bool((bits >> (v - 1)) & 1)
                          for v in range(1, n + 1)}

                def val(lit):
                    return assign[abs(lit)] == (lit > 0)

                leaf_bits = tuple(assign[v] for v in leaf_vars)
                if bits < (1 << 4):
                    if _skeleton_truth(tree, val):
                        formula_rows.add(leaf_bits)
                    if root is True:
                        cnf_rows.add(leaf_bits)
                if not isinstance(root, bool):
                    if all(any(val(l) for l in cl) for cl in cnf):
                        cnf_rows.add(leaf_bits)
            if root is False:
                cnf_rows = set()
            assert cnf_rows == formula_rows

    def test_clause_count_linear(self):
        h = Harness()
        parts = " ".join(f"(<= (- x y) {k})" for k in range(30))
        node = h.norm(f"(and {parts})")
        clauses, _ = to_cnf(node, h.new_var)
        assert len(clauses) <= 31

    def test_equisatisfiability_via_truth_table(self):
        rng = random.Random(11)
        for _ in range(10):
            counter = {"n": 3}

            def new_var():
                counter["n"] += 1
                return counter["n"]

            tree = self._random_tree(rng, [1, 2, 3], 3)
            clauses, root = to_cnf(tree, new_var)
            cnf = clauses + ([[root]] if not isinstance(root, bool) else [])
            formula_sat = any(
                _skeleton_truth(tree, lambda l, a=assign: a[abs(l)] == (l > 0))
                for assign in ({1: b1, 2: b2, 3: b3}
                               for b1 in (False, True)
                               for b2 in (False, True)
                               for b3 in (False, True)))
            if isinstance(root, bool):
                assert root == formula_sat or root is False
                cnf_sat = root
            else:
                cnf_sat = truth_table_sat(cnf, counter["n"]) is not None
            assert cnf_sat == formula_sat


class TestSharedSubterms:
    def encode(self, text):
        h = Harness()
        clauses, root = to_cnf(h.norm(text), h.new_var)
        return h.n_vars, clauses, root

    def test_shared_subterm_is_one_node_and_one_gate(self):
        h = Harness()
        node = h.norm("(let ((g (or (< x 1) (< y 2)))) (and g (not g)))")
        assert node[1][1][1] is node[1][0]
        clauses, root = to_cnf(node, h.new_var)
        # one gate for g, so the encoder sees g and its negation
        assert root is False and len(clauses) == 3

    def test_let_chain_grows_linearly(self):
        # a tree expansion doubles per level: fail fast at a small depth
        # before trying the depths that it could not finish
        n12, clauses12, _ = self.encode(let_chain(12))
        assert n12 <= 4 * 13 and len(clauses12) <= 8 * 13
        n30, clauses30, _ = self.encode(let_chain(30))
        n60, clauses60, _ = self.encode(let_chain(60))
        assert n60 <= 2.2 * n30
        assert len(clauses60) <= 2.2 * len(clauses30)


def doubling_chain(depth, op):
    # a_i = (op a_{i-1} a_{i-1}): a DAG of depth + 1 nodes whose tree
    # expansion has 2^depth leaves
    return ("(let ((a0 x)) " + "".join(
        f"(let ((a{i} ({op} a{i - 1} a{i - 1}))) " for i in range(1, depth + 1)))


class TestDeepIntegerTerms:
    def test_wide_flat_sum(self):
        # the parser left-folds the operands into a 2,000-deep add chain
        h = Harness()
        node = h.norm("(<= (+ x" + " 1" * 1999 + ") y)")
        assert node[0] == "lit"
        assert h.bound_of(node[1]) == (h.int_ids["x"], h.int_ids["y"], -1999)

    def test_shared_chain_is_reduced_once_per_node(self):
        # a_i = a_{i-1} - a_{i-1} = 0; reducing the tree would take 2^60 steps
        h = Harness()
        text = doubling_chain(60, "-") + "(<= (+ a60 x) y)" + ")" * 61
        start = time.perf_counter()
        node = h.norm(text)
        assert time.perf_counter() - start < 5
        assert h.bound_of(node[1]) == (h.int_ids["x"], h.int_ids["y"], 0)

    def test_messages_show_a_bounded_prefix(self):
        h = Harness()
        names = [f"z{i}" for i in range(2000)]
        with pytest.raises(NonDifferenceTerm) as e:
            h.norm("(<= (+ " + " ".join(names) + ") 3)", decls=names)
        msg = str(e.value)
        assert msg.startswith("not a difference constraint: (<= (+ (+ (+ ")
        assert msg.endswith("...") and len(msg) < 400
        h = Harness()
        text = doubling_chain(40, "+") + "(<= a40 y)" + ")" * 41
        with pytest.raises(NonDifferenceTerm) as e:
            h.norm(text)
        assert str(e.value).endswith("...") and len(str(e.value)) < 400
