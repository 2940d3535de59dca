"""Answer checks that do not use the solver.

A ``sat`` answer is checked by evaluating every active assertion under the
values printed by ``(get-model)``; an ``unsat`` answer must match the
verdict the generator fixed by construction.
"""

from __future__ import annotations

import re

from idlsmt.testkit import eval_term

_DEFINE = re.compile(
    r"\(define-fun (\S+) \(\) (Int|Bool) (\(- \d+\)|\d+|true|false)\)")


def parse_model(text):
    """``(model ...)`` text to (int values, bool values); None if malformed."""
    if not text or not text.startswith("(model"):
        return None
    ints, bools = {}, {}
    for name, sort, value in _DEFINE.findall(text):
        if sort == "Bool":
            bools[name] = value == "true"
        elif value.startswith("(-"):
            ints[name] = -int(value[3:-1])
        else:
            ints[name] = int(value)
    return ints, bools


def _is_term(part):
    return isinstance(part, tuple) and bool(part) and isinstance(part[0], str)


def _children(term):
    for part in term[1:]:
        if _is_term(part):
            yield part
        elif isinstance(part, (tuple, list)):  # the operands of and, or, ...
            yield from part


def _literal(value):
    return ("bool", value) if isinstance(value, bool) else ("int", value)


def evaluate(term, ints, bools):
    """``testkit.eval_term`` applied node by node over the term DAG.

    Parsed terms share let-bound subterms by reference; evaluating each
    shared node once (and without recursion) keeps deep or doubling let
    chains linear.
    """
    memo = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        shallow = tuple(
            _literal(memo[id(part)]) if _is_term(part)
            else [_literal(memo[id(c)]) for c in part]
            if isinstance(part, (tuple, list))
            else part
            for part in node)
        memo[id(node)] = eval_term(shallow, ints, bools)
    return memo[id(term)]


def model_failure(model_text, assertions):
    """Why a model fails the active assertions, or None when it holds."""
    model = parse_model(model_text)
    if model is None:
        return f"malformed model {model_text!r:.80}"
    ints, bools = model
    for k, term in enumerate(assertions):
        if evaluate(term, ints, bools) is not True:
            return f"model falsifies active assertion {k}"
    return None
