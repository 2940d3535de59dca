"""Seeded random command protocols, every answer checked.

Each seed drives one session through a random mix of difference bounds
and declared Bools under ``not`` and ``or``, ``push``/``pop``,
``(assert false)``, ``check-sat`` and a late ``set-option
:produce-unsat-cores``, with cores on or off from the start, so both
assertion paths run: bottom-frame level-0 facts and selector-guarded
assertions. The script is built as the session answers: a ``sat`` is
followed by ``get-model``, an ``unsat`` with cores on by
``get-unsat-core``. Every model must satisfy the active assertions under
``testkit.eval_term``, every core must answer ``unsat`` replayed alone in
a fresh session, and every verdict must match the enumeration oracle. The
finished script then runs through the command line in batch and
``--incremental`` mode: each must exit 0 or 1 with no traceback and print
the session's responses, batch mode up to its first error.

A longer run of seeds, as a command:

    PYTHONPATH=src:tests python tests/test_protocol.py FIRST LAST
"""

import contextlib
import io
import random
import re
import sys

import pytest

from idlsmt.cli import run as cli_run
from idlsmt.engine import Session
from idlsmt.smtlib import DeclEnv, cursor, parse_command, tokenize
from idlsmt.testkit import eval_term
from test_acceptance import oracle_verdict

INTS = ["v0", "v1", "v2", "v3"]
BOOLS = ["b0", "b1", "b2"]
_DEFINE = re.compile(r"\(define-fun (\w+) \(\) (?:Int|Bool) "
                     r"(\(- \d+\)|\d+|true|false)\)")


def _num(c):
    return str(c) if c >= 0 else f"(- {-c})"


def _term(rng, pool, depth):
    if depth == 0 or rng.random() < 0.45:
        t = rng.choice(pool)
    else:
        t = "(or " + " ".join(_term(rng, pool, depth - 1)
                              for _ in range(rng.randint(2, 3))) + ")"
    return f"(not {t})" if rng.random() < 0.3 else t


def _model(text):
    ints, bools = {}, {}
    for name, value in _DEFINE.findall(text):
        if value in ("true", "false"):
            bools[name] = value == "true"
        else:
            ints[name] = -int(value[3:-1]) if value[0] == "(" else int(value)
    return ints, bools


class _Protocol:
    """One session, the script it was fed and its responses."""

    def __init__(self):
        self.session, self.env = Session(), DeclEnv()
        self.script, self.responses = [], []

    def __call__(self, text):
        cmd = parse_command(cursor(tokenize(text)), self.env)
        resp = self.session.execute(cmd)
        self.script.append(text)
        if resp.text is not None:
            self.responses.append(resp)
        return cmd, resp


def _replay_is_unsat(head, texts):
    session = Session()
    env = DeclEnv()
    for text in head + texts + ["(check-sat)"]:
        resp = session.execute(parse_command(cursor(tokenize(text)), env))
    return resp.text == "unsat"


def run_protocol(seed, steps=40):
    """Drive one random session, checking each answer; returns it."""
    rng = random.Random(seed)
    cores = seed % 2 == 1
    do = _Protocol()
    head = ["(set-logic QF_IDL)"]
    head += [f"(declare-fun {v} () Int)" for v in INTS]
    head += [f"(declare-fun {b} () Bool)" for b in BOOLS]
    if cores:
        do("(set-option :produce-unsat-cores true)")
    for text in head:
        do(text)
    pool = BOOLS[:]
    for _ in range(7):
        x, y = rng.sample(INTS, 2)
        pool.append(rng.choice([f"(<= (- {x} {y}) {_num(rng.randint(-4, 4))})",
                                f"(< {x} {y})",
                                f"(>= {x} {_num(rng.randint(-4, 4))})"]))
    frames = [[]]  # (name, command, text) of the assertions per push level
    for k in range(steps):
        roll = rng.random()
        if roll < 0.5:
            body = "false" if rng.random() < 0.04 else _term(rng, pool, 2)
            text = f"(assert (! {body} :named a{k}))"
            cmd, resp = do(text)
            assert not resp.is_error, resp.text
            frames[-1].append((f"a{k}", cmd, text))
        elif roll < 0.62:
            do("(push 1)")
            frames.append([])
        elif roll < 0.74 and len(frames) > 1:
            n = rng.randint(1, len(frames) - 1)
            do(f"(pop {n})")
            del frames[len(frames) - n:]
        elif roll < 0.77:
            # cores are read as each assertion is made: after the first
            # one, popped or not, the option is refused and left as it was
            late = any(text.startswith("(assert") for text in do.script)
            _, resp = do(f"(set-option :produce-unsat-cores "
                         f"{'false' if cores else 'true'})")
            assert resp.is_error == late, seed
            cores = do.session.cfg.produce_unsat_cores
        else:
            _, resp = do("(check-sat)")
            active = [a for fr in frames for a in fr]
            assert resp.text == oracle_verdict([c for _, c, _ in active]), \
                f"seed {seed}"
            if resp.text == "sat":
                _, resp = do("(get-model)")
                ints, bools = _model(resp.text)
                for _, cmd, _ in active:
                    assert eval_term(cmd.args[0], ints, bools) is True, \
                        f"seed {seed}"
            elif cores:
                _, resp = do("(get-unsat-core)")
                names = set(resp.text[1:-1].split())
                texts = [t for name, _, t in active if name in names]
                assert len(texts) == len(names), f"seed {seed}"
                assert _replay_is_unsat(head, texts), f"seed {seed}"
    return do


def check_seed(seed):
    do = run_protocol(seed)
    text = "\n".join(do.script) + "\n"
    want = [r.text for r in do.responses]
    first_error = next((k for k, r in enumerate(do.responses) if r.is_error),
                       None)
    for flags in ([], ["--incremental"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_run(flags + ["-"], stdin=io.StringIO(text), stdout=out)
        assert "Traceback" not in err.getvalue(), f"seed {seed}"
        if flags or first_error is None:
            assert (code, out.getvalue().splitlines()) == (0, want), \
                f"seed {seed} {flags}"
        else:  # batch mode stops at its first error response
            assert (code, out.getvalue().splitlines()) \
                == (1, want[:first_error + 1]), f"seed {seed}"


@pytest.mark.parametrize("block", range(8))
def test_random_protocols(block):
    for seed in range(block * 25, block * 25 + 25):
        check_seed(seed)


if __name__ == "__main__":
    first, last = map(int, sys.argv[1:3])
    for seed in range(first, last):
        check_seed(seed)
    print(f"seeds {first} to {last - 1}: every answer checked")
