#!/usr/bin/env python3
"""Statement reach of the tier-1 tests over ``src/idlsmt``.

Runs the test suite in this process under a ``sys.settrace`` line tracer
(``threading.settrace`` too) that records the lines executed in frames
whose code lies under ``src/idlsmt``, then prints every executable line
that no test ran. A file's executable lines are the union of
``co_lines()`` over every code object compiled from it. The tracer is
installed before anything imports ``idlsmt``, so module-level lines count.

Exits 1 if a test fails, if an unreached line is not in ``ALLOWED``, or
if an ``ALLOWED`` entry names no unreached line (it is reached now, or
gone). ``ALLOWED`` is keyed by file and stripped source text, not by line
number, and may hold only ``raise InternalError(...)`` lines: the guards
of invariants that no input can break. Any other line is deleted or
reached from a test.

Usage: PYTHONPATH=src python benchmarks/reach.py
"""

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "idlsmt")

# file -> stripped text of the guard lines that no test reaches
ALLOWED = {
    "engine.py": {
        'raise InternalError("asserted bound missing from the closure")',
        'raise InternalError("no core recorded")',
    },
    "sat.py": {
        'raise InternalError("asked for the reason of a decision")',
        'raise InternalError("conflict without a current-level literal")',
    },
}

hits = {}  # file path -> lines executed
full = set()  # code objects all of whose lines have run; traced no more
lines_of = {}  # code object -> its lines


def code_lines(code):
    return {line for _, _, line in code.co_lines() if line}


def _trace(frame, event, arg):
    code = frame.f_code
    if code in full or not code.co_filename.startswith(PKG):
        return None
    seen = hits.setdefault(code.co_filename, set())
    add = seen.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        elif event == "return":
            need = lines_of.get(code)
            if need is None:
                need = lines_of[code] = code_lines(code)
            if need <= seen:
                full.add(code)
        return local
    return local


def executable(path):
    with open(path) as f:
        todo = [compile(f.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines |= code_lines(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main():
    if any(m == "idlsmt" or m.startswith("idlsmt.") for m in sys.modules):
        sys.exit("reach: idlsmt was imported before the tracer")
    for name, texts in ALLOWED.items():
        for text in texts:
            if not text.startswith("raise InternalError("):
                sys.exit(f"reach: {name}: allowed line is no InternalError "
                         f"guard: {text}")
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        import pytest
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    failed = int(code) != 0
    if failed:
        print(f"reach: the tests exited {int(code)}")
    files = sorted(n for n in os.listdir(PKG) if n.endswith(".py"))
    for name in sorted(set(ALLOWED) - set(files)):
        print(f"reach: {name}: allowed lines of a file that is gone")
        failed = True
    unreached = 0
    for name in files:
        path = os.path.join(PKG, name)
        with open(path) as f:
            source = f.read().splitlines()
        allowed = ALLOWED.get(name, set())
        used = set()
        for line in sorted(executable(path) - hits.get(path, set())):
            text = source[line - 1].strip()
            if text in allowed:
                used.add(text)
                print(f"src/idlsmt/{name}:{line}: {text}  (allowed)")
            else:
                print(f"src/idlsmt/{name}:{line}: {text}")
                unreached += 1
        for text in sorted(allowed - used):
            print(f"reach: {name}: stale allowed line: {text}")
            failed = True
    print(f"reach: {unreached} unreached line(s) outside the allowed list")
    return 1 if failed or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
