"""Self-check of the benchmark's own plumbing, at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it checks that an untraced and a traced pass answer
every input correctly, that the traced pass records spans and counts, and
that flipping one expected verdict makes the run report a failure. It also
checks that a wrong model is caught and that the guard stops a silent
worker. Exits 0 when every check holds; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys

from worker import measure, run_pass, tail_percentile  # sets up the path
from check import model_failure
from idlsmt import smtlib
from run import run_worker
from spans import Tracer
from workloads import WORKLOADS, generate

SEED = 7


def _quiet():
    pass


def _flip(verdict):
    return "sat" if verdict == "unsat" else "unsat"


def _with_wrong_verdict(workload, inputs):
    if WORKLOADS[workload].streaming:
        expected = [_flip(inputs.expected[0])] + inputs.expected[1:]
        return dataclasses.replace(inputs, expected=expected)
    return [dataclasses.replace(inputs[0], expected=_flip(inputs[0].expected))
            ] + inputs[1:]


def check_workload(name):
    problems = []
    inputs = generate(name, SEED, "tiny")
    plain = run_pass(name, inputs, beat=_quiet)
    if plain.failures or not plain.samples_ms:
        problems.append(f"untraced pass failed: {plain.failures[:3]}")
    tracer = Tracer()
    with tracer:
        traced = run_pass(name, inputs, tracer, _quiet)
    if traced.failures:
        problems.append(f"traced pass failed: {traced.failures[:3]}")
    if tracer.self_seconds().get("sat.search", 0.0) <= 0.0 \
            or not tracer.counts.get("kernels.relax_calls"):
        problems.append("traced pass recorded no solver spans or relax calls")
    if traced.counts.get("sat.vars", 0) <= 0:
        problems.append("traced pass recorded no session counts")
    wrong = run_pass(name, _with_wrong_verdict(name, inputs), beat=_quiet)
    if not wrong.failures:
        problems.append("a wrong expected verdict was not reported")
    metrics, attempted, failures, info = measure(name, SEED, 0, "tiny",
                                                 beat=_quiet)
    if failures or attempted < 1:
        problems.append(f"measure() reported failures: {failures[:3]}")
    if set(metrics) != {"wall_s", "verdict_ms_p50", "verdict_ms_tail",
                        "peak_rss_mb"}:
        problems.append(f"unexpected end-to-end metrics {sorted(metrics)}")
    return problems


def check_reference():
    problems = []
    cmds = smtlib.parse_script(
        "(declare-fun x () Int)(declare-fun y () Int)"
        "(assert (let ((p (<= (- x y) 2))) (and p (or p (> x 0)))))")
    term = cmds[-1].args[0]
    if model_failure("(model (define-fun x () Int 3) "
                     "(define-fun y () Int 1))", [term]) is not None:
        problems.append("a satisfying model was rejected")
    if model_failure("(model (define-fun x () Int 5) "
                     "(define-fun y () Int (- 1)))", [term]) is None:
        problems.append("a falsifying model was accepted")
    if tail_percentile(20) != 50 or tail_percentile(100) != 90 \
            or tail_percentile(10) is not None:
        problems.append("tail percentile does not leave ten samples above")
    return problems


def check_guard():
    summary, beats, stopped = run_worker(
        [sys.executable, "-c", "import time; time.sleep(30)"], 0.5, 10.0)
    if summary is not None or stopped is None:
        return ["the guard did not stop a silent worker"]
    return []


def main():
    failed = False
    checks = [(f"workload {w}", lambda w=w: check_workload(w))
              for w in WORKLOADS]
    checks += [("reference checks", check_reference), ("guard", check_guard)]
    for label, fn in checks:
        problems = fn()
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
