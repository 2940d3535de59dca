#!/usr/bin/env python3
"""Digest the answers and counters of the perfbench workloads.

For each workload, feeds the inputs of one pass (``perfbench/workloads.py``
at ``--seed``, ``--pass`` and ``--scale``) through fresh sessions, as
perfbench does, and prints three SHA-256 digests: of every response, of
the check-sat verdicts alone, and of ``Session.stats`` after every
check-sat. Two checkouts that print the same line for a workload answer
it byte for byte alike, by the same search. A second line per workload
sums each stats key over the sessions' ends, so a digest that moves shows
which counter moved. The sessions run the solver in the ``src`` next to
this script, so a copy of it placed in another checkout digests that one.

Exits 1 if a response is an error, a verdict differs from the one the
workload fixes by construction, or a model fails perfbench's model check.

Usage: python benchmarks/answer_digest.py [--seed 5] [--pass 0]
       [--scale full|tiny] [workload ...]
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from idlsmt import Session, smtlib  # noqa: E402

from check import model_failure  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def feed(text, expected, digests, totals):
    """Run one script in a fresh session, folding its responses and stats
    into ``digests`` and ``totals``; return its failures."""
    session = Session()
    frames = [[]]  # asserted terms per push level
    verdicts, failures = [], []
    for cmd in smtlib.parse_script(text):
        resp = session.execute(cmd)
        digests["responses"].update(f"{resp.is_error:d} {resp.text}\n"
                                    .encode())
        if resp.is_error:
            failures.append(f"error response {resp.text}")
        elif cmd.name == "push":
            frames.extend([] for _ in range(cmd.args[0]))
        elif cmd.name == "pop":
            del frames[len(frames) - cmd.args[0]:]
        elif cmd.name == "assert":
            frames[-1].append(cmd.args[0])
        elif cmd.name == "check-sat":
            verdicts.append(resp.text)
            digests["verdicts"].update(f"{resp.text}\n".encode())
            digests["stats"].update(json.dumps(
                session.stats, sort_keys=True, default=int).encode() + b"\n")
        elif cmd.name == "get-model":
            why = model_failure(resp.text, [t for fr in frames for t in fr])
            if why:
                failures.append(f"check {len(verdicts) - 1}: {why}")
    if verdicts != expected:
        failures.append(f"answered {verdicts}, expected {expected}")
    for key, value in session.stats.items():
        totals[key] = totals.get(key, 0) + int(value)
    return failures


def digest(workload, seed, scale, pass_no):
    """The digest line and the totals line of one workload's pass, and
    the pass's failures."""
    digests = {kind: hashlib.sha256()
               for kind in ("responses", "verdicts", "stats")}
    totals, failures = {}, []
    inputs = generate(workload, seed, scale, pass_no)
    if WORKLOADS[workload].streaming:
        failures += feed(inputs.text, inputs.expected, digests, totals)
    else:
        for inp in inputs:
            failures += [f"{inp.name}: {why}" for why in
                         feed(inp.text, [inp.expected], digests, totals)]
    lines = [" ".join([workload] + [f"{kind}={h.hexdigest()}"
                                    for kind, h in digests.items()]),
             f"{workload} totals {json.dumps(totals, sort_keys=True)}"]
    return lines, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="workload",
                    help=f"any of {', '.join(WORKLOADS)} (default: all)")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads: {', '.join(unknown)}")
    failed = False
    for workload in args.workloads or list(WORKLOADS):
        lines, failures = digest(workload, args.seed, args.scale,
                                 args.pass_no)
        print("\n".join(lines))
        for why in failures:
            print(f"{workload} FAILED {why}", file=sys.stderr)
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
