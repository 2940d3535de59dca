"""Command-line entry point.

Batch mode slurps and parses the whole script, then runs it once, printing
each response as it comes; streaming mode (``--incremental``) reads,
executes, and flushes one command at a time. ``--tlimit`` gives each
check-sat one monotonic deadline, and a search that reaches it answers
unknown.

Exit codes: 0 clean (sat and unsat both count), 1 usage/parse/sort errors,
2 internal invariant violations (``InternalError``). The passes over a term
keep explicit stacks, so input nested at any depth gets an answer. Responses
go to standard output only; statistics and diagnostics go to the error
stream.

Both modes run each command through one step: execute it, print the
response, and after a check-sat write the dumps. ``--dump-apsp`` writes the
distance matrix of the last sat answer, read off the engine's closure as
that check-sat returns: an answer keeps its trail and closure, so this is
the matrix the search held. ``--dump-dimacs`` writes the clause store as it
stands.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .engine import InternalError, Session, SessionConfig, error_text
from .smtlib import CommandReader, DeclEnv, SmtError, cursor, parse_command, \
    parse_script, tokenize


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _ArgumentParser(prog="idl-smt", description=__doc__.splitlines()[0])
    p.add_argument("input", nargs="?", default="-",
                   help="script path, or '-' for standard input")
    p.add_argument("--incremental", action="store_true",
                   help="read, execute, and flush one command at a time")
    p.add_argument("--produce-unsat-cores", action="store_true",
                   help="enable (get-unsat-core)")
    p.add_argument("--minimize-core", action="store_true",
                   help="shrink reported cores with a deletion loop")
    p.add_argument("--tlimit", type=int, default=None, metavar="MS",
                   help="wall-clock budget per check-sat, in milliseconds")
    p.add_argument("--stats", action="store_true",
                   help="print key=value statistics to the error stream")
    p.add_argument("--dump-dimacs", metavar="PATH", default=None,
                   help="write the CNF seen by the SAT core after each check")
    p.add_argument("--dump-apsp", metavar="PATH", default=None,
                   help="write the distance matrix (TSV) after each check")
    return p


class _Step:
    """One session and the step both modes run each command through. It
    keeps the last sat answer's distance matrix as text (empty before
    any), taken only when ``--dump-apsp`` asks for it."""

    def __init__(self, opts, out, flush):
        self.opts, self.out, self.flush = opts, out, flush
        self.session = Session(SessionConfig(
            produce_unsat_cores=opts.produce_unsat_cores,
            minimize_core=opts.minimize_core,
            time_budget_ms=opts.tlimit))
        self.sat_tsv = ""

    def __call__(self, cmd):
        opts, session = self.opts, self.session
        resp = session.execute(cmd)
        if resp.text is not None:
            print(resp.text, file=self.out, flush=self.flush)
        if cmd.name == "check-sat":
            if opts.dump_apsp and resp.text == "sat":
                self.sat_tsv = session.apsp.dump_tsv()
            try:
                if opts.dump_dimacs:
                    with open(opts.dump_dimacs, "w") as f:
                        f.write(session.dimacs_text())
                if opts.dump_apsp:
                    with open(opts.dump_apsp, "w") as f:
                        f.write(self.sat_tsv)
            except OSError as e:
                raise _UsageError(str(e)) from None
        return resp

    def print_stats(self):
        if self.opts.stats:
            for key, value in sorted(self.session.stats.items()):
                print(f"{key}={value}", file=sys.stderr)


def _run_interactive(opts, stream, out):
    step = _Step(opts, out, flush=True)
    reader = CommandReader(stream)
    env = DeclEnv()
    while True:
        item = reader.next_command()
        if item is None:
            break
        text, line, col = item
        try:
            cmd = parse_command(cursor(tokenize(text, line, col)), env)
        except SmtError as e:
            print(error_text(str(e)), file=out, flush=True)
            continue
        if cmd is None:
            continue
        step(cmd)
        if step.session.finished:
            break
    step.print_stats()
    return 0


def _run_batch(opts, text, out):
    step = _Step(opts, out, flush=False)
    code = 0
    try:
        commands = parse_script(text)
    except SmtError as e:
        print(error_text(str(e)), file=out)
        commands, code = [], 1
    for cmd in commands:
        if step(cmd).is_error:
            code = 1
            break
        if step.session.finished:
            break
    out.flush()
    step.print_stats()
    return code


def run(argv=None, stdin=None, stdout=None):
    """Run the solver; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    try:
        opts = _build_parser().parse_args(argv)
        if opts.tlimit is not None and opts.tlimit < 0:
            raise _UsageError("argument --tlimit: must not be negative")
        if opts.input == "-":
            stream = stdin if stdin is not None else sys.stdin
            if opts.incremental:
                return _run_interactive(opts, stream, out)
            text = stream.read()
        else:
            try:
                with open(opts.input) as f:
                    if opts.incremental:
                        return _run_interactive(opts, f, out)
                    text = f.read()
            except OSError as e:
                raise _UsageError(str(e)) from None
        return _run_batch(opts, text, out)
    except _UsageError as e:
        print(f"idl-smt: error: {e}", file=sys.stderr)
        return 1
    except InternalError:
        traceback.print_exc()
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
