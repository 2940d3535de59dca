"""Command-line entry point.

Batch mode slurps and parses the whole script before executing; streaming
mode (``--incremental``) reads, executes, and flushes one command at a
time. A portfolio spec runs option stages sequentially on fresh engines,
keeping the first transcript whose answers are all definitive.

Exit codes: 0 clean (sat and unsat both count), 1 usage/parse/sort errors
(input nested too deep for the recursive parser or normalizer included),
2 internal invariant violations. Responses go to standard output only;
statistics and diagnostics go to the error stream.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from .engine import InternalError, Session, SessionConfig
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
    p.add_argument("--no-theory-prop", action="store_true",
                   help="disable exhaustive theory propagation")
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
    p.add_argument("--portfolio", metavar="SPEC", default=None,
                   help="sequential stages, e.g. 'no-prop:1000ms,prop:rest'")
    return p


@dataclass
class _Stage:
    name: str
    theory_prop: bool
    time_ms: Optional[int] = None
    conflicts: Optional[int] = None


_STAGE_NAMES = {"prop": True, "no-prop": False}


def parse_portfolio(spec):
    """Parse 'name:budget,...' where budget is Nms, Nc, or rest."""
    stages = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise _UsageError("empty portfolio stage")
        name, sep, budget = part.partition(":")
        if name not in _STAGE_NAMES:
            raise _UsageError(f"unknown portfolio stage '{name}' "
                              f"(expected one of {sorted(_STAGE_NAMES)})")
        stage = _Stage(name, _STAGE_NAMES[name])
        if not sep or budget == "rest":
            pass
        elif budget.endswith("ms") and budget[:-2].isdigit():
            stage.time_ms = int(budget[:-2])
        elif budget.endswith("c") and budget[:-1].isdigit():
            stage.conflicts = int(budget[:-1])
        else:
            raise _UsageError(f"malformed stage budget '{budget}'")
        stages.append(stage)
    if not stages:
        raise _UsageError("empty portfolio spec")
    return stages


def _make_config(opts, theory_prop=None):
    return SessionConfig(
        produce_unsat_cores=opts.produce_unsat_cores,
        theory_propagation=(not opts.no_theory_prop
                            if theory_prop is None else theory_prop),
        minimize_core=opts.minimize_core,
        time_budget_ms=opts.tlimit,
    )


def _write_dumps(opts, session):
    if opts.dump_dimacs:
        with open(opts.dump_dimacs, "w") as f:
            f.write(session.dimacs_text())
    if opts.dump_apsp:
        with open(opts.dump_apsp, "w") as f:
            f.write(session.apsp_tsv())


def _print_stats(session, extra=None):
    stats = dict(session.stats)
    if extra:
        stats.update(extra)
    for key in sorted(stats):
        print(f"{key}={stats[key]}", file=sys.stderr)


def _run_batch(opts, text, out):
    session = Session(_make_config(opts))
    code = 0
    try:
        commands = parse_script(text)
    except SmtError as e:
        print(f'(error "{e}")', file=out)
        if opts.stats:
            _print_stats(session)
        return 1
    for cmd in commands:
        resp = session.execute(cmd)
        if resp.text is not None:
            print(resp.text, file=out)
        if cmd.name == "check-sat":
            _write_dumps(opts, session)
        if resp.is_error:
            code = 1
            break
        if session.finished:
            break
    out.flush()
    if opts.stats:
        _print_stats(session)
    return code


def _run_interactive(opts, stream, out):
    session = Session(_make_config(opts))
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
            print(f'(error "{e}")', file=out, flush=True)
            continue
        if cmd is None:
            continue
        resp = session.execute(cmd)
        if resp.text is not None:
            print(resp.text, file=out, flush=True)
        if cmd.name == "check-sat":
            _write_dumps(opts, session)
        if session.finished:
            break
    if opts.stats:
        _print_stats(session)
    return 0


def _run_portfolio(opts, text, out):
    stages = parse_portfolio(opts.portfolio)
    try:
        commands = parse_script(text)
    except SmtError as e:
        print(f'(error "{e}")', file=out)
        return 1
    last_lines = []
    last_code = 0
    last_session = None
    used = 0
    for stage in stages:
        used += 1
        session = Session(_make_config(opts, theory_prop=stage.theory_prop))
        session.cfg.conflict_budget = stage.conflicts
        deadline = (time.monotonic() + stage.time_ms / 1000.0
                    if stage.time_ms is not None else None)
        if deadline is not None:
            session.cancel_callback = lambda d=deadline: time.monotonic() > d
        lines = []
        code = 0
        definitive = True
        for cmd in commands:
            resp = session.execute(cmd)
            if resp.text is not None:
                lines.append(resp.text)
                if cmd.name == "check-sat" and resp.text == "unknown":
                    definitive = False
            if resp.is_error:
                code = 1
                break
            if session.finished:
                break
        last_lines, last_code, last_session = lines, code, session
        # an error downstream of an unknown answer falls through with it
        if definitive:
            break
    for line in last_lines:
        print(line, file=out)
    if last_session is not None and (opts.dump_dimacs or opts.dump_apsp):
        _write_dumps(opts, last_session)
    out.flush()
    if opts.stats and last_session is not None:
        _print_stats(last_session, extra={"stages": used})
    return last_code


def run(argv=None, stdin=None, stdout=None):
    """Run the solver; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    try:
        opts = _build_parser().parse_args(argv)
        if opts.portfolio and opts.incremental:
            raise _UsageError("--portfolio and --incremental are exclusive")
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
        if opts.portfolio:
            return _run_portfolio(opts, text, out)
        return _run_batch(opts, text, out)
    except _UsageError as e:
        print(f"idl-smt: error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # input nested too deep for a recursive pass, not a broken invariant
        print('(error "input nesting too deep")', file=out)
        return 1
    except (InternalError, RuntimeError, AssertionError):
        traceback.print_exc()
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
